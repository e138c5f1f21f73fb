"""Polynomials with rational coefficients, plus the exact root tooling.

Root location stays decidable by splitting it in two: rational roots come from
the rational-root theorem, and a Sturm chain counts whatever real roots remain
after those are divided out.  A positive remainder count is exactly the
"irrational root in this interval" condition the kernel operations must reject;
`interior_rational_roots` rejects it and returns the rational roots, and
`split_interval` is the one splitter that cuts an interval at them (images,
pulled-back observables and the level sets of `unit_integral_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import IrrationalCriticalPoint
from .rationals import format_rational, parse_rational
from .sets import Component, Interval, Point, _component_holds, format_component


@dataclass(frozen=True)
class Polynomial:
    coeffs: tuple[Fraction, ...]  # ascending degree, no trailing zeros

    @staticmethod
    def of(*coeffs) -> "Polynomial":
        parsed = [parse_rational(c) for c in coeffs]
        while parsed and parsed[-1] == 0:
            parsed.pop()
        return Polynomial(tuple(parsed))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.of(c)

    @staticmethod
    def identity() -> "Polynomial":
        return Polynomial.of(0, 1)

    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Polynomial.of(*(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial.of(*out)
        return Polynomial.of(*(c * parse_rational(other) for c in self.coeffs))

    __rmul__ = __mul__

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial(())
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial.of(c)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial.of(*(c * k for k, c in enumerate(self.coeffs) if k >= 1))

    def __divmod__(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree()
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            factor = rem[-1] / lead
            quot[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= factor * c
            rem.pop()
        return Polynomial.of(*quot), Polynomial.of(*rem)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = format_rational(c)
            if k == 1:
                term += "*x"
            elif k > 1:
                term += f"*x^{k}"
            parts.append(term)
        return " + ".join(parts)


def _first_nonzero_derivative(p: Polynomial, x: Fraction) -> tuple[int, Fraction]:
    """(k, p^(k)(x)) for the smallest k >= 1 with a nonzero derivative.

    Requires a non-constant polynomial.
    """
    d = p.derivative()
    k = 1
    while True:
        v = d(x)
        if v != 0:
            return k, v
        d = d.derivative()
        k += 1


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a * (1 / a.leading())  # monic


def square_free_part(p: Polynomial) -> Polynomial:
    if p.degree() <= 0:
        return p
    g = polynomial_gcd(p, p.derivative())
    if g.degree() <= 0:
        return p
    q, _ = divmod(p, g)
    return q


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(p: Polynomial) -> list[Fraction]:
    """All distinct rational roots, sorted."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every rational as a root")
    if p.degree() == 0:
        return []
    coeffs = list(p.coeffs)
    roots = set()
    # factor out x^k
    k = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(coeffs) > 1:
        denom_lcm = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * denom_lcm) for c in coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        reduced = Polynomial.of(*ints)
        for num in _divisors(ints[0]):
            for den in _divisors(ints[-1]):
                for sign in (1, -1):
                    cand = Fraction(sign * num, den)
                    if reduced(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        _, r = divmod(chain[-2], chain[-1])
        chain.append(-r)
    chain.pop()
    return chain


def _sign_at(p: Polynomial, x: Optional[Fraction], plus_infinity: bool) -> int:
    if p.is_zero():
        return 0
    if x is not None:
        v = p(x)
        return (v > 0) - (v < 0)
    lead = p.leading()
    s = (lead > 0) - (lead < 0)
    if plus_infinity:
        return s
    return s if p.degree() % 2 == 0 else -s


def _variations(chain: list[Polynomial], x: Optional[Fraction], plus_infinity: bool) -> int:
    signs = [s for s in (_sign_at(p, x, plus_infinity) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_split(
    p: Polynomial, lo: Optional[Fraction], hi: Optional[Fraction]
) -> tuple[list[Fraction], int]:
    """p's distinct rational roots, sorted, and the number of its irrational
    real roots strictly inside (lo, hi), from one square-free pass."""
    if p.is_zero():
        raise ValueError("the zero polynomial is identically zero")
    q = square_free_part(p)
    roots = rational_roots(q)
    for r in roots:
        q, _ = divmod(q, Polynomial.of(-r, 1))
    if q.degree() <= 0:
        return roots, 0
    chain = _sturm_chain(q)
    # q has no rational roots, so rational endpoints are never roots and the
    # Sturm count over (lo, hi] equals the open-interval count.
    count = _variations(chain, lo, plus_infinity=False) - _variations(chain, hi, plus_infinity=True)
    return roots, count


def irrational_root_count_open(p: Polynomial, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    """Number of distinct irrational real roots of p strictly inside (lo, hi)."""
    return _root_split(p, lo, hi)[1]


def interior_rational_roots(
    p: Polynomial, comp: Interval, error: type[Exception], what: str
) -> list[Fraction]:
    """Sorted rational roots of p strictly inside the interval.

    Raises ``error("<what> inside <comp>")`` when an irrational root lies
    there, since no exact cut can be made at it.
    """
    roots, irrational = _root_split(p, comp.lo, comp.hi)
    if irrational:
        raise error(f"{what} inside {format_component(comp)}")
    return [r for r in roots if _component_holds(Interval(comp.lo, comp.hi), "atom", r)]


def split_interval(comp: Interval, cuts: list[Fraction]) -> tuple[list[Point], list[Interval]]:
    """Split an interval at sorted interior cuts: its closed ends and the cuts
    as points, and the open gaps between consecutive markers."""
    points = [Point(comp.lo)] if comp.lo_closed else []
    if comp.hi_closed:
        points.append(Point(comp.hi))
    points += [Point(c) for c in cuts]
    markers: list[Optional[Fraction]] = [comp.lo, *cuts, comp.hi]
    return points, [Interval(u, v) for u, v in zip(markers, markers[1:])]


def _interior_probe(gap: Interval) -> Fraction:
    """A rational point inside the open interval."""
    if gap.lo is None:
        return Fraction(0) if gap.hi is None else gap.hi - 1
    return gap.lo + 1 if gap.hi is None else (gap.lo + gap.hi) / 2


def polynomial_image(p: Polynomial, comp: Component) -> list[Component]:
    """Exact image of an interval or point under p, as set components.

    Open endpoints of the result are genuinely unattained limits; attained
    values show up as Points or closed endpoints.  Raises
    IrrationalCriticalPoint when p has an irrational critical point strictly
    inside an interval component, since the image is not exactly computable
    then.
    """
    if isinstance(comp, Point):
        return [Point(p(comp.value))]
    if p.is_constant():
        return [Point(p(Fraction(0)))]
    what = f"polynomial {p} has an irrational critical point"
    dp = p.derivative()
    cuts = interior_rational_roots(dp, comp, IrrationalCriticalPoint, what)
    points, gaps = split_interval(comp, cuts)
    out: list[Component] = [Point(p(pt.value)) for pt in points]
    for gap in gaps:
        # dp has no root in the gap, so p is strictly monotone there: the image
        # is the open interval between the one-sided limits, None at infinity.
        a = None if gap.lo is None else p(gap.lo)
        b = None if gap.hi is None else p(gap.hi)
        out.append(Interval(a, b) if dp(_interior_probe(gap)) > 0 else Interval(b, a))
    return out
