"""Polynomials with rational coefficients, plus the exact root engine.

Evaluation runs on integers.  Each polynomial clears its coefficients to
integer numerators over one common denominator D once, and keeps them.
p(u / v) is then Horner's rule over the integers on v^n D p(u / v), and one
Fraction is built at the end.  The derivatives that
`_first_nonzero_derivative` reads are likewise built once per polynomial.

The root engine computes with integers only.  It clears p's denominators to a
primitive integer polynomial and takes its square-free part f by a primitive
pseudo-remainder gcd.  `rational_roots` finds the rational roots of f by p-adic
lifting, modulo powers of one small prime.  `_real_roots` divides them out and
counts the roots left in an open interval, all irrational, by Descartes' rule
of signs with Vincent–Collins–Akritas bisection (integer Taylor shifts; a
Cauchy bound for an infinite end).

Cost: with n the degree and t the bit size of the cleared coefficients and of
the interval ends, every step is polynomial in n and t.  Only the primes that
divide a disc(f), a the leading coefficient, fail the prime search; that is
O(n(t + log n)) primes, each tried on all its residues.  Newton's iteration
lifts in O(log t) steps.  The bisection tree has O(n(t + log n)) nodes
(Eigenwillig, Sharma and Yap 2006), each an O(n^2) Taylor shift.

A positive irrational count is exactly the "irrational root in this interval"
condition the kernel operations must reject; `interior_rational_roots` rejects
it and returns the rational roots, and `split_interval` is the one splitter
that cuts an interval at them (images, pulled-back observables and the level
sets of `unit_integral_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import IrrationalCriticalPoint
from .rationals import format_rational, parse_rational
from .sets import Component, Interval, Point, format_component


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

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """(a_0, ..., a_n), D with coefficient k equal to a_k / D."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    @cached_property
    def _derivatives(self) -> tuple["Polynomial", ...]:
        """p', p'', ..., down to the last nonzero derivative."""
        out, d = [], self.derivative()
        while not d.is_zero():
            out.append(d)
            d = d.derivative()
        return tuple(out)

    def __call__(self, x: Fraction) -> Fraction:
        """p(x) for a rational x = u / v: Horner over the integers on
        v^n D p(u / v), then one Fraction."""
        nums, den = self._numerators
        if not nums:
            return Fraction(0)
        value, power = _homogeneous(nums, x.numerator, x.denominator)
        return Fraction(value, den * power)

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
        """p(inner(x)) by Horner's rule over the integers: with p = a / D and
        inner = b / E, the sum of a_k b^k E^(n-k) is D E^n p(inner)."""
        if self.is_zero() or inner.is_constant():
            return Polynomial.constant(self(inner.leading()))
        (nums, den), (inner_nums, inner_den) = self._numerators, inner._numerators
        acc, power = [nums[-1]], 1
        for c in reversed(nums[:-1]):
            power *= inner_den
            product = [0] * (len(acc) + len(inner_nums) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(inner_nums):
                    product[i + j] += a * b
            product[0] += c * power
            acc = product
        return Polynomial(tuple(Fraction(c, den * power) for c in acc))

    def derivative(self) -> "Polynomial":
        return Polynomial.of(*(c * k for k, c in enumerate(self.coeffs) if k >= 1))

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

    Raises ValueError on a constant polynomial, which has none.
    """
    for k, d in enumerate(p._derivatives, 1):
        v = d(x)
        if v != 0:
            return k, v
    raise ValueError(f"the constant polynomial {p} has no nonzero derivative")


def _sign_at_infinity(p: Polynomial, plus_infinity: bool) -> int:
    """The sign of a nonzero p near +inf or -inf."""
    lead = p.leading()
    s = (lead > 0) - (lead < 0)
    return s if plus_infinity or p.degree() % 2 == 0 else -s


# -- the root engine: integer polynomials as ascending coefficient lists ------


def _primitive(f: list[int]) -> list[int]:
    """f divided by its content, with a positive leading coefficient."""
    g = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // g for c in f]


def _integer_polynomial(p: Polynomial) -> list[int]:
    """The primitive integer multiple of a nonzero p."""
    if p.is_zero():
        raise ValueError("the zero polynomial is identically zero")
    return _primitive(list(p._numerators[0]))


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of c a by b, for c a power of b's leading coefficient
    that keeps every step in the integers."""
    a = list(a)
    while len(a) >= len(b):
        shift, top = len(a) - len(b), a[-1]
        a = [b[-1] * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= top * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b, for a divisor b of a whose quotient has integer coefficients."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = top = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= top * c
    return q


def _square_free(f: list[int]) -> list[int]:
    """The primitive square-free part of a primitive f of degree >= 1: f over
    gcd(f, f'), the gcd taken by primitive pseudo-remainders."""
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (_primitive(r) if r else r)
    return f if len(a) == 1 else _exact_quotient(f, _primitive(a))


def _homogeneous(f: Sequence[int], num: int, den: int) -> tuple[int, int]:
    """(den^n f(num / den), den^n), n = deg f: for den > 0, the first is an
    integer with the sign of f(num / den)."""
    acc, power = f[-1], 1
    for c in reversed(f[:-1]):
        power *= den
        acc = acc * num + c * power
    return acc, power


def _taylor_shift(f: list[int], a: int) -> list[int]:
    """f(x + a)."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in reversed(range(i, len(f) - 1)):
            f[j] += a * f[j + 1]
    return f


def _descartes_bound(f: list[int]) -> int:
    """The sign variations of (x + 1)^n f(1 / (x + 1)): a bound on the roots of
    f in (0, 1), of the same parity, exact when it reads 0 or 1."""
    signs = [c > 0 for c in _taylor_shift(f[::-1], 1) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _value_mod(f: Sequence[int], x: int, m: int) -> int:
    """f(x) mod m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(f: list[int]) -> list[Fraction]:
    """The sorted rational roots of a square-free primitive f, by p-adic
    lifting (Loos 1983).

    A root 0 is divided out first, so that f(0) != 0; a constant left has no
    root and a linear one has -f(0) / f(1).  Every other rational root is u / v
    in lowest terms with v | a, a the leading coefficient, and u | f(0); so
    w = a u / v is an integer with |w| <= |a f(0)|.  q is the least prime that
    does not divide a and at which every root of f mod q is simple.  The
    search ends: f is square-free, so disc(f) != 0, and only the primes that
    divide a disc(f) can fail.  Newton's iteration lifts each root of f mod q
    to the one root of f mod M above it, M = q^(2^k) > 2 |a f(0)|.  u / v is
    one of these mod M, r, so w is the residue of a r mod M nearest 0, and one
    exact test of w / a decides.
    """
    roots = []
    if f[0] == 0:
        roots, f = [Fraction(0)], f[1:]
    if len(f) <= 2:
        return roots if len(f) == 1 else sorted(roots + [Fraction(-f[0], f[1])])
    a, df = f[-1], [k * c for k, c in enumerate(f)][1:]
    q = 2  # the least prime that does not divide a, where f and f' share no root
    while a % q == 0 or any(q % d == 0 for d in range(2, q)) or any(
        _value_mod(f, r, q) == 0 == _value_mod(df, r, q) for r in range(q)
    ):
        q += 1
    for r in [x for x in range(q) if _value_mod(f, x, q) == 0]:
        m = q
        while m <= 2 * abs(a * f[0]):
            m *= m
            r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
        w = (a * r + m // 2) % m - m // 2
        if _homogeneous(f, w, a)[0] == 0:
            roots.append(Fraction(w, a))
    return sorted(roots)


def rational_roots(p: Polynomial) -> list[Fraction]:
    """p's distinct rational roots, sorted (`_rational_roots`); ValueError on 0."""
    return _rational_roots(_square_free(_integer_polynomial(p)))


def _real_roots(
    p: Polynomial, lo: Optional[Fraction], hi: Optional[Fraction]
) -> tuple[list[Fraction], int]:
    """p's distinct rational roots strictly inside (lo, hi), sorted, and the
    number of its distinct irrational roots there; a None end is infinite.

    f is the square-free primitive integer polynomial with p's roots.  Its
    rational roots come from `_rational_roots`, and their linear factors are
    divided out of f, so every real root left is irrational.  An infinite end
    becomes a Cauchy bound on those, and x = lo + (hi - lo) y maps the interval
    onto 0 < y < 1.  Descartes bisection halves that until each piece's bound
    reads 0 or 1, and a piece whose bound reads 1 holds one root.  No cut and
    no end is a root left, since both are rational.
    """
    f = _square_free(_integer_polynomial(p))
    roots = _rational_roots(f)
    for r in roots:
        f = _exact_quotient(f, [-r.numerator, r.denominator])
    inside = [r for r in roots if (lo is None or lo < r) and (hi is None or r < hi)]
    n = len(f) - 1
    bound = 2 + max((abs(c) for c in f[:-1]), default=0) // f[-1]
    lo = Fraction(-bound) if lo is None else lo
    hi = Fraction(bound) if hi is None else hi
    if n == 0 or lo >= hi:
        return inside, 0
    # x = (shift + scale * y) / den
    width = hi - lo
    den = lo.denominator * width.denominator
    shift, scale = lo.numerator * width.denominator, width.numerator * lo.denominator
    g = _taylor_shift([c * den ** (n - k) for k, c in enumerate(f)], shift)
    # each node is g on a dyadic piece of 0 < y < 1, rescaled onto (0, 1)
    irrational, nodes = 0, [_primitive([c * scale**k for k, c in enumerate(g)])]
    while nodes:
        h = nodes.pop()
        count = _descartes_bound(h)
        if count == 1:
            irrational += 1
        elif count > 1:
            left = [v << (n - k) for k, v in enumerate(h)]
            nodes += [left, _taylor_shift(left, 1)]
    return inside, irrational


def interior_rational_roots(
    p: Polynomial, comp: Interval, error: type[Exception], what: str
) -> list[Fraction]:
    """Sorted rational roots of p strictly inside the interval.

    Raises ``error("<what> inside <comp>")`` when an irrational root lies
    there, since no exact cut can be made at it.
    """
    roots, irrational = _real_roots(p, comp.lo, comp.hi)
    if irrational:
        raise error(f"{what} inside {format_component(comp)}")
    return roots


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
