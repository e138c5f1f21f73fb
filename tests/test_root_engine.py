"""The integer root engine `_real_roots`, its square-free step and
`interior_rational_roots`, cross-checked against sympy's real-root
isolation on random polynomials with coefficients of up to 40 digits."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy

from measurecycles import Interval, Polynomial
from measurecycles.errors import IrrationalCriticalPoint
from measurecycles.polynomials import (
    _integer_polynomial,
    _real_roots,
    _square_free,
    interior_rational_roots,
)

F = Fraction
X = sympy.Symbol("x")


def _big(rng, digits):
    return rng.randint(-(10**digits), 10**digits)


def _random_rational(rng, digits):
    return F(_big(rng, digits), rng.randint(1, 10**digits))


def _random_polynomial(rng, kind):
    """Degree <= 8, cleared integer coefficients of up to about 40 digits."""
    if kind == 0:  # dense, rational coefficients
        digits = rng.randint(1, 20)
        return Polynomial.of(*(_random_rational(rng, digits) for _ in range(rng.randint(2, 9))))
    if kind == 1:  # dense, integer coefficients of up to 40 digits
        return Polynomial.of(*(_big(rng, rng.randint(1, 40)) for _ in range(rng.randint(2, 9))))
    if kind == 2:  # a product of rational linear factors, with a real or complex rest
        p = Polynomial.constant(_random_rational(rng, 3) or 1)
        for _ in range(rng.randint(1, 5)):
            p = p * Polynomial.of(-_random_rational(rng, rng.randint(1, 6)), 1)
        return p * Polynomial.of(*(_big(rng, 2) for _ in range(rng.randint(1, 3))))
    # a repeated rational root, times x^2 - k and a random quadratic
    r = _random_rational(rng, 5)
    square = Polynomial.of(-r, 1) * Polynomial.of(-r, 1)
    return square * Polynomial.of(-rng.randint(2, 50), 0, 1) * Polynomial.of(*(_big(rng, 3) for _ in range(3)))


def _random_end(rng, roots):
    u = rng.random()
    if u < 0.25:
        return None
    if u < 0.5 and roots:
        return rng.choice(roots)  # an end that is itself a root
    return _random_rational(rng, rng.randint(1, 4))


def _sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X)


def _inside(r, lo, hi):
    return (lo is None or r > lo) and (hi is None or r < hi)


def test_roots_match_sympy():
    rng = random.Random(20201208)
    irrational_seen = rational_seen = 0
    for i in range(100):
        p = _random_polynomial(rng, i % 4)
        poly = _sympy_poly(p)
        rational = sorted(F(int(r.p), int(r.q)) for r in set(poly.real_roots()) if r.is_Rational)
        lo, hi = _random_end(rng, rational), _random_end(rng, rational)
        if lo is not None and hi is not None and lo >= hi:
            lo, hi = hi, lo + (lo == hi)
        # count_roots counts distinct roots in [lo, hi]; the rational ends are
        # never irrational roots
        ends = [None if e is None else sympy.Rational(e.numerator, e.denominator) for e in (lo, hi)]
        on_closed = [r for r in rational if r in (lo, hi) or _inside(r, lo, hi)]
        irrational = int(poly.count_roots(*ends)) - len(on_closed)
        inside = [r for r in rational if _inside(r, lo, hi)]
        assert _real_roots(p, None, None)[0] == rational
        assert _real_roots(p, lo, hi)[1] == irrational
        comp = Interval(lo, hi)
        if irrational:
            with pytest.raises(IrrationalCriticalPoint, match="^p inside "):
                interior_rational_roots(p, comp, IrrationalCriticalPoint, "p")
        else:
            assert interior_rational_roots(p, comp, IrrationalCriticalPoint, "p") == inside
        irrational_seen += irrational > 0
        rational_seen += bool(inside)
    assert irrational_seen > 20 and rational_seen > 20


def test_square_free_part_matches_sympy():
    rng = random.Random(7)
    for i in range(40):
        p = _random_polynomial(rng, 3 if i % 2 else 2)
        p = p * Polynomial.of(*(_big(rng, 2) or 1 for _ in range(2)))
        f = _square_free(_integer_polynomial(p))
        assert f[-1] > 0 and gcd(*f) == 1
        # rescaled to p's leading coefficient
        sf = Polynomial.of(*f) * Polynomial.constant(p.leading() / f[-1])
        assert sf.leading() == p.leading()
        assert _sympy_poly(sf).monic() == _sympy_poly(p).sqf_part().monic()


def test_roots_at_both_ends_of_the_interval():
    # x (x - 1) (x - 1/2) (x^2 - 2): the ends 0 and 1 are roots, and 1/2 is
    # the first bisection midpoint
    p = Polynomial.of(0, 1) * Polynomial.of(-1, 1) * Polynomial.of(F(-1, 2), 1) * Polynomial.of(-2, 0, 1)
    assert interior_rational_roots(p, Interval(F(0), F(1)), IrrationalCriticalPoint, "p") == [F(1, 2)]
    assert _real_roots(p, F(0), F(1))[1] == 0
    assert _real_roots(p, F(1), None)[1] == 1
    assert _real_roots(p, None, F(0))[1] == 1
    # one root next to an end that is a root: the sign at that end is 0, and
    # the sign just inside it is positive for q and negative for -q
    q = Polynomial.of(-1, 1) * Polynomial.of(F(-7, 5), 1) * Polynomial.of(-3, 1)
    for s in (q, -q, q * Polynomial.of(-2, 1)):
        assert interior_rational_roots(s, Interval(F(1), F(2)), IrrationalCriticalPoint, "q") == [F(7, 5)]
    r = Polynomial.of(-1, 1) * Polynomial.of(-2, 0, 1)
    assert _real_roots(r, F(1), F(3, 2))[1] == 1
    # x (x^2 - 2000 x + 1): an irrational root 1000 - sqrt(999999), about
    # 1/2000, next to the rational root 0 at the end
    s = Polynomial.of(0, 1, -2000, 1)
    assert _real_roots(s, F(0), F(1))[1] == 1
    assert _real_roots(s, None, None)[0] == [F(0)]
    assert _real_roots(r, F(-2), F(1))[1] == 1


def test_unbounded_ends():
    p = Polynomial.of(-3, 0, 1) * Polynomial.of(F(5, 3), 1)  # -sqrt(3) < -5/3 < sqrt(3)
    assert _real_roots(p, None, None)[1] == 2
    assert _real_roots(p, None, F(-1))[1] == 1
    assert _real_roots(p, F(-17, 10), None)[1] == 1
    assert _real_roots(p, None, F(-(10**50)))[1] == 0
    assert _real_roots(p, F(10**50), None)[1] == 0
    comp = Interval(F(-17, 10), F(1))
    assert interior_rational_roots(p, comp, IrrationalCriticalPoint, "p") == [F(-5, 3)]
    assert _real_roots(p, None, None)[0] == [F(-5, 3)]


def test_forty_digit_degree_eight_finishes_fast():
    rng = random.Random(40)
    slowest = 0.0
    for _ in range(20):
        coeffs = [_big(rng, 40) for _ in range(8)] + [rng.choice((-1, 1)) * rng.randint(10**39, 10**40)]
        p = Polynomial.of(*coeffs)
        for call in (lambda: _real_roots(p, None, None), lambda: _real_roots(p, F(-1, 3), F(10**12, 7))):
            start = time.perf_counter()
            call()
            slowest = max(slowest, time.perf_counter() - start)
    assert slowest < 0.1
