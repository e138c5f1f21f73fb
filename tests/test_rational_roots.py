"""`rational_roots`, the p-adic rational-root search, cross-checked against
sympy on products of known rational linear factors and random parts."""

import random
from fractions import Fraction

import pytest
import sympy

from measurecycles import Polynomial, polynomials
from measurecycles.polynomials import _real_roots, rational_roots

F = Fraction
X = sympy.Symbol("x")


def _big(rng, digits):
    return rng.randint(-(10**digits), 10**digits)


def _random_rational(rng, digits):
    return F(_big(rng, digits), rng.randint(1, 10**digits))


def _product(rng, degree, digits, count):
    """count rational roots of up to `digits` digits, each of multiplicity 1
    to 3, times a random integer part that brings the degree up to `degree`."""
    p = Polynomial.constant(_random_rational(rng, 3) or 1)
    for _ in range(count):
        r = _random_rational(rng, rng.randint(1, digits))
        for _ in range(rng.choice((1, 1, 2, 3))):
            p = p * Polynomial.of(-r, 1)
    rest = [_big(rng, 3) for _ in range(max(0, degree - p.degree()))]
    return p * Polynomial.of(*rest, rng.randint(1, 99))


def _sympy_rational_roots(p):
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X)
    return sorted({F(int(r.p), int(r.q)) for r in poly.ground_roots()})


def test_rational_roots_match_sympy():
    rng = random.Random(19831)
    degrees, repeated, forty_digits = set(), 0, 0
    for i in range(12):
        if i % 3 == 0:  # degree 64, roots of up to 6 digits
            p = _product(rng, 64, 6, rng.randint(2, 8))
        else:  # degree up to 20, roots of up to 40 digits
            p = _product(rng, rng.randint(8, 20), 40, rng.randint(1, 4))
        roots = rational_roots(p)
        assert roots == _sympy_rational_roots(p)
        degrees.add(p.degree())
        repeated += any(p.derivative()(r) == 0 for r in roots)
        forty_digits += any(len(str(r.denominator)) > 30 for r in roots)
    assert max(degrees) == 64 and repeated >= 5 and forty_digits >= 3


def test_a_root_at_zero():
    x = Polynomial.identity()
    assert rational_roots(x) == [F(0)]
    assert rational_roots(x * x * Polynomial.of(-31, 1)) == [F(0), F(31)]
    p = x * Polynomial.of(-5, 3) * Polynomial.of(-31, 1) * Polynomial.of(-2, 0, 1)
    assert rational_roots(p) == [F(0), F(5, 3), F(31)]


def test_a_linear_polynomial():
    assert rational_roots(Polynomial.of(-5, 3)) == [F(5, 3)]
    assert rational_roots(Polynomial.of(F(4, 9), F(7, 2))) == [F(-8, 63)]
    assert rational_roots(Polynomial.of(31, 1)) == [F(-31)]
    big = F(10**40 + 7, 3 * 10**40 + 1)
    assert rational_roots(Polynomial.of(-big, 1)) == [big]


def test_roots_that_agree_mod_2_3_and_5():
    # 1 and 31 meet mod 2, 3 and 5, so the least prime with simple roots is 7
    p = Polynomial.of(-1, 1) * Polynomial.of(-31, 1)
    assert rational_roots(p) == [F(1), F(31)]
    assert rational_roots(p * Polynomial.of(0, 0, 1)) == [F(0), F(1), F(31)]


def test_a_leading_coefficient_with_every_prime_up_to_13():
    p = Polynomial.constant(1)
    for q in (2, 3, 5, 7, 11, 13):
        p = p * Polynomial.of(-1, q)
    assert p.leading() == 2 * 3 * 5 * 7 * 11 * 13
    assert rational_roots(p) == [F(1, q) for q in (13, 11, 7, 5, 3, 2)]
    assert rational_roots(p * Polynomial.of(-3, 0, 1)) == [F(1, q) for q in (13, 11, 7, 5, 3, 2)]


def test_no_rational_root_and_constants():
    assert rational_roots(Polynomial.of(-2, 0, 1)) == []
    assert rational_roots(Polynomial.of(1, 0, 1)) == []
    assert rational_roots(Polynomial.constant(F(5, 3))) == []
    with pytest.raises(ValueError):
        rational_roots(Polynomial.of())


def test_constants_and_linear_polynomials_match_sympy(monkeypatch):
    # a constant or linear f is answered before the prime search, which
    # evaluates f mod q
    searched = []
    value_mod = polynomials._value_mod
    monkeypatch.setattr(polynomials, "_value_mod", lambda *a: searched.append(1) or value_mod(*a))
    rng = random.Random(2026)
    x = Polynomial.identity()
    polys = [Polynomial.constant(_random_rational(rng, 40) or 1) for _ in range(20)]
    for _ in range(60):
        a, b = _random_rational(rng, rng.randint(1, 40)), _random_rational(rng, rng.randint(1, 40)) or F(1)
        polys += [Polynomial.of(a, b), Polynomial.of(a, -abs(b)), Polynomial.of(0, b)]
    polys += [x, -x, Polynomial.of(0, F(-10**40, 7)), Polynomial.of(F(10**39, 3), -1)]
    for p in polys:
        assert rational_roots(p) == _sympy_rational_roots(p), p
    assert sum(p.degree() == 1 and p.leading() < 0 for p in polys) >= 60
    assert sum(p.degree() == 1 and p(F(0)) == 0 for p in polys) >= 60
    assert not searched
    # with a root 0 divided out, what is left is a constant or linear
    assert rational_roots(x * Polynomial.of(F(-7, 3), F(10**40 + 1, 9))) == [F(0), F(21, 10**40 + 1)]
    assert not searched


def test_real_roots_of_a_constant():
    for c in (F(1), F(-5, 3), F(10**40 + 1, 7)):
        for lo, hi in ((None, None), (F(0), F(1)), (None, F(-2)), (F(3, 2), None)):
            assert _real_roots(Polynomial.constant(c), lo, hi) == ([], 0)
