from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from measurecycles import Interval, Point, Polynomial, SetExpr
from measurecycles.errors import IrrationalCriticalPoint
from measurecycles.polynomials import (
    _first_nonzero_derivative,
    _integer_polynomial,
    _real_roots,
    _square_free,
    polynomial_image,
)

F = Fraction

coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
polys = st.lists(coeff, min_size=1, max_size=4).map(lambda cs: Polynomial.of(*cs))
points = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


@given(polys, polys, points)
def test_ring_operations_evaluate_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert p.compose(q)(x) == p(q(x))


@given(polys, points)
def test_derivative_of_product(p, x):
    q = Polynomial.of(1, 2)  # 1 + 2x
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs(x) == rhs(x)


def test_rational_roots_of_constructed_product():
    roots = [F(1, 2), F(-3), F(0), F(2)]
    p = Polynomial.constant(1)
    for r in roots:
        p = p * Polynomial.of(-r, 1)
    p = p * Polynomial.of(1, 0, 1)  # x^2 + 1 contributes nothing real
    assert _real_roots(p, None, None)[0] == sorted(roots)


@given(polys)
def test_rational_roots_actually_vanish(p):
    if p.is_zero():
        return
    for r in _real_roots(p, None, None)[0]:
        assert p(r) == 0


def test_square_free_part_drops_multiplicity():
    p = Polynomial.of(-1, 1) * Polynomial.of(-1, 1) * Polynomial.of(2, 1)
    sf = Polynomial.of(*_square_free(_integer_polynomial(p)))
    assert sf(F(1)) == 0 and sf(F(-2)) == 0
    assert _real_roots(sf, None, None)[0] == [F(-2), F(1)]
    # no repeated roots left: derivative shares no root
    for r in _real_roots(sf, None, None)[0]:
        assert sf.derivative()(r) != 0


def test_irrational_root_count_sturm():
    p = Polynomial.of(-2, 0, 1)  # x^2 - 2
    assert _real_roots(p, F(0), F(2))[1] == 1
    assert _real_roots(p, F(3, 2), F(2))[1] == 0
    assert _real_roots(p, None, None)[1] == 2
    q = Polynomial.of(-4, 0, 1)  # x^2 - 4: rational roots only
    assert _real_roots(q, None, None)[1] == 0
    # mixed: (x^2 - 2)(x - 1) has one rational and two irrational roots
    r = p * Polynomial.of(-1, 1)
    assert _real_roots(r, F(0), F(3))[1] == 1
    assert _real_roots(r, F(-2), F(3))[1] == 2


def test_image_of_monotone_piece():
    p = Polynomial.of(1, 0, 1)  # 1 + x^2 on (0, 1)
    img = SetExpr.from_components(polynomial_image(p, Interval(F(0), F(1))))
    assert img == SetExpr.interval(1, 2)


def test_image_subdivides_at_interior_critical_point():
    p = Polynomial.of(0, 0, 1)  # x^2 on (-1, 2)
    img = SetExpr.from_components(polynomial_image(p, Interval(F(-1), F(2))))
    assert img == SetExpr.interval(0, 4, True, False)


def test_image_attains_closed_endpoints():
    p = Polynomial.of(0, 0, 1)
    img = SetExpr.from_components(polynomial_image(p, Interval(F(0), F(2), True, False)))
    assert img == SetExpr.interval(0, 4, True, False)
    img = SetExpr.from_components(polynomial_image(p, Interval(F(0), F(2), False, True)))
    assert img == SetExpr.interval(0, 4, False, True)


def test_image_of_point_and_constant():
    assert polynomial_image(Polynomial.of(3), Interval(F(0), F(1))) == [Point(F(3))]
    assert polynomial_image(Polynomial.of(1, 1), Point(F(2))) == [Point(F(3))]


def test_image_of_unbounded_interval():
    p = Polynomial.of(0, 0, 1)  # x^2 on [0, +inf)
    img = SetExpr.from_components(polynomial_image(p, Interval(F(0), None, True, False)))
    assert img == SetExpr.interval(0, None, True, False)
    img = SetExpr.from_components(polynomial_image(p, Interval(None, None)))
    assert img == SetExpr.interval(0, None, True, False)


def test_image_rejects_irrational_critical_point():
    # derivative 3x^2 - 2 vanishes at irrational points inside (-2, 2)
    p = Polynomial.of(0, -2, 0, 1)
    with pytest.raises(IrrationalCriticalPoint):
        polynomial_image(p, Interval(F(-2), F(2)))


@given(polys, points, points)
def test_image_contains_every_sample_value(p, a, b):
    if a == b:
        return
    lo, hi = sorted([a, b])
    try:
        img = SetExpr.from_components(polynomial_image(p, Interval(lo, hi, True, True)))
    except IrrationalCriticalPoint:
        return
    for t in [lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3]:
        assert img.contains_point(p(t))


def fraction_horner(p: Polynomial, x) -> Fraction:
    """Evaluation with one Fraction operation per coefficient."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


big = st.integers(-(10**40), 10**40)
big_coeff = st.one_of(big, st.builds(F, big, st.integers(1, 10**40)))
big_polys = st.lists(big_coeff, max_size=9).map(lambda cs: Polynomial.of(*cs))
eval_points = st.one_of(st.integers(-(10**6), 10**6), st.builds(F, big, st.integers(1, 10**12)))


@given(big_polys, eval_points)
@example(Polynomial(()), 3)
@example(Polynomial(()), F(1, 3))
@example(Polynomial.of(F(7, 3)), 0)
@example(Polynomial.of(0, 0, 0, 0, 0, 0, 0, 0, F(1, 10**40)), F(-(10**40), 3))
def test_integer_evaluation_matches_fraction_horner(p, x):
    got = p(x)
    assert type(got) is Fraction
    assert got == fraction_horner(p, x)


@given(polys, points)
def test_first_nonzero_derivative_is_the_lowest_nonzero_one(p, x):
    if p.is_constant():
        with pytest.raises(ValueError):
            _first_nonzero_derivative(p, x)
        return
    k, v = _first_nonzero_derivative(p, x)
    d = p
    for j in range(1, k + 1):
        d = d.derivative()
        assert (d(x) == 0) == (j < k)
    assert v == d(x)


def test_first_nonzero_derivative_of_a_constant_raises():
    for p in [Polynomial.constant(5), Polynomial(())]:
        with pytest.raises(ValueError, match="no nonzero derivative"):
            _first_nonzero_derivative(p, F(1, 2))
    # (x - 1)^3: the first two derivatives vanish at 1
    assert _first_nonzero_derivative(Polynomial.of(-1, 3, -3, 1), F(1)) == (3, F(6))
