from fractions import Fraction

import pytest

from measurecycles import (
    Interval,
    KernelValidationError,
    Measure,
    PiecewisePolyFunction,
    Point,
    Polynomial,
    SetExpr,
    integrate,
)
from measurecycles.errors import NonConstantTail, PointEscapesSpace, RangeViolation

F = Fraction


def two_piece():
    space = SetExpr.interval(0, 1, True, False) | SetExpr.interval(1, 2, True, True)
    return PiecewisePolyFunction.build(
        space,
        [
            (Interval(F(0), F(1), True, False), Polynomial.of(0, 1)),  # x on [0,1)
            (Interval(F(1), F(2), True, True), Polynomial.of(2, -1)),  # 2-x on [1,2]
        ],
    )


def test_build_rejects_gap_and_overlap():
    space = SetExpr.interval(0, 2, True, True)
    with pytest.raises(KernelValidationError) as e:
        PiecewisePolyFunction.build(
            space, [(Interval(F(0), F(1), True, False), Polynomial.constant(0))]
        )
    assert e.value.code == "PieceGap"
    with pytest.raises(KernelValidationError) as e:
        PiecewisePolyFunction.build(
            space,
            [
                (Interval(F(0), F(2), True, True), Polynomial.constant(0)),
                (Interval(F(1), F(2), True, False), Polynomial.constant(1)),
            ],
        )
    assert e.value.code == "PieceOverlap"
    assert str(e.value) == "pieces overlap at [1,2)"


def test_values_and_one_sided_limits():
    f = two_piece()
    assert f.value_at(F(1, 2)) == F(1, 2)
    assert f.value_at(F(1)) == 1
    assert f.value_at(F(2)) == 0
    # at the breakpoint the two one-sided limits agree here
    assert f.left_limit_at(F(1)) == 1
    assert f.right_limit_at(F(1)) == 1
    assert f.right_limit_at(F(0)) == 0
    with pytest.raises(PointEscapesSpace):
        f.value_at(F(3))
    with pytest.raises(PointEscapesSpace):
        f.right_limit_at(F(2))


def test_integrate_atoms_germs_and_mixtures():
    f = two_piece()
    mu = Measure.dirac(F(1, 2)) * F(2) + Measure.right_germ(F(0)) * F(3)
    assert integrate(f, mu) == 2 * F(1, 2) + 3 * F(0)
    nu = Measure.left_germ(F(2))
    assert integrate(f, nu) == 0
    assert integrate(f, Measure.left_germ(F(1))) == 1
    assert integrate(f, Measure.right_germ(F(1))) == 1


def test_integrate_is_linear():
    f = two_piece()
    a = Measure.dirac(F(1, 4)) + Measure.left_germ(F(1))
    b = Measure.dirac(F(3, 2)) * F(5)
    assert integrate(f, a + b) == integrate(f, a) + integrate(f, b)
    assert integrate(f, a * F(7)) == 7 * integrate(f, a)


def test_infinity_generators_need_constant_tails():
    space = SetExpr.interval(0, None, True, False)
    const = PiecewisePolyFunction.build(
        space, [(Interval(F(0), None, True, False), Polynomial.constant(F(5)))]
    )
    assert integrate(const, Measure.at_plus_infinity()) == 5
    ident = PiecewisePolyFunction.build(
        space, [(Interval(F(0), None, True, False), Polynomial.of(0, 1))]
    )
    with pytest.raises(NonConstantTail):
        integrate(ident, Measure.at_plus_infinity())


def test_check_range_exact():
    f = two_piece()
    f.check_range(0, 1)  # max value 1 attained at x = 1: still within [0, 1]
    with pytest.raises(RangeViolation):
        f.check_range(0, F(99, 100))
    with pytest.raises(RangeViolation):
        f.check_range(F(1, 100), 1)  # 0 attained at x = 0 and x = 2


def test_check_range_open_endpoint_not_attained():
    # x on (0, 1): infimum 0 never attained, so [1/100, 1] still fails but
    # the full open band (0, 1] passes once 0 is excluded from the range check
    space = SetExpr.interval(0, 1)
    f = PiecewisePolyFunction.build(
        space, [(Interval(F(0), F(1)), Polynomial.of(0, 1))]
    )
    f.check_range(0, 1)
    with pytest.raises(RangeViolation):
        f.check_range(F(1, 100), 1)


def test_point_pieces():
    space = SetExpr.point(0) | SetExpr.point(1)
    f = PiecewisePolyFunction.build(
        space,
        [(Point(F(0)), Polynomial.constant(2)), (Point(F(1)), Polynomial.constant(3))],
    )
    assert f.value_at(F(0)) == 2
    assert f.value_at(F(1)) == 3
    assert integrate(f, Measure.dirac(F(0)) + Measure.dirac(F(1))) == 5


def test_image_union():
    f = two_piece()
    assert f.image() == SetExpr.interval(0, 1, True, True)
