import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import measurecycles
import measurecycles.polynomials as polynomials

from measurecycles import (
    DeterministicKernel,
    GeneratorKind,
    Interval,
    KernelValidationError,
    Measure,
    PiecewisePolyFunction,
    Point,
    Polynomial,
    SetExpr,
    StochasticKernel,
    integrate,
    load_bundled,
)
from measurecycles.errors import (
    AmbiguousPiece,
    IrrationalBreakpointPreimage,
    IrrationalCriticalPoint,
    MeasureChainError,
    NonAtomicGenerator,
    PointEscapesSpace,
)
from measurecycles.polynomials import _interior_probe, interior_rational_roots, split_interval
from support import (
    conveyor_kernel,
    random_atomic_measure,
    random_stochastic_kernel,
    random_unit_band_function,
)

F = Fraction


def _code(excinfo):
    return excinfo.value.code


# -- construction-time validation ---------------------------------------------


def test_piece_gap_detected():
    space = SetExpr.interval(0, 2, True, False)
    with pytest.raises(KernelValidationError) as e:
        DeterministicKernel(
            space, ((Interval(F(0), F(1), True, False), Polynomial.of(0, 1)),)
        )
    assert _code(e) == "PieceGap"


def test_piece_overlap_detected():
    space = SetExpr.interval(0, 2, True, False)
    with pytest.raises(KernelValidationError) as e:
        DeterministicKernel(
            space,
            (
                (Interval(F(0), F(3, 2), True, False), Polynomial.of(0, 1)),
                (Interval(F(1), F(2), True, False), Polynomial.of(0, 1)),
            ),
        )
    assert _code(e) == "PieceOverlap"


def test_image_outside_space_detected():
    space = SetExpr.interval(0, 2, True, False)
    with pytest.raises(KernelValidationError) as e:
        DeterministicKernel(
            space,
            (
                (Interval(F(0), F(1), True, False), Polynomial.of(2, 1)),  # x + 2
                (Interval(F(1), F(2), True, False), Polynomial.of(0, 1)),
            ),
        )
    assert _code(e) == "ImageOutsideSpace"


def test_attained_boundary_outside_space_detected():
    # x on [0, 1) u (1, 2): x = 1 is never hit, fine; but 2 - x on the same
    # space attains 1 at x = 1... there is no x = 1, so that passes too.
    # The genuine failure: [0, 1] mapping onto [1, 2] when 2 is not in space.
    space = SetExpr.interval(0, 2, True, False)
    with pytest.raises(KernelValidationError) as e:
        DeterministicKernel(
            space,
            (
                (Interval(F(0), F(1), True, True), Polynomial.of(1, 1)),  # x + 1
                (Interval(F(1), F(2)), Polynomial.of(-1, 1)),  # x - 1
            ),
        )
    assert _code(e) == "ImageOutsideSpace"


def test_stochastic_validation_codes():
    with pytest.raises(KernelValidationError) as e:
        StochasticKernel((F(1), F(2)), ((F(1, 2), F(2, 5)), (F(0), F(1))))
    assert _code(e) == "RowNotStochastic"
    with pytest.raises(KernelValidationError) as e:
        StochasticKernel((F(1), F(2)), ((F(3, 2), F(-1, 2)), (F(0), F(1))))
    assert _code(e) == "RowNotStochastic"
    with pytest.raises(KernelValidationError) as e:
        StochasticKernel((F(1), F(1)), ((F(1), F(0)), (F(0), F(1))))
    assert _code(e) == "DuplicateState"
    with pytest.raises(KernelValidationError) as e:
        StochasticKernel((F(1), F(2)), ((F(1), F(0)),))
    assert _code(e) == "MatrixShape"
    with pytest.raises(KernelValidationError) as e:
        StochasticKernel((), ())
    assert _code(e) == "NoStates"


def test_kernel_validation_error_bases():
    from measurecycles import kernels

    assert kernels.KernelValidationError is KernelValidationError
    assert issubclass(KernelValidationError, MeasureChainError)
    assert issubclass(KernelValidationError, ValueError)


def test_pieces_beyond_1e30_in_line_order():
    big = F(10**31)
    left, right = Interval(None, -big), Interval(-big, None, True, False)
    k = DeterministicKernel(
        SetExpr.line(), ((right, Polynomial.of(0, 1)), (left, Polynomial.of(1, 1)))
    )
    assert [comp for comp, _ in k.pieces] == [left, right]
    f = PiecewisePolyFunction.build(SetExpr.line(), k.pieces)
    assert str(f) == f"(-inf,-{big}): 1 + 1*x; [-{big},+inf): 1*x"
    assert k.map_point(-big - 1) == -big
    assert k.map_point(-big) == -big
    assert k.push_measure(Measure.at_minus_infinity()) == Measure.at_minus_infinity()
    assert k.push_measure(Measure.left_germ(-big)) == Measure.left_germ(-big + 1)
    assert k.push_measure(Measure.right_germ(-big)) == Measure.right_germ(-big)


# -- point dynamics -------------------------------------------------------------


def test_map_point_and_escape():
    k = load_bundled("interval_squares").kernel
    assert k.map_point(F(1, 2)) == F(5, 4)
    assert k.map_point(F(5, 4)) == F(1, 16)
    with pytest.raises(PointEscapesSpace):
        k.map_point(F(1))  # 1 is not in the space
    with pytest.raises(PointEscapesSpace):
        k.map_point(F(7))


def test_transition_prob_deterministic():
    k = load_bundled("interval_squares").kernel
    assert k.transition_prob(F(1, 2), SetExpr.interval(1, 2)) == 1
    assert k.transition_prob(F(1, 2), SetExpr.interval(0, 1)) == 0


# -- germ pushforward rules ------------------------------------------------------


def test_bundled_germ_swaps():
    k = load_bundled("interval_squares").kernel
    assert k.push_measure(Measure.right_germ(F(0))) == Measure.right_germ(F(1))
    assert k.push_measure(Measure.right_germ(F(1))) == Measure.right_germ(F(0))
    assert k.push_measure(Measure.left_germ(F(1))) == Measure.left_germ(F(2))
    assert k.push_measure(Measure.left_germ(F(2))) == Measure.left_germ(F(1))


def test_decreasing_piece_flips_germ_side():
    space = SetExpr.interval(0, 1)
    k = DeterministicKernel(space, ((Interval(F(0), F(1)), Polynomial.of(1, -1)),))
    assert k.push_measure(Measure.right_germ(F(0))) == Measure.left_germ(F(1))
    assert k.push_measure(Measure.left_germ(F(1))) == Measure.right_germ(F(0))


def test_constant_piece_collapses_germ_to_atom():
    space = SetExpr.interval(0, 1)
    k = DeterministicKernel(space, ((Interval(F(0), F(1)), Polynomial.constant(F(1, 2))),))
    assert k.push_measure(Measure.right_germ(F(0))) == Measure.dirac(F(1, 2))
    assert k.push_measure(Measure.left_germ(F(1))) == Measure.dirac(F(1, 2))


def test_germ_with_no_covering_piece_rejected():
    k = load_bundled("interval_squares").kernel
    with pytest.raises(AmbiguousPiece):
        k.push_measure(Measure.left_germ(F(0)))


def test_infinity_pushforward():
    line = SetExpr.line()
    absval = DeterministicKernel(
        line,
        (
            (Interval(None, F(0), False, True), Polynomial.of(0, -1)),
            (Interval(F(0), None), Polynomial.of(0, 1)),
        ),
    )
    assert absval.push_measure(Measure.at_minus_infinity()) == Measure.at_plus_infinity()
    assert absval.push_measure(Measure.at_plus_infinity()) == Measure.at_plus_infinity()

    flat_left = DeterministicKernel(
        line,
        (
            (Interval(None, F(0), False, True), Polynomial.constant(F(0))),
            (Interval(F(0), None), Polynomial.of(0, 1)),
        ),
    )
    assert flat_left.push_measure(Measure.at_minus_infinity()) == Measure.dirac(F(0))


def _germ_side_oracle(poly, x, from_right, pushed):
    """Sample the one-sided orbit: values must approach the claimed location
    from the claimed side, and strictly monotonically in the sampled range."""
    (gen, coeff), = pushed.terms
    assert coeff == 1
    deltas = [F(1, 2**k) for k in (10, 14, 18)]
    values = [poly(x + d if from_right else x - d) for d in deltas]
    if gen.kind is GeneratorKind.ATOM:
        assert all(v == gen.location for v in values)
        return
    gaps = [v - gen.location for v in values]
    if gen.kind is GeneratorKind.RIGHT_LIMIT:
        assert all(g > 0 for g in gaps)
    else:
        assert gen.kind is GeneratorKind.LEFT_LIMIT
        assert all(g < 0 for g in gaps)
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])


def test_germ_rule_against_sampling_oracle():
    rng = random.Random(4)
    for _ in range(40):
        k = conveyor_kernel(rng)
        for comp, poly in k.pieces:
            base = comp.lo
            pushed = k.push_measure(Measure.right_germ(base))
            _germ_side_oracle(poly, base, True, pushed)
            top = comp.hi
            pushed = k.push_measure(Measure.left_germ(top))
            _germ_side_oracle(poly, top, False, pushed)


# -- linearity, duality, isometry -------------------------------------------------


def test_push_is_linear():
    k = load_bundled("interval_squares_closed").kernel
    a = Measure.dirac(F(0)) + Measure.right_germ(F(0)) * F(3)
    b = Measure.left_germ(F(2)) * F(1, 2)
    assert k.push_measure(a + b) == k.push_measure(a) + k.push_measure(b)
    assert k.push_measure(a * F(7, 3)) == k.push_measure(a) * F(7, 3)


def _conveyor_measures(rng, k):
    n = len(k.pieces)
    ms = [Measure.dirac(i) for i in range(n)]
    ms += [Measure.right_germ(i) for i in range(n)]
    ms += [Measure.left_germ(i + 1) for i in range(n)]
    ms.append(Measure.dirac(F(1, 3)))
    mix = Measure.zero()
    for m in ms[: 2 * n]:
        mix = mix + m * F(rng.randint(1, 4), rng.randint(1, 4))
    ms.append(mix)
    return ms


def _conveyor_function(rng, k):
    pieces = []
    for comp, _ in k.pieces:
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        pieces.append((comp, Polynomial.of(*coeffs)))
    return PiecewisePolyFunction.build(k.space, pieces)


def test_duality_on_random_conveyors():
    rng = random.Random(11)
    for _ in range(30):
        k = conveyor_kernel(rng)
        f = _conveyor_function(rng, k)
        tf = k.pull_function(f)
        for mu in _conveyor_measures(rng, k):
            assert integrate(tf, mu) == integrate(f, k.push_measure(mu))


def test_duality_on_random_finite_chains():
    rng = random.Random(12)
    for _ in range(30):
        k = random_stochastic_kernel(rng)
        f = PiecewisePolyFunction.build(
            k.space,
            [
                (c, Polynomial.constant(F(rng.randint(-4, 4), rng.randint(1, 3))))
                for c in k.space.components
            ],
        )
        tf = k.pull_function(f)
        for s in k.states:
            mu = Measure.dirac(s)
            assert integrate(tf, mu) == integrate(f, k.push_measure(mu))
        mix = Measure.from_terms(
            (Measure.dirac(s).terms[0][0], F(i + 1, 7)) for i, s in enumerate(k.states)
        )
        assert integrate(tf, mix) == integrate(f, k.push_measure(mix))


def test_pull_function_pointwise_oracle():
    rng = random.Random(13)
    for _ in range(20):
        k = conveyor_kernel(rng)
        f = _conveyor_function(rng, k)
        tf = k.pull_function(f)
        for comp, _ in k.pieces:
            for t in [comp.lo, comp.lo + F(1, 4), comp.lo + F(1, 2), comp.hi - F(1, 5)]:
                assert tf.value_at(t) == f.value_at(k.map_point(t))


def test_pull_rejects_irrational_breakpoint_preimage():
    unit = SetExpr.interval(0, 1, True, True)
    square = DeterministicKernel(unit, ((Interval(F(0), F(1), True, True), Polynomial.of(0, 0, 1)),))
    step = PiecewisePolyFunction.build(
        unit,
        [
            (Interval(F(0), F(1, 2), True, False), Polynomial.constant(0)),
            (Interval(F(1, 2), F(1), True, True), Polynomial.constant(1)),
        ],
    )
    with pytest.raises(IrrationalBreakpointPreimage) as excinfo:
        square.pull_function(step)
    assert str(excinfo.value) == "breakpoint 1/2 has an irrational preimage inside [0,1]"


def pull_over_every_breakpoint(k, f):
    """`pull_function` solved for every breakpoint of f on every piece of k,
    with no image filter, piece for piece."""
    breakpoints = sorted({v for c, _ in f.pieces for v in SetExpr((c,)).finite_boundary_values()})
    pieces = []
    for comp, poly in k.pieces:
        if isinstance(comp, Point):
            pieces.append((comp, Polynomial.constant(f.value_at(poly(comp.value)))))
            continue
        cuts = set()
        for b in breakpoints:
            shifted = poly - Polynomial.constant(b)
            if not shifted.is_zero():
                what = f"breakpoint {b} has an irrational preimage"
                cuts.update(interior_rational_roots(shifted, comp, IrrationalBreakpointPreimage, what))
        points, gaps = split_interval(comp, sorted(cuts))
        pieces += [(pt, Polynomial.constant(f.value_at(poly(pt.value)))) for pt in points]
        for gap in gaps:
            _, fpoly = f.piece("atom", poly(_interior_probe(gap)))
            pieces.append((gap, fpoly.compose(poly)))
    return PiecewisePolyFunction(k.space, tuple(pieces))


def _pulled(pull, k, f):
    """The pulled-back pieces, or the text of the irrational-preimage error."""
    try:
        return pull(k, f).pieces
    except IrrationalBreakpointPreimage as e:
        return str(e)


def _grid_function(rng, space):
    """Random polynomials of degree <= 2 between cuts at multiples of 1/8
    inside the (bounded) intervals of the space."""
    pieces = []
    for comp in space.components:
        inside = [F(j, 8) for j in range(8 * int(comp.lo), 8 * int(comp.hi) + 1) if comp.lo < F(j, 8) < comp.hi]
        points, gaps = split_interval(comp, sorted(rng.sample(inside, rng.randint(0, 3))))
        for piece in points + gaps:
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            pieces.append((piece, Polynomial.of(*coeffs)))
    return PiecewisePolyFunction.build(space, pieces)


def test_pull_matches_composition_over_every_breakpoint():
    rng = random.Random(16)
    unit = SetExpr.interval(0, 1, True, True)
    flip = DeterministicKernel(unit, ((Interval(F(0), F(1), True, True), Polynomial.of(1, -1)),))
    cases = []
    for _ in range(40):
        k = conveyor_kernel(rng)
        cases += [(k, _conveyor_function(rng, k)), (k, _grid_function(rng, k.space))]
    for name in ("interval_squares", "interval_squares_closed"):
        k = load_bundled(name).kernel
        cases += [(k, _grid_function(rng, k.space)) for _ in range(10)]
    cases += [(flip, random_unit_band_function(rng)) for _ in range(10)]
    cases += [(flip, _grid_function(rng, unit)) for _ in range(10)]
    solved = 0
    for k, f in cases:
        got = _pulled(DeterministicKernel.pull_function, k, f)
        assert got == _pulled(pull_over_every_breakpoint, k, f)
        solved += not isinstance(got, str)
    assert solved >= len(cases) // 2


def test_pull_still_rejects_an_irrational_preimage_inside_the_image():
    # x^2 on [0,2) reaches the breakpoint 2 at sqrt(2); the breakpoint 4 is
    # the image's open, unattained end
    space = SetExpr.interval(0, 4, True, True)
    k = DeterministicKernel(
        space,
        (
            (Interval(F(0), F(2), True, False), Polynomial.of(0, 0, 1)),
            (Interval(F(2), F(4), True, True), Polynomial.of(0, F(1, 2))),
        ),
    )
    step = PiecewisePolyFunction.build(
        space,
        [
            (Interval(F(0), F(2), True, False), Polynomial.constant(0)),
            (Interval(F(2), F(4), True, True), Polynomial.constant(1)),
        ],
    )
    text = "breakpoint 2 has an irrational preimage inside [0,2)"
    with pytest.raises(IrrationalBreakpointPreimage) as excinfo:
        k.pull_function(step)
    assert str(excinfo.value) == text
    assert _pulled(pull_over_every_breakpoint, k, step) == text


def test_pull_cuts_nothing_at_an_open_end_of_the_image():
    # both pieces map onto [0,1), whose open end 1 is the breakpoint of f
    space = SetExpr.interval(0, 2, True, False)
    left, right = Interval(F(0), F(1), True, False), Interval(F(1), F(2), True, False)
    k = DeterministicKernel(space, ((left, Polynomial.of(0, 0, 1)), (right, Polynomial.of(-1, 1))))
    f = PiecewisePolyFunction.build(space, [(left, Polynomial.of(0, 1)), (right, Polynomial.of(1, 1))])
    assert not k.image().contains_point(F(1))
    pulled = k.pull_function(f)
    assert str(pulled) == "{0}: 0; (0,1): 1*x^2; {1}: 0; (1,2): -1 + 1*x"
    assert pulled.pieces == pull_over_every_breakpoint(k, f).pieces


def test_isometry_on_positive_cone():
    rng = random.Random(14)
    for _ in range(25):
        k = conveyor_kernel(rng)
        for mu in _conveyor_measures(rng, k):
            assert k.push_measure(mu).norm() == mu.norm()
        ks = random_stochastic_kernel(rng)
        mu = random_atomic_measure(rng, max_atoms=len(ks.states))
        mu = Measure.from_terms(
            (Measure.dirac(s).terms[0][0], c)
            for (g, c), s in zip(mu.terms, ks.states)
        )
        assert ks.push_measure(mu).norm() == mu.norm()


def test_split_commutes_with_push_on_germ_preserving_kernels():
    rng = random.Random(15)
    for _ in range(25):
        k = conveyor_kernel(rng)
        for mu in _conveyor_measures(rng, k):
            ca, pfa = mu.split()
            pushed_ca, pushed_pfa = k.push_measure(mu).split()
            assert pushed_ca == k.push_measure(ca)
            assert pushed_pfa == k.push_measure(pfa)


# -- stochastic kernels -----------------------------------------------------------


def test_stochastic_push_and_pull_by_hand():
    k = StochasticKernel(
        (F(1), F(2)),
        ((F(1, 3), F(2, 3)), (F(1), F(0))),
    )
    pushed = k.push_measure(Measure.dirac(F(1)))
    assert pushed == Measure.dirac(F(1)) * F(1, 3) + Measure.dirac(F(2)) * F(2, 3)
    f = PiecewisePolyFunction.build(
        k.space,
        [(c, Polynomial.constant(v)) for c, v in zip(k.space.components, [F(5), F(8)])],
    )
    tf = k.pull_function(f)
    assert tf.value_at(F(1)) == F(1, 3) * 5 + F(2, 3) * 8
    assert tf.value_at(F(2)) == 5


def test_stochastic_rejects_non_atomic_measures():
    k = load_bundled("three_state_swap").kernel
    with pytest.raises(NonAtomicGenerator):
        k.push_measure(Measure.right_germ(F(1)))


def test_transition_prob_stochastic():
    k = load_bundled("three_state_swap").kernel
    assert k.transition_prob(F(2), SetExpr.point(3)) == 1
    assert k.transition_prob(F(2), SetExpr.point(2)) == 0
    assert k.transition_prob(F(1), SetExpr.interval(0, 5)) == 1


def test_push_requires_states_in_space():
    k = load_bundled("three_state_swap").kernel
    with pytest.raises(MeasureChainError):
        k.push_measure(Measure.dirac(F(17)))


def test_reimport_releases_the_previous_package():
    # typing caches Union objects, so a module-level typing.Union alias would
    # keep every earlier copy of the package alive after a fresh import.
    code = (
        "import gc, sys, weakref\n"
        "import measurecycles\n"
        "old = [weakref.ref(measurecycles.Measure), weakref.ref(measurecycles.Interval)]\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'measurecycles']:\n"
        "    del sys.modules[name]\n"
        "import measurecycles\n"
        "gc.collect()\n"
        "sys.exit(sum(ref() is not None for ref in old))\n"
    )
    src = str(Path(measurecycles.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr


def test_transition_prob_of_a_map_reads_the_mapped_point():
    rng = random.Random(31)
    for _ in range(40):
        k = conveyor_kernel(rng)
        n = len(k.pieces)
        E = SetExpr.from_components(
            [Point(F(rng.randint(0, 2 * n), 2)), Interval(F(1, 3), F(rng.randint(1, 2 * n), 2), True, False)]
        )
        for x in [F(j, 4) for j in range(-2, 4 * n + 3)]:
            if k.space.contains_point(x):
                assert k.transition_prob(x, E) == (1 if E.contains_point(k.map_point(x)) else 0)
            else:
                with pytest.raises(PointEscapesSpace):
                    k.transition_prob(x, E)


def test_stochastic_image_by_hand():
    # 1 -> {2, 3}, 2 -> {1}, 3 -> {3}
    half = F(1, 2)
    k = StochasticKernel(
        (F(1), F(2), F(3)),
        ((F(0), half, half), (F(1), F(0), F(0)), (F(0), F(0), F(1))),
    )

    def pts(*vals):
        return SetExpr.from_components(Point(F(v)) for v in vals)

    assert k.image(pts(1)) == pts(2, 3)
    assert k.image(pts(2, 3)) == pts(1, 3)
    assert k.image(pts(3)) == pts(3)
    assert k.image(SetExpr.interval(0, F(5, 2), True, True)) == pts(1, 2, 3)
    assert k.image(pts(F(3, 2), 7)).is_empty()
    assert k.image(SetExpr.interval(F(3, 2), 2, True, False)).is_empty()


def test_map_image_of_a_sub_interval():
    # the doubling map on [0, 1): x -> 2x on [0, 1/2), x -> 2x - 1 on [1/2, 1)
    space = SetExpr.interval(0, 1, True, False)
    left, right = Interval(F(0), F(1, 2), True, False), Interval(F(1, 2), F(1), True, False)
    k = DeterministicKernel(space, ((left, Polynomial.of(0, 2)), (right, Polynomial.of(-1, 2))))
    assert k.image() == space
    assert k.image(space) == space
    assert k.image(SetExpr.interval(F(1, 4), F(1, 2), True, False)) == SetExpr.interval(F(1, 2), 1, True, False)
    assert k.image(SetExpr.interval(F(1, 2), F(3, 4), False, True)) == SetExpr.interval(0, F(1, 2), False, True)
    assert k.image(SetExpr.interval(F(1, 4), F(3, 4), True, True)) == space
    assert k.image(SetExpr.point(F(3, 4))) == SetExpr.point(F(1, 2))
    assert k.image(SetExpr.interval(2, 3, True, True)).is_empty()
    # x -> x^2 on [0, 1]: the image of [1/2, 1) is [1/4, 1)
    unit = SetExpr.interval(0, 1, True, True)
    sq = DeterministicKernel(unit, ((unit.components[0], Polynomial.of(0, 0, 1)),))
    assert sq.image(SetExpr.interval(F(1, 2), 1, True, False)) == SetExpr.interval(F(1, 4), 1, True, False)


def test_a_piece_with_600_digit_coefficients_has_irrational_critical_points(monkeypatch):
    # the count of Horner evaluations bounds the work without a clock; halving
    # each critical point down to width 1/(2 a^2) would take about 12000
    calls = []
    homogeneous = polynomials._homogeneous
    monkeypatch.setattr(polynomials, "_homogeneous", lambda *a: calls.append(1) or homogeneous(*a))
    rng = random.Random(600)
    coeffs = [rng.randint(-(10**600), 10**600) for _ in range(12)] + [rng.randint(10**599, 10**600)]
    line = Interval(None, None)
    with pytest.raises(IrrationalCriticalPoint, match="has an irrational critical point inside"):
        DeterministicKernel(SetExpr((line,)), ((line, Polynomial.of(*coeffs)),))
    assert len(calls) <= 100
