import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest
import sympy

from measurecycles import (
    Cycle,
    CycleKind,
    DeterministicKernel,
    Interval,
    Measure,
    Polynomial,
    SetExpr,
    StochasticKernel,
    canonical_rotation,
    canonical_seeds,
    classify_cycle,
    cycle_equal,
    cycle_sum,
    decompose_cycle,
    enumerate_cycles,
    find_cycle_from,
    find_cyclic_classes,
    linearly_independent,
    load_bundled,
    measure_rank,
    verify_cycle,
)
from measurecycles import polynomials
from measurecycles.cycles import _least_rotation, _rotations, _serial_key
from measurecycles.errors import NotACycle, PeriodMismatch
from support import (
    conveyor_kernel,
    conveyor_mixed_cycle,
    random_periodic_block_chain,
    random_stochastic_kernel,
)

F = Fraction


def swap_kernel():
    return load_bundled("three_state_swap").kernel


def closed_kernel():
    return load_bundled("interval_squares_closed").kernel


# -- verification ------------------------------------------------------------


def test_verify_accepts_declared_cycles():
    spec = load_bundled("three_state_swap")
    for coords in spec.declared_cycles:
        assert verify_cycle(spec.kernel, coords)


def test_verify_rejects_non_cycles():
    k = swap_kernel()
    assert not verify_cycle(k, [])
    assert not verify_cycle(k, [Measure.dirac(F(2))])  # moves to 3
    assert not verify_cycle(k, [Measure.dirac(F(2)), Measure.dirac(F(2))])  # repeat
    assert not verify_cycle(k, [Measure.dirac(F(1)) * F(-1)])  # negative
    assert not verify_cycle(k, [Measure.zero()])
    # wrong order: A sends coordinate i to i+1, not i-1
    assert verify_cycle(k, [Measure.dirac(F(2)), Measure.dirac(F(3))])


def test_cycle_constructor_raises_not_a_cycle():
    with pytest.raises(NotACycle):
        Cycle(swap_kernel(), (Measure.dirac(F(2)),))


def test_scale_and_normalize():
    k = swap_kernel()
    c = Cycle(k, (Measure.dirac(F(2)), Measure.dirac(F(3))))
    doubled = c.scale(F(2))
    assert doubled.coords[0] == Measure.dirac(F(2)) * 2
    assert doubled.normalize().coords == c.coords
    with pytest.raises(ValueError):
        c.scale(F(-1))


def test_mean_measure_is_push_invariant():
    k = swap_kernel()
    c = Cycle(k, (Measure.dirac(F(2)), Measure.dirac(F(3))))
    mean = c.mean_measure()
    assert mean == Measure.dirac(F(2)) * F(1, 2) + Measure.dirac(F(3)) * F(1, 2)
    assert k.push_measure(mean) == mean


# -- rotation equality ----------------------------------------------------------


def test_cycle_equality_up_to_rotation_only():
    k = swap_kernel()
    a = Cycle(k, (Measure.dirac(F(2)), Measure.dirac(F(3))))
    b = Cycle(k, (Measure.dirac(F(3)), Measure.dirac(F(2))))
    assert cycle_equal(a, b)
    assert canonical_rotation(a).coords == canonical_rotation(b).coords
    c = Cycle(k, (Measure.dirac(F(1)),))
    assert not cycle_equal(a, c)
    scaled = a.scale(F(2))
    assert not cycle_equal(a, scaled)  # same rays, different measures


# -- search and enumeration -------------------------------------------------------


def test_find_cycle_from_seed():
    k = swap_kernel()
    c = find_cycle_from(k, Measure.dirac(F(3)), 10)
    assert c is not None and c.period == 2
    assert find_cycle_from(k, Measure.dirac(F(1)), 10).period == 1
    # a seed that never returns exactly: mix over both classes decays nowhere,
    # but any probability mixture of the two class invariants is itself fixed
    fixed = Measure.dirac(F(1)) * F(1, 2) + (
        Measure.dirac(F(2)) + Measure.dirac(F(3))
    ) * F(1, 4)
    assert find_cycle_from(k, fixed, 10).period == 1


def test_enumerate_bundled_examples():
    swap_cycles = enumerate_cycles(swap_kernel(), 6)
    assert [c.period for c in swap_cycles] == [1, 2]
    closed = enumerate_cycles(closed_kernel(), 6)
    assert len(closed) == 3
    kinds = [c.classify() for c in closed]
    assert kinds.count(CycleKind.COUNTABLY_ADDITIVE) == 1
    assert kinds.count(CycleKind.PURELY_FINITELY_ADDITIVE) == 2
    open_chain = enumerate_cycles(load_bundled("interval_squares").kernel, 6)
    assert len(open_chain) == 2
    assert all(c.classify() is CycleKind.PURELY_FINITELY_ADDITIVE for c in open_chain)


def test_enumeration_respects_max_period():
    assert [c.period for c in enumerate_cycles(swap_kernel(), 1)] == [1]


def test_enumeration_is_deterministic():
    a = enumerate_cycles(closed_kernel(), 6)
    b = enumerate_cycles(closed_kernel(), 6)
    assert [c.coords for c in a] == [c.coords for c in b]


def test_transient_feed_gives_only_the_class_cycle():
    # the 4-cycle 1 -> 2 -> 3 -> 4 -> 1, and state 5 sending 1/2 to 1 and 1/2 to 2
    rows = [[F(0)] * 5 for _ in range(5)]
    for i in range(4):
        rows[i][(i + 1) % 4] = F(1)
    rows[4][0] = rows[4][1] = F(1, 2)
    k = StochasticKernel(tuple(F(s) for s in range(1, 6)), tuple(map(tuple, rows)))
    atoms = tuple(Measure.dirac(F(s)) for s in range(1, 5))
    found = enumerate_cycles(k, 5)
    assert [c.coords for c in found] == [atoms]
    assert measure_rank(found[0].coords) == 4
    assert canonical_seeds(k) == [Measure.dirac(F(s)) for s in range(1, 6)] + list(atoms)
    # the mixture the atom at 5 closes into is a real cycle of rank 3, left unlisted
    mixture = tuple((atoms[i] + atoms[(i + 1) % 4]) * F(1, 2) for i in range(4))
    assert verify_cycle(k, mixture)
    assert measure_rank(mixture) == 3
    assert find_cycle_from(k, Measure.dirac(F(5)), 28).coords == mixture
    # the search returns its cycle in canonical rotation, whatever the seed
    assert find_cycle_from(k, Measure.dirac(F(3)), 28).coords == atoms


def test_class_cycles_span_every_closed_atom_seed():
    rng = random.Random(606)
    kernels = [random_stochastic_kernel(rng, 4) for _ in range(150)]
    kernels += [random_periodic_block_chain(rng)[0] for _ in range(30)]
    for k in kernels:
        n = len(k.states)
        found = enumerate_cycles(k, n)
        classes = find_cyclic_classes(k)
        supports = [{x for m in c.coords for x in m.atom_support()} for c in found]
        assert sorted(map(sorted, supports)) == sorted(list(info.states) for info in classes)
        basis = [m for c in found for m in c.coords]
        rank = measure_rank(basis)
        assert rank == len(basis)
        for s in k.states:
            closed = find_cycle_from(k, Measure.dirac(s), 4 * n + 8)
            if closed is not None:
                assert measure_rank(basis + list(closed.coords)) == rank
        bound = rng.randint(1, n)
        periods = sorted(info.period for info in classes if info.period <= bound)
        assert sorted(c.period for c in enumerate_cycles(k, bound)) == periods


def untabled_cycles(kernel, max_period):
    """The boundary-seed search: one `find_cycle_from` of 4m+8 pushes per
    seed of `canonical_seeds`, deduplicated on the serial key."""
    found = {}
    for seed in canonical_seeds(kernel):
        cycle = find_cycle_from(kernel, seed, 4 * max_period + 8)
        if cycle is not None and cycle.period <= max_period:
            found.setdefault(_serial_key(cycle.coords), cycle)
    return [found[key] for key in sorted(found, key=lambda k: (len(k), k))]


def reflection_kernel():
    """x -> 1 - x on [0, 1]."""
    unit = Interval(F(0), F(1), True, True)
    return DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, -1)),))


def test_shared_image_table_finds_the_untabled_cycles():
    rng = random.Random(808)
    # at most one quadratic piece: a left germ that passes a quadratic piece
    # doubles its location's bit length, over a budget of 4m+8 pushes
    conveyors = [conveyor_kernel(rng, 5) for _ in range(40)]
    conveyors = [k for k in conveyors if sum(p.degree() == 2 for _, p in k.pieces) <= 1]
    assert len(conveyors) >= 10
    bundled = [load_bundled(name).kernel for name in ["interval_squares", "interval_squares_closed"]]
    for k in conveyors + bundled + [reflection_kernel()]:
        for m in sorted({1, 2, len(k.pieces)}):
            got = {c.coords for c in enumerate_cycles(k, m)}
            assert {c.coords for c in untabled_cycles(k, m)} <= got
    half = F(1, 2)
    assert [c.coords for c in enumerate_cycles(reflection_kernel(), 6)] == [
        (Measure.dirac(half),),
        (Measure.dirac(F(0)), Measure.dirac(F(1))),
        (Measure.left_germ(F(1)), Measure.right_germ(F(0))),
        (Measure.left_germ(half), Measure.right_germ(half)),
    ]


def test_reflection_lists_its_fixed_atom_and_the_ends_of_its_continuum_cell():
    # the walk of length 2 composes to the identity: every x lies on a 2-cycle,
    # and only the orbits at the piece ends 0 and 1 are listed
    k = reflection_kernel()
    assert [c.coords for c in enumerate_cycles(k, 1)] == [(Measure.dirac(F(1, 2)),)]
    assert [c.period for c in enumerate_cycles(k, 2)] == [1, 2, 2, 2]


def parabola_kernel():
    """x -> 1 - x^2/2 on [0, 1]: its fixed point sqrt(3) - 1 is irrational."""
    unit = Interval(F(0), F(1), True, True)
    return DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, 0, F(-1, 2))),))


def test_a_map_without_rational_periodic_points_returns_at_once():
    # the boundary-seed search pushed the atom 0 through 1, 1/2, 7/8, ...,
    # doubling the bit length of the location at every push
    start = time.process_time()
    assert enumerate_cycles(parabola_kernel(), 4) == []
    assert time.process_time() - start < 2


def test_six_piece_conveyor_lists_its_base_cycles():
    # in the seed search, left germs drifted inside the pieces, and every
    # quadratic push doubled the bit length of their locations
    polys = [
        Polynomial.of(1, F(1, 3)),
        Polynomial.of(F(9, 4), F(-1, 2), F(1, 4)),
        Polynomial.of(4, -1, F(1, 4)),
        Polynomial.of(F(13, 4), F(1, 4)),
        Polynomial.of(21, -8, 1),
        Polynomial.of(25, -10, 1),
    ]
    pieces = tuple((Interval(F(i), F(i + 1), True, False), p) for i, p in enumerate(polys))
    k = DeterministicKernel(SetExpr.interval(0, 6, True, False), pieces)
    start = time.process_time()
    found = enumerate_cycles(k, 6)
    assert time.process_time() - start < 2
    assert [c.coords for c in found] == [
        tuple(Measure.dirac(F(i)) for i in range(6)),
        tuple(Measure.right_germ(F(i)) for i in range(6)),
    ]


def test_the_line_and_a_ray_list_their_masses_at_infinity():
    # x -> -x on the line has no piece boundary at all; x -> x + 1 only drifts
    line = Interval(None, None)
    k = DeterministicKernel(SetExpr((line,)), ((line, Polynomial.of(0, -1)),))
    assert [c.coords for c in enumerate_cycles(k, 2)] == [
        (Measure.dirac(F(0)),),
        (Measure.left_germ(F(0)), Measure.right_germ(F(0))),
        (Measure.at_minus_infinity(), Measure.at_plus_infinity()),
    ]
    ray = Interval(F(0), None, True)
    k = DeterministicKernel(SetExpr((ray,)), ((ray, Polynomial.of(1, 1)),))
    assert [c.coords for c in enumerate_cycles(k, 3)] == [(Measure.at_plus_infinity(),)]


X = sympy.Symbol("x")


def random_unit_map(rng):
    """A map of [0, 1] with one to three pieces.  Each piece runs monotonically
    onto [a, b], a < b on the grid of eighths, mostly downwards; it is affine
    or a parabola whose vertex is the piece's left end."""
    cuts = sorted(rng.sample([F(k, 6) for k in range(1, 6)], rng.randint(0, 2)))
    ends = [F(0), *cuts, F(1)]
    pieces = []
    for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
        a, b = sorted(rng.sample([F(k, 8) for k in range(9)], 2))
        start, stop = (b, a) if rng.random() < 0.7 else (a, b)
        t = Polynomial.of(-lo / (hi - lo), 1 / (hi - lo))
        shape = t if rng.random() < 0.6 else t * t
        poly = Polynomial.constant(start) + shape * (stop - start)
        pieces.append((Interval(lo, hi, True, j == len(ends) - 2), poly))
    return DeterministicKernel(SetExpr.interval(0, 1, True, True), tuple(pieces))


def sympy_atom_cycles(kernel, m):
    """Rational periodic points of period <= m, by sympy over every sequence of
    pieces, each orbit as its locations from the least; None when a sequence
    composes to the identity."""
    polys = [
        sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X)
        for _, p in kernel.pieces
    ]
    comps = [comp for comp, _ in kernel.pieces]

    def piece_of(x):
        held = (i for i, c in enumerate(comps) if c.lo <= x < c.hi or c.hi_closed and x == c.hi)
        return next(held, None)

    orbits = set()
    for k in range(1, m + 1):
        for seq in itertools.product(range(len(polys)), repeat=k):
            composed = sympy.Poly(X, X)
            for i in seq:
                composed = polys[i].compose(composed)
            fixed = composed - sympy.Poly(X, X)
            if fixed.is_zero:
                return None
            for root in fixed.ground_roots():
                orbit = [root]
                for i in seq:
                    if piece_of(orbit[-1]) != i:
                        break
                    orbit.append(polys[i].eval(orbit[-1]))
                else:
                    orbit = [F(int(x.p), int(x.q)) for x in orbit[: orbit.index(root, 1)]]
                    least = orbit.index(min(orbit))
                    orbits.add(tuple(orbit[least:] + orbit[:least]))
    return orbits


def test_enumeration_is_complete_on_random_maps_without_continuum_cells():
    rng = random.Random(1313)
    grid = sorted({F(p, q) for q in range(1, 25) for p in range(q + 1)})
    kernels, interior, periods = 0, 0, set()
    while kernels < 30:
        k = random_unit_map(rng)
        m = rng.randint(2, 4)
        expected = sympy_atom_cycles(k, m)
        if expected is None:
            continue
        kernels += 1
        listed = enumerate_cycles(k, m)
        # every grid seed whose orbit closes within m pushes closes on a listed cycle
        coords = {c.coords for c in listed}
        seeds = [Measure.dirac(x) for x in grid] + [Measure.right_germ(x) for x in grid[:-1]]
        for seed in seeds + [Measure.left_germ(x) for x in grid[1:]]:
            closed = find_cycle_from(k, seed, m)
            assert closed is None or closed.coords in coords
        # the atom cycles are exactly the rational periodic orbits
        atoms = set()
        for c in listed:
            if c.classify() is CycleKind.COUNTABLY_ADDITIVE:
                orbit = [mu.atom_support()[0] for mu in c.coords]
                least = orbit.index(min(orbit))
                atoms.add(tuple(orbit[least:] + orbit[:least]))
        assert atoms == expected
        interior += sum(x not in k._partition.cuts for orbit in atoms for x in orbit)
        periods.update(c.period for c in listed)
    assert interior >= 10 and periods == {1, 2, 3, 4}


def test_least_rotation_is_the_least_serialized_rotation():
    rng = random.Random(909)
    pool = [Measure.dirac(F(i, 2)) for i in range(4)] + [Measure.right_germ(F(1)) * F(2, 3)]
    for _ in range(300):
        coords = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        assert _least_rotation(coords) == min(_rotations(coords), key=_serial_key)


def test_canonical_seeds_cover_space_features():
    k = closed_kernel()
    seeds = canonical_seeds(k)
    assert Measure.dirac(F(0)) in seeds
    assert Measure.right_germ(F(1)) in seeds
    assert Measure.left_germ(F(2)) in seeds
    assert Measure.dirac(F(17)) not in seeds


# -- classification ----------------------------------------------------------------


def test_classification_by_kind():
    k = closed_kernel()
    atom_cycle = Cycle(k, (Measure.dirac(F(0)), Measure.dirac(F(1))))
    germ_cycle = Cycle(k, (Measure.right_germ(F(0)), Measure.right_germ(F(1))))
    mixed = Cycle(
        k,
        (
            Measure.dirac(F(0)) + Measure.right_germ(F(0)),
            Measure.dirac(F(1)) + Measure.right_germ(F(1)),
        ),
    )
    assert classify_cycle(atom_cycle) is CycleKind.COUNTABLY_ADDITIVE
    assert classify_cycle(germ_cycle) is CycleKind.PURELY_FINITELY_ADDITIVE
    assert classify_cycle(mixed) is CycleKind.MIXED


# -- decomposition ------------------------------------------------------------------


def test_decompose_mixed_cycle_roundtrip():
    rng = random.Random(21)
    for _ in range(40):
        k = conveyor_kernel(rng)
        c = conveyor_mixed_cycle(rng, k)
        d = decompose_cycle(c)
        assert d.verified
        assert d.ca is not None and d.pfa is not None
        assert d.ca.period == d.pfa.period == c.period
        for i in range(c.period):
            assert d.ca.coords[i] + d.pfa.coords[i] == c.coords[i]
            assert d.ca.coords[i].is_purely_atomic()
            assert not d.pfa.coords[i].is_purely_atomic()


def test_decompose_homogeneous_cycle_has_empty_side():
    k = closed_kernel()
    atom_cycle = Cycle(k, (Measure.dirac(F(0)), Measure.dirac(F(1))))
    d = decompose_cycle(atom_cycle)
    assert d.verified
    assert d.pfa is None
    assert d.ca is not None and cycle_equal(d.ca, atom_cycle)


def test_decompose_overlapping_coordinates_of_the_reflection():
    # x -> 1 - x: the fixed atom 1/2 rides on both coordinates of a germ 2-cycle
    k = reflection_kernel()
    half = F(1, 2)
    atom, right, left = Measure.dirac(half), Measure.right_germ(half), Measure.left_germ(half)
    c = Cycle(k, (atom + right, atom + left))
    d = decompose_cycle(c)
    assert d.verified
    assert d.ca is not None and d.ca.coords == (atom,)
    assert d.pfa is not None and d.pfa.coords == (right, left)
    assert c.period // d.ca.period == 2
    assert d.ca_parts == (atom, atom) and d.pfa_parts == (right, left)


def translation_kernel(perm):
    """Piece [i, i+1) of [0, n) translated onto [perm[i], perm[i] + 1)."""
    pieces = tuple(
        (Interval(F(i), F(i + 1), True, False), Polynomial.of(perm[i] - i, 1))
        for i in range(len(perm))
    )
    return DeterministicKernel(SetExpr.interval(0, len(perm), True, False), pieces)


def orbit(k, seed):
    coords = [seed]
    while (image := k.push_measure(coords[-1])) != seed:
        coords.append(image)
    return tuple(coords)


def test_decompose_sums_of_atom_and_germ_cycles_of_different_periods():
    rng = random.Random(1111)
    seen = set()
    for _ in range(60):
        p, q = rng.sample([1, 2, 3, 4], 2)
        # blocks [0, p) and [p, p + q) of pieces are rotated; a tail of fixed pieces
        perm = [(i + 1) % p for i in range(p)] + [p + (i + 1) % q for i in range(q)]
        perm += range(len(perm), len(perm) + rng.randint(0, 2))
        k = translation_kernel(perm)
        x = rng.randrange(p) + F(rng.randrange(8), 8)
        germ = rng.choice([Measure.right_germ(p + rng.randrange(q) + F(rng.randrange(8), 8)),
                           Measure.left_germ(p + rng.randrange(q) + F(rng.randrange(1, 9), 8))])
        atoms = orbit(k, Measure.dirac(x) * F(rng.randint(1, 5), rng.randint(1, 5)))
        germs = orbit(k, germ * F(rng.randint(1, 5), rng.randint(1, 5)))
        assert (len(atoms), len(germs)) == (p, q)
        c = Cycle(k, tuple(atoms[i % p] + germs[i % q] for i in range(lcm(p, q))))
        d = decompose_cycle(c)
        assert d.verified
        assert d.ca.coords == atoms and d.pfa.coords == germs
        for i, m in enumerate(c.coords):
            assert d.ca.coords[i % d.ca.period] + d.pfa.coords[i % d.pfa.period] == m
            assert (d.ca_parts[i], d.pfa_parts[i]) == (atoms[i % p], germs[i % q])
        seen.add((p, q))
    assert {p for p, _ in seen} == {q for _, q in seen} == {1, 2, 3, 4}


# -- linear independence --------------------------------------------------------------


def test_rank_equals_period_for_bundled_cycles():
    for name in ["three_state_swap", "interval_squares", "interval_squares_closed"]:
        k = load_bundled(name).kernel
        for c in enumerate_cycles(k, 6):
            assert measure_rank(c.coords) == c.period
            assert linearly_independent(c.coords)


def test_rank_detects_dependence():
    a = Measure.dirac(F(0))
    b = Measure.dirac(F(1))
    assert measure_rank([a, b, a + b]) == 2
    assert not linearly_independent([a, b, a + b])
    assert measure_rank([a * F(2), a]) == 1


# -- cycle arithmetic -------------------------------------------------------------------


def test_cycle_sum_same_period():
    k = closed_kernel()
    atoms = Cycle(k, (Measure.dirac(F(0)), Measure.dirac(F(1))))
    germs = Cycle(k, (Measure.right_germ(F(0)), Measure.right_germ(F(1))))
    total = cycle_sum(atoms, germs)
    assert classify_cycle(total) is CycleKind.MIXED
    assert total.coords[0] == Measure.dirac(F(0)) + Measure.right_germ(F(0))


def test_cycle_sum_period_mismatch():
    k = swap_kernel()
    one = Cycle(k, (Measure.dirac(F(1)),))
    two = Cycle(k, (Measure.dirac(F(2)), Measure.dirac(F(3))))
    with pytest.raises(PeriodMismatch):
        cycle_sum(one, two)


def test_cycle_sum_requires_same_kernel():
    a = Cycle(swap_kernel(), (Measure.dirac(F(1)),))
    k2 = closed_kernel()
    b = Cycle(k2, (Measure.dirac(F(0)), Measure.dirac(F(1))))
    with pytest.raises(ValueError):
        cycle_sum(a, b)


# -- a map whose closed walks compose to polynomials with 300-bit leads ---------


def three_piece_quadratic_map():
    """[0, 1/3) -> 5/8 - 9x^2/2, [1/3, 1/2) -> 3 - 18x + 27x^2 and
    [1/2, 1] -> x - x^2, each piece monotone; its one rational periodic point
    is the fixed point 5/18."""
    pieces = (
        (Interval(F(0), F(1, 3), True, False), Polynomial.of(F(5, 8), 0, F(-9, 2))),
        (Interval(F(1, 3), F(1, 2), True, False), Polynomial.of(3, -18, 27)),
        (Interval(F(1, 2), F(1), True, True), Polynomial.of(0, 1, -1)),
    )
    return DeterministicKernel(SetExpr.interval(0, 1, True, True), pieces)


def test_three_piece_quadratic_map_finds_its_cycles_without_refining_roots(monkeypatch):
    # the count of Horner evaluations bounds the work without a clock; halving
    # each root of P(x) - x down to width 1/(2 a^2) would take tens of thousands
    calls = []
    homogeneous = polynomials._homogeneous
    monkeypatch.setattr(polynomials, "_homogeneous", lambda *a: calls.append(1) or homogeneous(*a))
    k = three_piece_quadratic_map()
    at = F(5, 18)
    expected = [(Measure.dirac(at),), (Measure.left_germ(at), Measure.right_germ(at))]
    for m in (5, 6):
        calls.clear()
        assert [c.coords for c in enumerate_cycles(k, m)] == expected
        assert len(calls) <= 1000


def test_three_piece_quadratic_map_atom_cycles_match_sympy():
    listed = enumerate_cycles(three_piece_quadratic_map(), 5)
    atoms = {tuple(mu.atom_support()[0] for mu in c.coords) for c in listed
             if c.classify() is CycleKind.COUNTABLY_ADDITIVE}
    assert atoms == sympy_atom_cycles(three_piece_quadratic_map(), 5) == {(F(5, 18),)}
