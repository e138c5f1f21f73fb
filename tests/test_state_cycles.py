import itertools
import random
from fractions import Fraction

import pytest

from measurecycles import (
    Cycle,
    CycleKind,
    DeterministicKernel,
    Generator,
    GeneratorKind,
    Interval,
    Measure,
    Point,
    SetExpr,
    StateCycle,
    StochasticKernel,
    find_cyclic_classes,
    load_bundled,
    measures_from_state_cycle,
    state_cycle_equal,
    state_cycle_from_measures,
    transient_states,
    unit_integral_check,
    verify_state_cycle,
)
from measurecycles import PiecewisePolyFunction, Polynomial, enumerate_cycles
from measurecycles.cycles import _class_cycles
from measurecycles.errors import (
    IrrationalCriticalPoint,
    NoRepresentableInvariant,
    PointEscapesSpace,
    NotCountablyAdditive,
    NotDisjoint,
    NotFiniteChain,
    NotSingular,
    RangeViolation,
)
from support import conveyor_kernel, random_periodic_block_chain, random_stochastic_kernel

F = Fraction


def points(*vals):
    return SetExpr.from_components(Point(F(v)) for v in vals)


# -- StateCycle basics ---------------------------------------------------------


def test_state_cycle_validation():
    with pytest.raises(ValueError):
        StateCycle(())
    with pytest.raises(ValueError):
        StateCycle((points(1), points(1)))
    with pytest.raises(ValueError):
        StateCycle((SetExpr.empty(),))


def test_singularity_flag():
    assert StateCycle((points(1), points(2))).singular
    assert not StateCycle((points(1, 2), points(2, 3))).singular


def test_rotation_equality():
    a = StateCycle((points(1), points(2)))
    b = StateCycle((points(2), points(1)))
    assert state_cycle_equal(a, b)
    assert not state_cycle_equal(a, StateCycle((points(1), points(3))))


# -- verification ---------------------------------------------------------------


def test_verify_declared_state_cycles():
    for name in ["three_state_swap", "interval_squares", "interval_squares_closed"]:
        spec = load_bundled(name)
        for sc in spec.declared_state_cycles:
            assert verify_state_cycle(spec.kernel, sc)


def test_verify_rejects_wrong_direction():
    k = load_bundled("interval_squares").kernel
    # shrunk second set: image of (0,1) is all of (1,2), not (1,3/2)
    bad = StateCycle((SetExpr.interval(0, 1), SetExpr.interval(1, F(3, 2))))
    assert not verify_state_cycle(k, bad)


def test_verify_rejects_sets_leaving_space():
    k = load_bundled("three_state_swap").kernel
    assert not verify_state_cycle(k, StateCycle((points(2), points(4))))


def test_verify_stochastic_partial_mass_fails():
    k = StochasticKernel((F(1), F(2)), ((F(1, 2), F(1, 2)), (F(1), F(0))))
    assert not verify_state_cycle(k, StateCycle((points(1), points(2))))
    assert verify_state_cycle(k, StateCycle((points(1, 2),)))


# -- cyclic classes ---------------------------------------------------------------


def test_classes_of_bundled_swap_chain():
    k = load_bundled("three_state_swap").kernel
    infos = find_cyclic_classes(k)
    assert len(infos) == 2
    assert infos[0].states == (F(1),) and infos[0].period == 1
    assert infos[1].states == (F(2), F(3)) and infos[1].period == 2
    assert infos[1].subclasses == ((F(2),), (F(3),))
    assert infos[1].invariant == Measure.dirac(F(2)) * F(1, 2) + Measure.dirac(F(3)) * F(1, 2)
    assert infos[1].subclass_invariant == Measure.dirac(F(2))
    assert transient_states(k) == []


def test_four_cycle_period_via_return_times():
    n = 4
    states = tuple(F(i) for i in range(1, n + 1))
    rows = tuple(
        tuple(F(1 if j == (i + 1) % n else 0) for j in range(n)) for i in range(n)
    )
    k = StochasticKernel(states, rows)
    infos = find_cyclic_classes(k)
    assert len(infos) == 1 and infos[0].period == 4
    assert len(infos[0].subclasses) == 4
    # independent oracle: first return times to each state are multiples of 4
    for start in range(n):
        current = {start}
        for t in range(1, 13):
            current = {(i + 1) % n for i in current}
            if start in current:
                assert t % 4 == 0
    assert infos[0].invariant.total_mass() == 1


def test_absorbing_chain_two_classes():
    k = StochasticKernel((F(1), F(2)), ((F(1), F(0)), (F(0), F(1))))
    infos = find_cyclic_classes(k)
    assert len(infos) == 2
    assert all(info.period == 1 for info in infos)


def test_transient_states_reported():
    # state 3 drains into the 1 <-> 2 swap
    k = StochasticKernel(
        (F(1), F(2), F(3)),
        ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(1, 2), F(1, 2), F(0))),
    )
    infos = find_cyclic_classes(k)
    assert len(infos) == 1 and infos[0].period == 2
    assert transient_states(k) == [F(3)]


def test_classes_need_finite_chain():
    k = load_bundled("interval_squares").kernel
    with pytest.raises(NotFiniteChain):
        find_cyclic_classes(k)


def _random_small_matrix_chain(rng):
    """Matrices up to 5 states with entries in {0, 1/2, 1}: rows are either
    deterministic or split evenly between two targets."""
    n = rng.randint(2, 5)
    states = tuple(F(i) for i in range(1, n + 1))
    rows = []
    for _ in range(n):
        if rng.random() < 0.5:
            j = rng.randrange(n)
            rows.append(tuple(F(1 if t == j else 0) for t in range(n)))
        else:
            a, b = rng.sample(range(n), 2)
            rows.append(tuple(F(1, 2) if t in (a, b) else F(0) for t in range(n)))
    return StochasticKernel(states, tuple(rows))


def test_subclass_structure_on_random_small_chains():
    rng = random.Random(77)
    for _ in range(120):
        k = _random_small_matrix_chain(rng)
        for info in find_cyclic_classes(k):
            d = info.period
            # the class invariant is a genuine fixed point
            assert k.push_measure(info.invariant) == info.invariant
            assert info.invariant.total_mass() == 1
            # its restriction to each subclass, renormalized, is fixed by d steps
            for sub in info.subclasses:
                restricted = info.invariant.restrict(
                    SetExpr.from_components(Point(s) for s in sub)
                ).normalize()
                current = restricted
                for _ in range(d):
                    current = k.push_measure(current)
                assert current == restricted
            # one-step images walk the subclasses cyclically
            cyc = info.state_cycle()
            assert verify_state_cycle(k, cyc)


def _sympy_invariant(sympy, P, idx):
    """Normalized nullspace vector of (P restricted to idx)^T - I, as Fractions."""
    sub = P.extract(idx, idx)
    (v,) = (sub.T - sympy.eye(len(idx))).nullspace()
    return [F(int(x.p), int(x.q)) for x in v / sum(v)]


def _atom_masses(mu, states):
    return [mu.coefficient(Generator(GeneratorKind.ATOM, s)) for s in states]


def test_classes_and_invariants_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2020)
    chains = [_random_small_matrix_chain(rng) for _ in range(60)]
    chains += [random_periodic_block_chain(rng)[0] for _ in range(40)]
    for k in chains:
        n = len(k.states)
        P = sympy.Matrix(n, n, lambda i, j: sympy.Rational(k.matrix[i][j]))
        # brute-force transitive closure; recurrent = every reached state reaches back
        reach = [[i == j or k.matrix[i][j] > 0 for j in range(n)] for i in range(n)]
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][m] and reach[m][j])
        want = {
            tuple(k.states[j] for j in range(n) if reach[i][j])
            for i in range(n)
            if all(reach[j][i] for j in range(n) if reach[i][j])
        }
        infos = find_cyclic_classes(k)
        assert {info.states for info in infos} == want
        index = {s: i for i, s in enumerate(k.states)}
        for info in infos:
            pi = _sympy_invariant(sympy, P, [index[s] for s in info.states])
            assert _atom_masses(info.invariant, info.states) == pi
            sub0 = info.subclasses[0]
            sub_pi = _sympy_invariant(sympy, P ** info.period, [index[s] for s in sub0])
            assert _atom_masses(info.subclass_invariant, sub0) == sub_pi


# -- measures from state cycles and back --------------------------------------------


def test_reducible_restriction_averages_its_classes():
    swaps = StochasticKernel(
        tuple(F(i) for i in range(1, 5)),
        tuple(tuple(F(int(j == t)) for j in range(4)) for t in (1, 0, 3, 2)),
    )
    cycle = measures_from_state_cycle(swaps, StateCycle((points(1, 3), points(2, 4))))
    assert str(cycle.coords[0]) == "1/2*atom(1) + 1/2*atom(3)"
    assert cycle.coords[1] == Measure.dirac(F(2)) * F(1, 2) + Measure.dirac(F(4)) * F(1, 2)


def test_transient_state_in_first_set_carries_no_mass():
    # 1 <-> 2, and 3 -> 2 is transient
    k = StochasticKernel(
        (F(1), F(2), F(3)),
        ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))),
    )
    cycle = measures_from_state_cycle(k, StateCycle((points(1, 3), points(2))))
    assert cycle.coords == (Measure.dirac(F(1)), Measure.dirac(F(2)))


def test_roundtrip_on_swap_chain():
    spec = load_bundled("three_state_swap")
    sc = spec.declared_state_cycles[0]
    cycle = measures_from_state_cycle(spec.kernel, sc)
    assert cycle.period == 2
    assert cycle.coords[0] == Measure.dirac(F(2))
    back = state_cycle_from_measures(cycle)
    assert state_cycle_equal(back, sc)


def test_interval_state_cycle_maps_to_germ_cycle():
    spec = load_bundled("interval_squares")
    for sc in spec.declared_state_cycles:
        cycle = measures_from_state_cycle(spec.kernel, sc)
        assert cycle.period == 2
        assert cycle.coords[0] == Measure.right_germ(F(0))
        for i, mu in enumerate(cycle.coords):
            for j, D in enumerate(sc.sets):
                assert mu.evaluate(D) == (1 if i == j else 0)
        with pytest.raises(NotCountablyAdditive):
            state_cycle_from_measures(cycle)


def test_atom_state_cycle_on_closed_chain():
    spec = load_bundled("interval_squares_closed")
    sc = spec.declared_state_cycles[0]
    cycle = measures_from_state_cycle(spec.kernel, sc)
    assert cycle.coords == (Measure.dirac(F(0)), Measure.dirac(F(1)))
    assert state_cycle_equal(state_cycle_from_measures(cycle), sc)


def test_no_rational_cycle_in_the_first_set_raises():
    # x -> 1 - x^2/2 maps [0, 1] into itself, but its fixed point is irrational
    unit = Interval(F(0), F(1), True, True)
    k = DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, 0, F(-1, 2))),))
    with pytest.raises(NoRepresentableInvariant):
        measures_from_state_cycle(k, StateCycle((SetExpr((unit,)),)))


def test_reflection_state_cycles_take_the_least_start():
    # x -> 1 - x on [0, 1]
    unit = Interval(F(0), F(1), True, True)
    k = DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, -1)),))
    half = F(1, 2)
    fixed = measures_from_state_cycle(k, StateCycle((points(half),)))
    assert fixed.coords == (Measure.dirac(half),)
    # three listed 2-cycles start in [0, 1/2); the atom at 0 is least
    sc = StateCycle((SetExpr.interval(0, half, True), SetExpr.interval(half, 1, False, True)))
    assert measures_from_state_cycle(k, sc).coords == (Measure.dirac(F(0)), Measure.dirac(F(1)))
    # the listed germ cycle at 1/2 starts in (1/4, 1/2), but the returning
    # right germ at the boundary point 1/4 is less
    sc = StateCycle((SetExpr.interval(F(1, 4), half), SetExpr.interval(half, F(3, 4))))
    germs = (Measure.right_germ(F(1, 4)), Measure.left_germ(F(3, 4)))
    assert measures_from_state_cycle(k, sc).coords == germs


def test_state_cycle_inside_a_continuum_cell_starts_at_its_boundary():
    # x -> 1 - x on [0, 1]: every point is periodic, so no listed cycle lies
    # in (1/4, 1/3); the right germ at 1/4 comes back after two pushes
    unit = Interval(F(0), F(1), True, True)
    k = DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, -1)),))
    sc = StateCycle((SetExpr.interval(F(1, 4), F(1, 3)), SetExpr.interval(F(2, 3), F(3, 4))))
    cycle = measures_from_state_cycle(k, sc)
    assert cycle.coords == (Measure.right_germ(F(1, 4)), Measure.left_germ(F(3, 4)))


def test_measures_require_singular_state_cycle():
    k = load_bundled("three_state_swap").kernel
    overlapping = StateCycle((points(2, 3), points(3)))
    with pytest.raises(NotSingular):
        measures_from_state_cycle(k, overlapping)


def test_state_cycle_from_shared_atoms_rejected():
    k = load_bundled("three_state_swap").kernel
    eta1 = Measure.dirac(F(1)) + Measure.dirac(F(2))
    eta2 = Measure.dirac(F(1)) + Measure.dirac(F(3))
    cycle = Cycle(k, (eta1, eta2))
    with pytest.raises(NotDisjoint):
        state_cycle_from_measures(cycle)


def test_roundtrip_on_random_block_chains():
    rng = random.Random(88)
    for _ in range(60):
        kernel, sc = random_periodic_block_chain(rng)
        cycle = measures_from_state_cycle(kernel, sc)
        assert cycle.period == sc.period
        for i, mu in enumerate(cycle.coords):
            for j, D in enumerate(sc.sets):
                assert mu.evaluate(D) == (1 if i == j else 0)
        back = state_cycle_from_measures(cycle)
        assert state_cycle_equal(back, sc)
        # own-support exit condition for periods over 1
        m = cycle.period
        if m >= 2:
            for i, mu in enumerate(cycle.coords):
                for x in mu.atom_support():
                    assert kernel.transition_prob(x, sc.sets[i]) == 0


# -- the unit-integral implication ------------------------------------------------


def _identity_on_unit_interval():
    space = SetExpr.interval(0, 1, True, True)
    return PiecewisePolyFunction.build(
        space, [(space.components[0], Polynomial.of(0, 1))]
    )


def test_unit_integral_broken_by_germ():
    f = _identity_on_unit_interval()
    report = unit_integral_check(f, Measure.left_germ(F(1)))
    assert report.integral == 1
    assert report.mass_where_one == 0
    assert not report.holds


def test_unit_integral_holds_for_atoms():
    f = _identity_on_unit_interval()
    report = unit_integral_check(f, Measure.dirac(F(1)))
    assert report.integral == 1 and report.mass_where_one == 1 and report.holds
    mix = Measure.dirac(F(1, 2)) * F(1, 2) + Measure.dirac(F(1)) * F(1, 2)
    report = unit_integral_check(f, mix)
    assert report.integral == F(3, 4)
    assert report.holds


def test_unit_integral_requires_probability_and_range():
    f = _identity_on_unit_interval()
    with pytest.raises(ValueError):
        unit_integral_check(f, Measure.dirac(F(1)) * 2)
    space = SetExpr.interval(0, 2, True, True)
    g = PiecewisePolyFunction.build(space, [(space.components[0], Polynomial.of(0, 1))])
    with pytest.raises(RangeViolation):
        unit_integral_check(g, Measure.dirac(F(1)))


def test_unit_integral_irrational_maximum_is_a_critical_point():
    # f = 3/4 + x^2 - x^4 reaches 1 only at sqrt(1/2), its irrational maximum
    space = SetExpr.interval(0, 1, True, True)
    f = PiecewisePolyFunction.build(space, [(space.components[0], Polynomial.of(F(3, 4), 0, 1, 0, -1))])
    with pytest.raises(IrrationalCriticalPoint):
        unit_integral_check(f, Measure.dirac(F(1, 2)))


# -- finite chains: the state-by-state rules and the restricted chain ------------


def _state_by_state_cycle(kernel, sets):
    """Each D_i lies in the space, holds a state, and every state of D_i sends
    mass 1 to D_{i+1}: the row summed over the states in D_{i+1}."""
    for D, nxt in zip(sets, sets[1:] + sets[:1]):
        members = [i for i, s in enumerate(kernel.states) if D.contains_point(s)]
        if not members or not D.is_subset(kernel.space):
            return False
        for i in members:
            row = zip(kernel.states, kernel.matrix[i])
            if sum(p for t, p in row if nxt.contains_point(t)) != 1:
                return False
    return True


def _labelled_state_cycles(kernel, max_period):
    """Every state cycle of point sets of period <= max_period: label each
    state 1..m or 0 (in no set), and keep the labellings where every
    successor of a state labelled i is labelled i + 1 (mod m)."""
    n = len(kernel.states)
    succ = [[j for j in range(n) if kernel.matrix[i][j]] for i in range(n)]
    for m in range(1, max_period + 1):
        for labels in itertools.product(range(m + 1), repeat=n):
            if not set(range(1, m + 1)) <= set(labels):
                continue
            if all(labels[j] == labels[i] % m + 1 for i in range(n) if labels[i] for j in succ[i]):
                yield StateCycle(
                    tuple(
                        points(*(s for s, label in zip(kernel.states, labels) if label == r))
                        for r in range(1, m + 1)
                    )
                )


def _restricted_chain_start(kernel, cycle):
    """The first coordinate by the m-step chain restricted to D_1: push each
    state of D_1 m times, and average the invariants of the classes of the
    restricted chain."""
    m, D = cycle.period, cycle.sets[0]
    states = tuple(s for s in kernel.states if D.contains_point(s))
    rows = []
    for s in states:
        mu = Measure.dirac(s)
        for _ in range(m):
            mu = kernel.push_measure(mu)
        rows.append(tuple(mu.evaluate(points(t)) for t in states))
    classes = find_cyclic_classes(StochasticKernel(states, tuple(rows)))
    return Measure.from_terms(
        (g, c / len(classes)) for info in classes for g, c in info.invariant.terms
    )


def test_state_cycle_measures_match_the_restricted_chain():
    rng = random.Random(2024)
    chains = [random_stochastic_kernel(rng, max_states=4) for _ in range(150)]
    while len(chains) < 200:
        kernel, _ = random_periodic_block_chain(rng)
        if len(kernel.states) <= 5:
            chains.append(kernel)
    periods = []
    for kernel in chains:
        for sc in _labelled_state_cycles(kernel, 3):
            assert verify_state_cycle(kernel, sc)
            cycle = measures_from_state_cycle(kernel, sc)
            assert cycle.coords[0] == _restricted_chain_start(kernel, sc), (kernel, sc)
            periods.append(sc.period)
    assert {1, 2, 3} <= set(periods)
    assert len(periods) > 400


def _random_set(rng, n):
    """A union of states, points that are not states, and intervals, on the
    states 1..n."""
    comps = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.6:
            comps.append(Point(F(rng.randint(1, n))))
        elif roll < 0.8:
            comps.append(Point(F(rng.randint(0, 2 * n + 2), 2)))
        else:
            lo = F(rng.randint(0, 2 * n), 2)
            hi = lo + F(rng.randint(1, 4), 2)
            comps.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return SetExpr.from_components(comps)


def test_verify_and_transitions_follow_the_state_by_state_rules():
    rng = random.Random(77)
    outcomes = []
    for _ in range(300):
        kernel = random_stochastic_kernel(rng, max_states=4)
        n = len(kernel.states)
        sets = tuple(_random_set(rng, n) for _ in range(rng.randint(1, 3)))
        labelled = list(_labelled_state_cycles(kernel, 2))
        if labelled and rng.random() < 0.5:
            sets = rng.choice(labelled).sets
            if rng.random() < 0.5:
                i = rng.randrange(len(sets))
                sets = sets[:i] + (sets[i] | _random_set(rng, n),) + sets[i + 1 :]
        if len(set(sets)) == len(sets):
            verdict = verify_state_cycle(kernel, StateCycle(sets))
            assert verdict == _state_by_state_cycle(kernel, sets), (kernel, sets)
            outcomes.append(verdict)
        E = sets[0]
        for x in [F(k, 2) for k in range(0, 2 * n + 3)]:
            if x in kernel.states:
                row = zip(kernel.states, kernel.matrix[kernel.states.index(x)])
                expected = sum((p for t, p in row if E.contains_point(t)), F(0))
                assert kernel.transition_prob(x, E) == expected
            else:
                with pytest.raises(PointEscapesSpace):
                    kernel.transition_prob(x, E)
    assert True in outcomes and False in outcomes


# -- the set-measure correspondence as properties ------------------------------------


def _random_chains(rng, count):
    """Random chains of tests/support.py, then as many periodic block chains."""
    chains = [random_stochastic_kernel(rng) for _ in range(count)]
    return chains + [random_periodic_block_chain(rng)[0] for _ in range(count)]


def _pushed_class_cycle(kernel, info):
    """The class cycle by pushes: the subclass invariant and its d - 1 pushes."""
    orbit = [info.subclass_invariant]
    while len(orbit) < info.period:
        orbit.append(kernel.push_measure(orbit[-1]))
    return tuple(orbit)


def test_class_cycles_are_the_pushed_subclass_invariants():
    for kernel in _random_chains(random.Random(1960), 100):
        infos = find_cyclic_classes(kernel)
        assert _class_cycles(kernel) == [_pushed_class_cycle(kernel, info) for info in infos]


def test_every_class_edge_goes_to_the_next_subclass():
    periods = set()
    for kernel in _random_chains(random.Random(1961), 100):
        for info in find_cyclic_classes(kernel):
            periods.add(info.period)
            for r, sub in enumerate(info.subclasses):
                nxt = set(info.subclasses[(r + 1) % info.period])
                for s in sub:
                    row = zip(kernel.states, kernel.matrix[kernel.states.index(s)])
                    assert {t for t, p in row if p} <= nxt, (kernel, info)
    assert {1, 2, 3, 4} <= periods


def _assert_supports_form_a_state_cycle(cycle):
    """state_cycle_from_measures gives a state cycle whose atoms send mass 1 to
    the next support, and none to their own for periods over 1."""
    sc = state_cycle_from_measures(cycle)
    assert verify_state_cycle(cycle.kernel, sc)
    m = cycle.period
    for i, mu in enumerate(cycle.coords):
        for x in mu.atom_support():
            assert cycle.kernel.transition_prob(x, sc.sets[(i + 1) % m]) == 1
            if m >= 2:
                assert cycle.kernel.transition_prob(x, sc.sets[i]) == 0


def _unit_reflection():
    """x -> 1 - x on [0, 1]."""
    unit = Interval(F(0), F(1), True, True)
    return DeterministicKernel(SetExpr((unit,)), ((unit, Polynomial.of(1, -1)),))


def test_atom_supports_of_class_and_map_cycles_are_state_cycles():
    for kernel in _random_chains(random.Random(1962), 60):
        for coords in _class_cycles(kernel):
            _assert_supports_form_a_state_cycle(Cycle(kernel, coords))
    rng = random.Random(1963)
    maps = [conveyor_kernel(rng) for _ in range(12)]
    maps += [load_bundled("interval_squares_closed").kernel, _unit_reflection()]
    periods = set()
    for kernel in maps:
        for cycle in enumerate_cycles(kernel, 6):
            if cycle.classify() is CycleKind.COUNTABLY_ADDITIVE:
                _assert_supports_form_a_state_cycle(cycle)
                periods.add(cycle.period)
    assert len(periods) >= 4


def _assert_unit_mass_on_own_set(kernel, sc):
    cycle = measures_from_state_cycle(kernel, sc)
    assert cycle.period == sc.period
    for i, mu in enumerate(cycle.coords):
        for j, D in enumerate(sc.sets):
            assert mu.evaluate(D) == (1 if i == j else 0), (kernel, sc, i, j)


def test_state_cycle_measures_put_mass_one_on_their_own_set():
    # the verified state cycles of test_state_cycle_measures_match_the_restricted_chain
    rng = random.Random(2024)
    chains = [random_stochastic_kernel(rng, max_states=4) for _ in range(150)]
    while len(chains) < 200:
        kernel, _ = random_periodic_block_chain(rng)
        if len(kernel.states) <= 5:
            chains.append(kernel)
    for kernel in chains:
        for sc in _labelled_state_cycles(kernel, 3):
            _assert_unit_mass_on_own_set(kernel, sc)


def test_map_state_cycle_measures_put_mass_one_on_their_own_set():
    witnesses = [
        (spec.kernel, sc)
        for spec in map(load_bundled, ("interval_squares", "interval_squares_closed"))
        for sc in spec.declared_state_cycles
    ]
    half, reflection = F(1, 2), _unit_reflection()
    witnesses += [
        (reflection, StateCycle((points(half),))),
        (reflection, StateCycle((SetExpr.interval(0, half, True), SetExpr.interval(half, 1, False, True)))),
        # inside the continuum cell: no listed cycle, a returning boundary germ
        (reflection, StateCycle((SetExpr.interval(F(1, 4), F(1, 3)), SetExpr.interval(F(2, 3), F(3, 4))))),
    ]
    # x -> -x on the line swaps the masses at infinity
    line = Interval(None, None)
    negation = DeterministicKernel(SetExpr((line,)), ((line, Polynomial.of(0, -1)),))
    halves = StateCycle((SetExpr.interval(None, 0), SetExpr.interval(0, None)))
    witnesses.append((negation, halves))
    rng = random.Random(1964)
    for _ in range(8):
        conveyor = conveyor_kernel(rng)
        pieces = StateCycle(tuple(SetExpr((comp,)) for comp, _ in conveyor.pieces))
        witnesses.append((conveyor, pieces))
    for kernel, sc in witnesses:
        _assert_unit_mass_on_own_set(kernel, sc)
