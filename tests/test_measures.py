import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import measurecycles
from measurecycles import (
    Generator,
    GeneratorKind,
    Measure,
    Point,
    SetExpr,
    is_disjoint,
    is_singular,
    join,
    meet,
)

F = Fraction

locations = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

located_kinds = st.sampled_from(
    [GeneratorKind.ATOM, GeneratorKind.RIGHT_LIMIT, GeneratorKind.LEFT_LIMIT]
)


@st.composite
def generators(draw):
    if draw(st.integers(0, 9)) == 0:
        kind = draw(
            st.sampled_from([GeneratorKind.PLUS_INFINITY, GeneratorKind.MINUS_INFINITY])
        )
        return Generator(kind, None)
    return Generator(draw(located_kinds), draw(locations))


coeffs = st.builds(F, st.integers(1, 8), st.integers(1, 4))

nonneg_measures = st.lists(
    st.tuples(generators(), coeffs), max_size=4
).map(Measure.from_terms)

signed_coeffs = st.builds(F, st.integers(-8, 8), st.integers(1, 4))
signed_measures = st.lists(
    st.tuples(generators(), signed_coeffs), max_size=4
).map(Measure.from_terms)


# -- construction and evaluation ----------------------------------------------


def test_from_terms_combines_and_drops_zeros():
    g = Generator(GeneratorKind.ATOM, F(1))
    m = Measure.from_terms([(g, F(1, 2)), (g, F(1, 2)), (g, F(-1))])
    assert m.is_zero()
    m = Measure.from_terms([(g, F(1, 3)), (g, F(1, 6))])
    assert m.coefficient(g) == F(1, 2)


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator(GeneratorKind.ATOM, None)
    with pytest.raises(ValueError):
        Generator(GeneratorKind.PLUS_INFINITY, F(0))


def test_indicator_semantics():
    E = SetExpr.interval(0, 1)  # (0, 1)
    assert Measure.dirac(F(1, 2)).evaluate(E) == 1
    assert Measure.dirac(F(0)).evaluate(E) == 0
    assert Measure.right_germ(F(0)).evaluate(E) == 1
    assert Measure.left_germ(F(1)).evaluate(E) == 1
    assert Measure.left_germ(F(0)).evaluate(E) == 0
    assert Measure.right_germ(F(1)).evaluate(E) == 0
    assert Measure.at_plus_infinity().evaluate(E) == 0
    assert Measure.at_plus_infinity().evaluate(SetExpr.interval(0, None)) == 1
    assert Measure.at_minus_infinity().evaluate(SetExpr.interval(None, 0)) == 1


def test_germ_assigns_zero_to_its_base_point():
    base = SetExpr.point(0)
    assert Measure.right_germ(F(0)).evaluate(base) == 0
    assert Measure.dirac(F(0)).evaluate(base) == 1


@given(signed_measures, signed_measures)
def test_additivity_of_evaluation(a, b):
    E = SetExpr.interval(-2, 1, True, False)
    assert (a + b).evaluate(E) == a.evaluate(E) + b.evaluate(E)
    assert (a - b).evaluate(E) == a.evaluate(E) - b.evaluate(E)


@given(signed_measures)
def test_total_mass_vs_norm(m):
    assert m.total_mass() == m.evaluate(SetExpr.line())
    pos, neg = m.jordan()
    assert pos.is_nonnegative() and neg.is_nonnegative()
    assert pos - neg == m
    assert m.norm() == pos.total_mass() + neg.total_mass()


# -- Yosida-Hewitt split -------------------------------------------------------


@given(signed_measures)
def test_split_parts_sum_back(m):
    ca, pfa = m.split()
    assert ca + pfa == m
    assert ca.is_purely_atomic()
    assert all(g.kind is not GeneratorKind.ATOM for g in pfa.generators())


# -- lattice laws --------------------------------------------------------------


@given(nonneg_measures, nonneg_measures)
def test_meet_join_bounds(a, b):
    lo = meet(a, b)
    hi = join(a, b)
    assert (a - lo).is_nonnegative() and (b - lo).is_nonnegative()
    assert (hi - a).is_nonnegative() and (hi - b).is_nonnegative()
    assert lo + hi == a + b


@given(nonneg_measures, nonneg_measures)
def test_meet_join_commute(a, b):
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)


@given(nonneg_measures, nonneg_measures, nonneg_measures)
def test_meet_associates_and_absorbs(a, b, c):
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert join(join(a, b), c) == join(a, join(b, c))
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a


@given(nonneg_measures)
def test_meet_with_self_and_zero(a):
    assert meet(a, a) == a
    assert meet(a, Measure.zero()).is_zero()
    assert join(a, Measure.zero()) == a


def test_meet_requires_nonnegative():
    neg = Measure.dirac(F(0)) * F(-1)
    with pytest.raises(ValueError):
        meet(neg, Measure.dirac(F(0)))


# -- Bochner-Phillips oracle ---------------------------------------------------


def _subsets(points):
    return chain.from_iterable(combinations(points, k) for k in range(len(points) + 1))


def brute_force_meet_on(a, b, E_points):
    """inf over splits C of E of a(C) + b(E minus C), atoms only."""
    best = None
    E = list(E_points)
    for C in _subsets(E):
        rest = [p for p in E if p not in C]
        val = sum(
            (a.coefficient(Generator(GeneratorKind.ATOM, p)) for p in C), F(0)
        ) + sum((b.coefficient(Generator(GeneratorKind.ATOM, p)) for p in rest), F(0))
        best = val if best is None else min(best, val)
    return best


def test_meet_matches_exhaustive_infimum():
    rng = random.Random(20260819)
    from support import random_atomic_measure

    for _ in range(200):
        a = random_atomic_measure(rng, max_atoms=3)
        b = random_atomic_measure(rng, max_atoms=3)
        support = sorted(
            {g.location for g in a.generators()} | {g.location for g in b.generators()}
        )
        assert len(support) <= 6
        lo = meet(a, b)
        for E in _subsets(support):
            expected = brute_force_meet_on(a, b, E)
            got = lo.evaluate(SetExpr.from_components(Point(p) for p in E))
            assert got == expected


# -- singularity ----------------------------------------------------------------


def test_singular_pair_with_witness():
    a = Measure.dirac(F(0)) + Measure.right_germ(F(0))
    b = Measure.dirac(F(1))
    singular, witness = is_singular(a, b)
    assert singular
    A, B = witness
    assert not A.intersects(B)
    assert a.evaluate(A) == a.total_mass()
    assert b.evaluate(A) == 0
    assert b.evaluate(B) == b.total_mass()
    assert a.evaluate(B) == 0


def test_non_singular_pair():
    a = Measure.dirac(F(0)) + Measure.dirac(F(1))
    b = Measure.dirac(F(0)) + Measure.dirac(F(2))
    singular, witness = is_singular(a, b)
    assert not singular
    assert witness is None


def test_germs_at_same_point_opposite_sides_are_singular():
    ok, witness = is_singular(Measure.right_germ(F(0)), Measure.left_germ(F(0)))
    assert ok
    A, B = witness
    assert not A.intersects(B)


@given(nonneg_measures, nonneg_measures)
def test_singularity_iff_disjoint_and_witness_carries_everything(a, b):
    ok, witness = is_singular(a, b)
    assert ok == is_disjoint(a, b)
    if ok:
        A, B = witness
        assert not A.intersects(B)
        assert a.evaluate(A) == a.total_mass()
        assert b.evaluate(B) == b.total_mass()
        assert a.evaluate(B) == 0
        assert b.evaluate(A) == 0


def test_infinity_masses_are_disjoint_from_finite_measures():
    inf = Measure.at_plus_infinity()
    fin = Measure.dirac(F(10**6))
    ok, (A, B) = is_singular(fin, inf)
    assert ok
    assert fin.evaluate(A) == 1
    assert inf.evaluate(B) == 1


# -- serialization ---------------------------------------------------------------


@given(signed_measures)
def test_json_roundtrip(m):
    assert Measure.from_json_obj(m.to_json_obj()) == m


def test_from_json_rejects_bad_terms():
    with pytest.raises(ValueError):
        Measure.from_json_obj({"terms": [{"kind": "nonsense", "coefficient": "1"}]})
    with pytest.raises(ValueError):
        Measure.from_json_obj({"terms": [{"kind": "atom", "coefficient": "1"}]})
    with pytest.raises(ValueError):
        Measure.from_json_obj(
            {"terms": [{"kind": "plus_infinity", "location": "0", "coefficient": "1"}]}
        )


# -- the cached hash ----------------------------------------------------------------


@given(st.lists(st.tuples(generators(), signed_coeffs), max_size=5), st.randoms())
def test_equal_measures_built_by_different_routes_hash_equal(pairs, rnd):
    m = Measure.from_terms(pairs)
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    other = Measure.from_terms(pairs[:1])
    for built in [Measure.from_terms(shuffled), m + other - other, m * 1, 1 * m]:
        assert built == m
        assert hash(built) == hash(m)


def test_dirac_times_one_hashes_like_dirac():
    for x in [0, "1/2", -3]:
        assert hash(Measure.dirac(x) * 1) == hash(Measure.dirac(x))
        assert hash(Measure.dirac(x, 2) * F(1, 2)) == hash(Measure.dirac(x))


@given(signed_measures)
def test_hashing_changes_no_observable_field(m):
    before = (repr(m), m.to_json_obj(), dataclasses.fields(m))
    twin = Measure(m.terms)
    hash(m)
    assert (repr(m), m.to_json_obj(), dataclasses.fields(m)) == before
    assert m == twin and twin == m
    for copied in [copy.copy(m), copy.deepcopy(m), dataclasses.replace(m)]:
        assert copied == m
        assert hash(copied) == hash(m)


def test_unpickled_measure_hashes_in_a_new_process():
    # generator hashes come from enum names, whose string hashes differ
    # between processes, so a hash cached before pickling would be stale
    m = Measure.dirac(1) + Measure.right_germ(F(1, 2), 3) + Measure.at_plus_infinity()
    hash(m)
    script = (
        "import pickle, sys\n"
        "from measurecycles import Measure\n"
        "m = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Measure.from_terms(m.terms)\n"
        "print(hash(m) == hash(fresh) and {fresh: 1}.get(m) == 1)\n"
    )
    src = str(Path(measurecycles.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(m),
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == b"True"
