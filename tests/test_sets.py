from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from measurecycles import Interval, Point, SetExpr
from measurecycles.sets import (
    Partition,
    _assemble,
    _component_holds,
    _component_cuts,
    _cuts,
    _elementary_pieces,
    format_component,
)

F = Fraction


def iv(lo, hi, lc=False, hc=False):
    return SetExpr.interval(lo, hi, lc, hc)


# -- strategies --------------------------------------------------------------

fracs = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def components(draw):
    if draw(st.booleans()):
        return Point(draw(fracs))
    lo = draw(st.one_of(st.none(), fracs))
    hi = draw(st.one_of(st.none(), fracs))
    if lo is not None and hi is not None and lo >= hi:
        lo, hi = sorted([lo, hi])
        if lo == hi:
            hi = lo + 1
    lo_closed = lo is not None and draw(st.booleans())
    hi_closed = hi is not None and draw(st.booleans())
    return Interval(lo, hi, lo_closed, hi_closed)


set_exprs = st.lists(components(), max_size=4).map(SetExpr.from_components)

probe_points = st.lists(fracs, min_size=1, max_size=6)


# -- constructor validation ---------------------------------------------------


def test_interval_requires_order():
    with pytest.raises(ValueError):
        Interval(F(1), F(1))
    with pytest.raises(ValueError):
        Interval(F(2), F(1))
    with pytest.raises(ValueError):
        Interval(None, F(1), lo_closed=True)


def test_canonical_merge_of_touching_pieces():
    s = iv(0, 1, False, False) | SetExpr.point(1) | iv(1, 2, False, False)
    assert s == iv(0, 2, False, False)
    assert len(s.components) == 1


def test_adjacent_open_intervals_stay_separate():
    s = iv(0, 1) | iv(1, 2)
    assert len(s.components) == 2
    assert not s.contains_point(F(1))


def test_point_membership_and_neighborhoods():
    s = iv(0, 1, True, False) | SetExpr.point(2)
    assert s.contains_point(F(0))
    assert not s.contains_point(F(1))
    assert s.contains_point(F(2))
    assert s.contains_right_neighborhood(F(0))
    assert not s.contains_left_neighborhood(F(0))
    assert s.contains_left_neighborhood(F(1))
    assert not s.contains_right_neighborhood(F(2))


def test_tails():
    assert SetExpr.line().contains_plus_tail()
    assert SetExpr.line().contains_minus_tail()
    assert iv(0, None).contains_plus_tail()
    assert not iv(0, None).contains_minus_tail()
    assert not iv(0, 1).contains_plus_tail()


def test_complement_and_subtraction():
    universe = SetExpr.line()
    s = iv(0, 1, True, True)
    c = s.complement(universe)
    assert c == iv(None, 0) | iv(1, None)
    assert (universe - s) == c
    assert (s & c).is_empty()
    assert (s | c) == universe


def test_finite_boundary_values():
    s = iv(0, 1) | SetExpr.point(3) | iv(5, None, True, False)
    assert s.finite_boundary_values() == [F(0), F(1), F(3), F(5)]


def test_closure():
    assert iv(0, 1).closure() == iv(0, 1, True, True)
    assert (iv(0, 1) | iv(1, 2)).closure() == iv(0, 2, True, True)


# -- pointwise semantics of the boolean algebra -------------------------------


@given(set_exprs, set_exprs, probe_points)
def test_union_intersection_difference_pointwise(a, b, probes):
    for x in probes:
        assert (a | b).contains_point(x) == (a.contains_point(x) or b.contains_point(x))
        assert (a & b).contains_point(x) == (a.contains_point(x) and b.contains_point(x))
        assert (a - b).contains_point(x) == (a.contains_point(x) and not b.contains_point(x))


@given(set_exprs, set_exprs)
def test_de_morgan(a, b):
    u = SetExpr.line()
    assert (a | b).complement(u) == (a.complement(u) & b.complement(u))
    assert (a & b).complement(u) == (a.complement(u) | b.complement(u))


@given(set_exprs, set_exprs)
def test_subset_and_intersects_consistency(a, b):
    assert a.is_subset(a | b)
    assert (a & b).is_subset(a)
    inter = a & b
    assert a.intersects(b) == (not inter.is_empty())


@given(set_exprs)
def test_canonicalization_idempotent(a):
    again = SetExpr.from_components(a.components)
    assert again == a
    assert again.components == a.components


def pairwise_union(comps) -> SetExpr:
    """The definition of `SetExpr.from_components`: an elementary piece is in
    the union iff some component holds it, tested piece by component."""
    pieces = _elementary_pieces(sorted({c for comp in comps for c in _component_cuts(comp)}))
    flags = [any(_component_holds(c, k, x) for c in comps) for k, x in pieces]
    return SetExpr(_assemble(pieces, flags))


@given(st.lists(components(), max_size=8))
@example([])
@example([Interval(None, None)])
@example([Interval(F(0), F(1)), Point(F(1)), Interval(F(1), F(2), False, True)])
@example([Interval(None, F(0), False, True), Interval(F(-1), F(3)), Point(F(3))])
def test_from_components_matches_pairwise_definition(comps):
    got = SetExpr.from_components(comps)
    assert got.components == pairwise_union(comps).components


def piecewise_combine(a: SetExpr, b: SetExpr, op) -> SetExpr:
    """The definition of the boolean operators: an elementary piece of the
    common cuts is in the result iff op holds of its membership in a and in b,
    looked up piece by piece."""
    pieces = _elementary_pieces(_cuts(a.components + b.components))
    flags = [op(a.contains(k, x), b.contains(k, x)) for k, x in pieces]
    return SetExpr(_assemble(pieces, flags))


@given(set_exprs, set_exprs)
@example(SetExpr.empty(), SetExpr.empty())
@example(SetExpr.line(), SetExpr.point(0))
@example(iv(0, 1, True, False), iv(1, 2, True, True))
@example(iv(None, 0, False, True), iv(0, None) | SetExpr.point(F(1, 2)))
def test_boolean_operators_match_piecewise_definition(a, b):
    assert (a | b).components == piecewise_combine(a, b, lambda p, q: p or q).components
    assert (a & b).components == piecewise_combine(a, b, lambda p, q: p and q).components
    assert (a - b).components == piecewise_combine(a, b, lambda p, q: p and not q).components
    assert a.is_subset(b) == piecewise_combine(a, b, lambda p, q: p and not q).is_empty()
    assert a.intersects(b) == (not piecewise_combine(a, b, lambda p, q: p and q).is_empty())


@given(set_exprs)
def test_json_roundtrip(a):
    assert SetExpr.from_json_obj(a.to_json_obj()) == a


@given(set_exprs, set_exprs)
def test_one_sided_neighborhoods_respect_union(a, b):
    s = a | b
    for x in [F(0), F(1, 2), F(-3)]:
        if a.contains_right_neighborhood(x) or b.contains_right_neighborhood(x):
            assert s.contains_right_neighborhood(x)
        if a.contains_left_neighborhood(x) or b.contains_left_neighborhood(x):
            assert s.contains_left_neighborhood(x)


# -- the partition lookup against a linear scan ----------------------------------

KINDS = ("atom", "right_limit", "left_limit", "plus_infinity", "minus_infinity")
# Every endpoint and probe is a multiple of 1/12 in [-8, 8], so x +- EPS lies
# in the same elementary piece as the germ at x, and +-FAR beyond every end.
EPS = F(1, 1000)
FAR = F(10**6)


def brute_contains_point(comp, t):
    if isinstance(comp, Point):
        return comp.value == t
    above = comp.lo is None or comp.lo < t or (comp.lo == t and comp.lo_closed)
    below = comp.hi is None or t < comp.hi or (t == comp.hi and comp.hi_closed)
    return above and below


def brute_probe(kind, x):
    """A point that lies in a component exactly when the generator does."""
    if kind == "plus_infinity":
        return FAR
    if kind == "minus_infinity":
        return -FAR
    return x + {"atom": 0, "right_limit": EPS, "left_limit": -EPS}[kind]


@st.composite
def disjoint_components(draw, values=fracs):
    """Pairwise disjoint components in line order, cut at up to five of the
    values; neighbours may touch, as [0,1) with {1} and (1,2) do, and the ends
    may be unbounded."""
    cuts = sorted(draw(st.sets(values, max_size=5)))
    bounds = [None] + cuts + [None]
    comps = []
    held = False  # the interval before holds the cut `lo`
    for lo, hi in zip(bounds, bounds[1:]):
        take = draw(st.booleans())
        lo_closed = lo is not None and not held and take and draw(st.booleans())
        if lo is not None and not held and not lo_closed and draw(st.booleans()):
            comps.append(Point(lo))
        held = take and hi is not None and draw(st.booleans())
        if take:
            comps.append(Interval(lo, hi, lo_closed, held))
    return comps


TOUCHING = [Interval(F(0), F(1), True, False), Point(F(1)), Interval(F(1), F(2))]


@given(disjoint_components(), probe_points)
@example([], [F(0)])
@example(TOUCHING, [F(1, 2)])
@example([Interval(None, F(0)), Point(F(0)), Interval(F(0), None)], [F(0)])
@example([Interval(None, F(-1), False, True), Interval(F(2), None, True, False)], [F(1)])
def test_partition_find_matches_linear_scan(comps, xs):
    part = Partition(comps)
    assert part.first_overlap() is None
    ends = [v for c in comps for v in SetExpr((c,)).finite_boundary_values()]
    queries = [(k, x) for x in xs + ends for k in KINDS[:3]] + [(k, None) for k in KINDS[3:]]
    for kind, x in queries:
        hits = [i for i, c in enumerate(comps) if brute_contains_point(c, brute_probe(kind, x))]
        assert len(hits) <= 1
        assert part.find(kind, x) == (hits[0] if hits else None), (kind, x)


def test_partition_touching_pieces():
    part = Partition(TOUCHING)
    assert part.find("left_limit", F(1)) == 0
    assert part.find("atom", F(1)) == 1
    assert part.find("right_limit", F(1)) == 2
    assert part.find("atom", F(2)) is None
    assert part.find("left_limit", F(0)) is None
    assert part.find("plus_infinity") is None


def test_partition_first_overlap():
    closed, point = Interval(F(0), F(1), True, True), Point(F(1))
    assert Partition([closed, point]).first_overlap() == point
    assert Partition([Interval(F(0), F(1)), point]).first_overlap() is None
    tails = [Interval(None, F(0)), Interval(None, F(1))]
    assert Partition(tails).first_overlap() == tails[1]


def test_format_component():
    assert format_component(Interval(F(0), F(3, 2), True, False)) == "[0,3/2)"
    assert format_component(Interval(None, F(1), False, True)) == "(-inf,1]"
    assert format_component(Point(F(-1, 2))) == "{-1/2}"


# -- the integer-keyed piece index against the per-component definition --------

# Pairwise coprime denominators of 1 to 40 digits: the lcm the index keys its
# cuts over is then their product.
COPRIME_DENS = [1, 2, 3, 5, 7, 1000000007, 10000000000000000051,
                100000000000000000000000000319,
                1000000000000000000000000000000000000003,
                3000000000000000000000000000000000000037]
TINY = F(1, 10**90)  # far below the gap between any two distinct cuts


@st.composite
def wide_fracs(draw):
    den = draw(st.sampled_from(COPRIME_DENS))
    return F(draw(st.integers(-3 * den, 3 * den)), den)


def start_generator(comp):
    """The generator a component starts with: its first point, the right germ
    at an open lower end, or the minus tail."""
    if isinstance(comp, Point):
        return "atom", comp.value
    if comp.lo is None:
        return "minus_infinity", None
    return ("atom" if comp.lo_closed else "right_limit"), comp.lo


def line_order_key(comp):
    """Sorts components by where they start: the minus tail first, then by
    location, an atom before the right germ at the same location."""
    kind, x = start_generator(comp)
    return (0,) if x is None else (1, x, kind == "right_limit")


def adjacent_pair_overlap(comps):
    """The first component, in line order, whose start its predecessor holds:
    the adjacent-pair reference for `Partition.first_overlap`."""
    ordered = sorted(comps, key=line_order_key)
    for a, b in zip(ordered, ordered[1:]):
        if _component_holds(a, *start_generator(b)):
            return b
    return None


def wide_probes(comps):
    """Locations on every cut, a hair to either side of it, between cuts,
    and beyond either end."""
    cuts = _cuts(comps) or [F(0)]
    xs = [cuts[0] - 1, cuts[-1] + 1, -cuts[-1] - 7]
    xs += [c + d for c in cuts for d in (0, TINY, -TINY)]
    xs += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return xs


@given(disjoint_components(wide_fracs()).flatmap(st.permutations), st.lists(wide_fracs(), max_size=4))
@example([], [F(0)])
@example([Interval(None, None)], [F(-5)])
@example([Interval(F(1, 3), F(2, 5), True, False), Point(F(-1, 7))], [F(2, 5)])
@example([Point(F(10**40 + 1, 10**40 + 3)), Interval(None, F(-1, 10**39 + 3))], [F(1)])
def test_index_find_matches_linear_scan(comps, extra):
    part = Partition(comps)
    assert part.first_overlap() is None
    ordered = sorted(comps, key=line_order_key)
    assert [comps[i] for i in part.order] == ordered
    assert part.union() == SetExpr.from_components(comps)
    queries = [(k, x) for x in wide_probes(comps) + extra for k in KINDS[:3]]
    for kind, x in queries + [(k, None) for k in KINDS[3:]]:
        hits = [i for i, c in enumerate(ordered) if _component_holds(c, kind, x)]
        assert len(hits) <= 1
        assert part.find(kind, x) == (hits[0] if hits else None), (kind, x)


@st.composite
def wide_components(draw, cuts):
    """A point, or an interval between two of the cuts or infinity."""
    ends = st.one_of(st.none(), st.sampled_from(cuts))
    if draw(st.booleans()):
        return Point(draw(st.sampled_from(cuts)))
    lo, hi = draw(ends), draw(ends)
    if lo is not None and hi is not None:
        if lo == hi:
            return Point(lo)
        lo, hi = min(lo, hi), max(lo, hi)
    return Interval(lo, hi, lo is not None and draw(st.booleans()), hi is not None and draw(st.booleans()))


overlap_candidates = st.lists(wide_fracs(), min_size=1, max_size=4, unique=True).flatmap(
    lambda cuts: st.lists(wide_components(cuts), max_size=5)
)


@given(overlap_candidates)
@example([])
@example([Interval(F(0), F(1), True, True), Point(F(1))])
@example([Interval(F(1), F(2), True, False), Interval(F(0), F(1), False, True)])
@example([Interval(None, F(1)), Interval(None, F(0))])
@example([Point(F(1, 3)), Interval(F(0), None), Interval(F(-1), F(1, 3), False, True)])
def test_index_first_overlap_matches_adjacent_pairs(comps):
    assert Partition(comps).first_overlap() == adjacent_pair_overlap(comps)
