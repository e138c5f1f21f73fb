"""The integer-keyed cut grid of `sets` against a reference that sorts and
bisects `Fraction` cuts, and the itinerary graph that `Partition.meets` reads
against the pairwise intersection rule."""

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import lcm

from hypothesis import example, given
from hypothesis import strategies as st

from measurecycles import DeterministicKernel, Interval, Point, Polynomial, SetExpr, load_bundled
from measurecycles.sets import Partition, _assemble, _elementary_pieces
from support import conveyor_kernel

F = Fraction

# -- the reference: cuts as a sorted set of Fractions, placed by bisection -----


def ref_cuts(comps):
    cuts = set()
    for comp in comps:
        if isinstance(comp, Point):
            cuts.add(comp.value)
        else:
            cuts.update(c for c in (comp.lo, comp.hi) if c is not None)
    return sorted(cuts)


def ref_run(comp, cuts):
    if isinstance(comp, Point):
        j = 2 * bisect_left(cuts, comp.value) + 1
        return j, j
    lo, hi = comp.lo, comp.hi
    first = 0 if lo is None else 2 * bisect_left(cuts, lo) + (1 if comp.lo_closed else 2)
    last = 2 * len(cuts) if hi is None else 2 * bisect_left(cuts, hi) + (1 if comp.hi_closed else 0)
    return first, last


def ref_flags(comps, cuts):
    depth = [0] * (2 * len(cuts) + 2)
    for comp in comps:
        first, last = ref_run(comp, cuts)
        depth[first] += 1
        depth[last + 1] -= 1
    return [d > 0 for d in accumulate(depth[:-1])]


def ref_from_components(comps):
    cuts = ref_cuts(comps)
    return SetExpr(_assemble(_elementary_pieces(cuts), ref_flags(comps, cuts)))


def ref_combine(a, b, op):
    cuts = ref_cuts(a.components + b.components)
    flags = map(op, ref_flags(a.components, cuts), ref_flags(b.components, cuts))
    return SetExpr(_assemble(_elementary_pieces(cuts), list(flags)))


class RefPartition:
    """Owners of the pieces of the Fraction cuts, up to the first overlap."""

    def __init__(self, comps):
        self.cuts = ref_cuts(comps)
        runs = [ref_run(comp, self.cuts) for comp in comps]
        self.order = tuple(sorted(range(len(comps)), key=lambda i: runs[i][0]))
        self.owner = [None] * (2 * len(self.cuts) + 1)
        self.overlap, end = None, -1
        for rank, i in enumerate(self.order):
            first, last = runs[i]
            if first <= end:
                self.overlap = comps[i]
                break
            self.owner[first : last + 1] = [rank] * (last + 1 - first)
            end = last

    def find(self, kind, x=None):
        if kind == "minus_infinity":
            return self.owner[0]
        if kind == "plus_infinity":
            return self.owner[-1]
        j = bisect_left(self.cuts, x)
        if j < len(self.cuts) and self.cuts[j] == x:
            return self.owner[2 * j + 1 if kind == "atom" else 2 * j + 2 if kind == "right_limit" else 2 * j]
        return self.owner[2 * j]


# -- strategies: 40-digit numerators over pairwise coprime denominators ---------

COPRIME_DENS = [1, 2, 3, 7, 1000000007, 10000000000000000051,
                100000000000000000000000000319,
                1000000000000000000000000000000000000003]
KINDS = ["atom", "right_limit", "left_limit"]


@st.composite
def wide_fracs(draw):
    den = draw(st.sampled_from(COPRIME_DENS))
    if draw(st.booleans()):  # a 40-digit numerator
        return F(draw(st.integers(-(10**40), 10**40)), den)
    return F(draw(st.integers(-3 * den, 3 * den)), den)


@st.composite
def wide_components(draw):
    if draw(st.booleans()):
        return Point(draw(wide_fracs()))
    lo, hi = draw(st.one_of(st.none(), wide_fracs())), draw(st.one_of(st.none(), wide_fracs()))
    if lo is not None and hi is not None:
        if lo == hi:
            return Point(lo)
        lo, hi = min(lo, hi), max(lo, hi)
    return Interval(lo, hi, lo is not None and draw(st.booleans()), hi is not None and draw(st.booleans()))


component_lists = st.lists(wide_components(), max_size=6)

EXAMPLES = [
    [],
    [Interval(None, None)],
    [Interval(None, F(0), False, True), Point(F(0)), Interval(F(0), None)],
    [Point(F(10**40 + 1, 10**40 + 3)), Interval(F(-1, 7), F(10**40, 3), True, False)],
    [Interval(F(1, 3), F(1, 2)), Interval(F(1, 2), F(2, 3), True, True), Point(F(1, 2))],
]


def probes(comps):
    """Every cut, a hair to either side of it, between cuts and beyond both ends."""
    cuts = ref_cuts(comps) or [F(0)]
    tiny = F(1, 10**200)
    xs = [cuts[0] - 1, cuts[-1] + 1]
    xs += [c + d for c in cuts for d in (0, tiny, -tiny)]
    return xs + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]


@given(component_lists)
@example(EXAMPLES[0])
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
def test_from_components_matches_the_fraction_path(comps):
    assert SetExpr.from_components(comps).components == ref_from_components(comps).components


@given(component_lists, component_lists)
@example(EXAMPLES[1], EXAMPLES[3])
@example(EXAMPLES[2], EXAMPLES[4])
@example(EXAMPLES[4], EXAMPLES[3])
def test_boolean_operators_match_the_fraction_path(xs, ys):
    a, b = SetExpr.from_components(xs), SetExpr.from_components(ys)
    assert (a | b).components == ref_combine(a, b, lambda p, q: p or q).components
    assert (a & b).components == ref_combine(a, b, lambda p, q: p and q).components
    assert (a - b).components == ref_combine(a, b, lambda p, q: p and not q).components


@given(component_lists)
@example(EXAMPLES[2])
@example(EXAMPLES[3])
@example(EXAMPLES[4])
def test_partition_matches_the_fraction_path(comps):
    part, ref = Partition(comps), RefPartition(comps)
    assert part.cuts == tuple(ref.cuts)
    assert part.order == ref.order
    assert part.first_overlap() == ref.overlap
    queries = [(k, x) for x in probes(comps) for k in KINDS] + [("plus_infinity", None), ("minus_infinity", None)]
    for kind, x in queries:
        assert part.find(kind, x) == ref.find(kind, x), (kind, x)


def test_the_grid_scale_is_the_lcm_of_the_distinct_denominators():
    comps = [Point(F(1, d)) for d in COPRIME_DENS] + [Interval(F(-5, 3), F(4, 7), True, False)]
    part = Partition(comps)
    assert part._scale == lcm(*COPRIME_DENS)
    assert part._keys == [c.numerator * (part._scale // c.denominator) for c in part.cuts]


# -- the itinerary graph -------------------------------------------------------


def disjoint_partition(draw_cuts, flags):
    """Components between consecutive sorted cuts: a piece for each flagged gap
    and cut, in line order, with no two touching pieces merged."""
    comps = []
    cuts = sorted(set(draw_cuts))
    ends = [None, *cuts, None]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if flags[2 * k % len(flags)]:
            comps.append(Interval(lo, hi))
        if hi is not None and flags[(2 * k + 1) % len(flags)]:
            comps.append(Point(hi))
    return comps


@given(st.lists(wide_fracs(), max_size=5), st.lists(st.booleans(), min_size=1, max_size=12), component_lists)
@example([F(0), F(1)], [True], [Interval(F(0), F(1))])
@example([F(0), F(1)], [True, False], [Point(F(1)), Interval(F(1, 2), F(3))])
def test_meets_matches_pairwise_intersection(cuts, flags, query):
    comps = disjoint_partition(cuts, flags)
    part = Partition(comps)
    ordered = [comps[i] for i in part.order]
    image = SetExpr.from_components(query)
    want = [j for j, comp in enumerate(ordered) if image.intersects(SetExpr((comp,)))]
    assert part.meets(image.components) == want
    assert part.meets(query) == want


def pairwise_edges(kernel):
    """The n^2 rule: i -> j when the image of piece i intersects piece j."""
    held = [SetExpr((comp,)) for comp, _ in kernel.pieces]
    return [[j for j, piece in enumerate(held) if image.intersects(piece)] for image in kernel._images]


def partition_edges(kernel):
    return [kernel._partition.meets(image.components) for image in kernel._images]


def three_piece_quadratic_map():
    pieces = (
        (Interval(F(0), F(1, 3), True, False), Polynomial.of(F(5, 8), 0, F(-9, 2))),
        (Interval(F(1, 3), F(1, 2), True, False), Polynomial.of(3, -18, 27)),
        (Interval(F(1, 2), F(1), True, True), Polynomial.of(0, 1, -1)),
    )
    return DeterministicKernel(SetExpr.interval(0, 1, True, True), pieces)


def test_itinerary_edges_match_pairwise_intersection():
    rng = random.Random(2020)
    kernels = [conveyor_kernel(rng, 8) for _ in range(60)]
    kernels += [load_bundled(name).kernel for name in ("interval_squares", "interval_squares_closed")]
    kernels.append(three_piece_quadratic_map())
    for k in kernels:
        assert partition_edges(k) == pairwise_edges(k)
    assert partition_edges(kernels[-1]) == [[0, 1, 2], [0, 1, 2], [0]]
