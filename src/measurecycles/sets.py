"""Exact sets of reals: finite unions of rational intervals and points.

`SetExpr` is the algebra the measures are evaluated on.  Every set is kept in a
canonical form (pairwise disjoint, non-adjacent components sorted left to
right) so equality, hashing and serialization are structural.  Endpoints are
rational; ``None`` stands for an infinite endpoint (always open).

All cut-and-piece bookkeeping runs on one integer grid (`_Grid`): the cuts
(finite ends and points) are scaled by the lcm of their denominators, then
deduplicated, sorted and bisected as integers.  A key has at most the bits of
its cut plus those of the distinct denominators, so every step costs time
polynomial in the bit size of the input.  The boolean operators mark the
pieces each operand covers on the grid of all their cuts, and one lookup,
`Partition.find`, answers "which component holds this generator" (an atom, a
germ on either side of a point, or a tail) for sets, piecewise functions and
kernels alike.  It relies on the components being pairwise disjoint;
canonical sets are, and piecewise functions check it when they are built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterable, Optional, Sequence

from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class Point:
    value: Fraction


@dataclass(frozen=True)
class Interval:
    lo: Optional[Fraction]  # None = -infinity
    hi: Optional[Fraction]  # None = +infinity
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ValueError("an infinite endpoint cannot be closed")
        if self.hi is None and self.hi_closed:
            raise ValueError("an infinite endpoint cannot be closed")
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise ValueError("interval needs lo < hi; use Point for singletons")


Component = Point | Interval


def format_component(comp: Component) -> str:
    """Set text form of one component: ``{p}``, ``[lo,hi)``, ``(-inf,hi]``, ..."""
    if isinstance(comp, Point):
        return "{%s}" % format_rational(comp.value)
    lo = "-inf" if comp.lo is None else format_rational(comp.lo)
    hi = "+inf" if comp.hi is None else format_rational(comp.hi)
    return ("[" if comp.lo_closed else "(") + lo + "," + hi + ("]" if comp.hi_closed else ")")


def _component_holds(comp: Component, kind: str, x: Optional[Fraction] = None) -> bool:
    """Does the component hold the generator `kind` (a GeneratorKind value) at x?

    The per-component definition that `Partition.find` must agree with.
    """
    if isinstance(comp, Point):
        return kind == "atom" and comp.value == x
    lo, hi = comp.lo, comp.hi
    if kind == "atom":
        return (lo is None or lo < x or (lo == x and comp.lo_closed)) and (
            hi is None or x < hi or (x == hi and comp.hi_closed)
        )
    if kind == "right_limit":
        return (lo is None or lo <= x) and (hi is None or x < hi)
    if kind == "left_limit":
        return (lo is None or lo < x) and (hi is None or x <= hi)
    if kind == "plus_infinity":
        return hi is None
    return lo is None


def _component_cuts(comp: Component) -> list[Fraction]:
    if isinstance(comp, Point):
        return [comp.value]
    return [c for c in (comp.lo, comp.hi) if c is not None]


def _elementary_pieces(cuts: Sequence[Fraction]) -> list[tuple[str, Optional[Fraction]]]:
    """Cut the line at the sorted cuts.

    Each piece is given, in line order, by a generator only it holds: the atom
    for a cut, the right germ at the previous cut (or the minus tail) for a gap.
    So piece 0 is the gap before the first cut, and cut j is piece 2j + 1
    with its right gap at 2j + 2.
    """
    pieces: list[tuple[str, Optional[Fraction]]] = [("minus_infinity", None)]
    for c in cuts:
        pieces.append(("atom", c))
        pieces.append(("right_limit", c))
    return pieces


def _cuts(comps: Iterable[Component]) -> list[Fraction]:
    return list(_Grid(comps).cuts)


class _Grid:
    """The components' sorted distinct cuts on one integer scale, the lcm of
    their denominators: cut c is keyed by c*scale and a location x falls by
    the floor and remainder of x*scale, bisected among the keys."""

    def __init__(self, comps: Iterable[Component]):
        ends = [c for comp in comps for c in _component_cuts(comp)]
        self._scale = scale = lcm(*{c.denominator for c in ends})
        keyed = {c.numerator * (scale // c.denominator): c for c in ends}
        self._keys = sorted(keyed)
        self.cuts = tuple(keyed[k] for k in self._keys)  # sorted, distinct

    def _piece(self, kind: str, x: Optional[Fraction] = None) -> int:
        """The one of the `_elementary_pieces` that holds the generator `kind` at x."""
        keys = self._keys
        if kind == "minus_infinity":
            return 0
        if kind == "plus_infinity":
            return 2 * len(keys)
        q, r = divmod(x.numerator * self._scale, x.denominator)
        j = bisect_right(keys, q) if r else bisect_left(keys, q)  # cuts below x
        if j < len(keys) and keys[j] == q:  # x is cut j
            return 2 * j + 1 if kind == "atom" else 2 * j + 2 if kind == "right_limit" else 2 * j
        return 2 * j

    def _run(self, comp: Component) -> tuple[int, int]:
        """The pieces holding a component's first and last generator."""
        if isinstance(comp, Point):
            return (self._piece("atom", comp.value),) * 2
        lo, hi = comp.lo, comp.hi
        first = self._piece("minus_infinity" if lo is None else "atom" if comp.lo_closed else "right_limit", lo)
        return first, self._piece("plus_infinity" if hi is None else "atom" if comp.hi_closed else "left_limit", hi)

    def _set(self, flags: list[bool]) -> "SetExpr":
        return SetExpr(_assemble(_elementary_pieces(self.cuts), flags))

    def _flags(self, comps: Iterable[Component]) -> list[bool]:
        """Which pieces the components cover, for ends among the cuts: +1
        where a component's run starts and -1 just past it, summed."""
        depth = [0] * (2 * len(self._keys) + 2)
        for comp in comps:
            first, last = self._run(comp)
            depth[first] += 1
            depth[last + 1] -= 1
        return [d > 0 for d in accumulate(depth[:-1])]


def _assemble(pieces: list[tuple[str, Optional[Fraction]]], flags: list[bool]) -> tuple[Component, ...]:
    """Rebuild canonical components from elementary-piece membership flags."""
    comps: list[Component] = []
    i = 0
    n = len(pieces)
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        start_kind, lo = pieces[i]
        end_kind, end = pieces[j]
        if i == j and start_kind == "atom":
            comps.append(Point(lo))
        elif end_kind == "atom":
            comps.append(Interval(lo, end, start_kind == "atom", True))
        else:
            hi = pieces[j + 1][1] if j + 1 < n else None
            comps.append(Interval(lo, hi, start_kind == "atom", False))
        i = j + 1
    return tuple(comps)


class Partition(_Grid):
    """Components indexed by the elementary pieces of their cuts' `_Grid`.

    At construction each piece is mapped to the component that covers it, or
    None.  Components are numbered in line order, and `order` lists each one's
    index in the order it came.  A lookup places a generator on its piece by
    the grid's key rule and reads the owner: one bisection over integers with
    at most the bits of a cut plus those of the distinct cut denominators, so
    it costs time polynomial in the bit size of the input.

    Lookups assume the components are pairwise disjoint; `first_overlap`
    checks that, and the pieces are filled only up to the first overlap.
    """

    def __init__(self, components: Iterable[Component]):
        given = tuple(components)
        super().__init__(given)
        runs = [self._run(comp) for comp in given]
        self.order = tuple(sorted(range(len(given)), key=lambda i: runs[i][0]))
        self._owner: list[Optional[int]] = [None] * (2 * len(self._keys) + 1)
        self._overlap: Optional[Component] = None
        end = -1  # the last piece owned so far
        for rank, i in enumerate(self.order):
            first, last = runs[i]
            if first <= end:
                self._overlap = given[i]
                break
            self._owner[first : last + 1] = [rank] * (last + 1 - first)
            end = last

    def find(self, kind: str, x: Optional[Fraction] = None) -> Optional[int]:
        """Index (in line order) of the component holding the generator `kind`
        at x, or None."""
        return self._owner[self._piece(kind, x)]

    def meets(self, comps: Iterable[Component]) -> list[int]:
        """Indices (in line order) of the components that meet any of comps,
        whose ends need not be cuts: the owners of the pieces in their runs."""
        owners = {o for first, last in map(self._run, comps) for o in self._owner[first : last + 1]}
        return sorted(owners - {None})

    def first_overlap(self) -> Optional[Component]:
        """The first component in line order that meets an earlier one, or None."""
        return self._overlap

    def union(self) -> "SetExpr":
        """The union of the components, for pairwise disjoint ones."""
        return self._set([o is not None for o in self._owner])


@dataclass(frozen=True)
class SetExpr:
    components: tuple[Component, ...] = ()

    # -- construction ------------------------------------------------------

    @staticmethod
    def empty() -> "SetExpr":
        return SetExpr(())

    @staticmethod
    def line() -> "SetExpr":
        return SetExpr((Interval(None, None),))

    @staticmethod
    def point(value) -> "SetExpr":
        return SetExpr((Point(parse_rational(value)),))

    @staticmethod
    def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> "SetExpr":
        lo = None if lo is None else parse_rational(lo)
        hi = None if hi is None else parse_rational(hi)
        return SetExpr((Interval(lo, hi, lo_closed, hi_closed),))

    @staticmethod
    def from_components(components: Iterable[Component]) -> "SetExpr":
        """Union of arbitrary (possibly overlapping) components, canonicalized."""
        comps = tuple(components)
        grid = _Grid(comps)
        return grid._set(grid._flags(comps))

    # -- boolean algebra ---------------------------------------------------

    def _combine(self, other: "SetExpr", op) -> "SetExpr":
        grid = _Grid(self.components + other.components)
        a, b = grid._flags(self.components), grid._flags(other.components)
        return grid._set(list(map(op, a, b)))

    def __or__(self, other: "SetExpr") -> "SetExpr":
        return self._combine(other, lambda a, b: a or b)

    def __and__(self, other: "SetExpr") -> "SetExpr":
        return self._combine(other, lambda a, b: a and b)

    def __sub__(self, other: "SetExpr") -> "SetExpr":
        return self._combine(other, lambda a, b: a and not b)

    def complement(self, universe: Optional["SetExpr"] = None) -> "SetExpr":
        if universe is None:
            universe = SetExpr.line()
        return universe - self

    # -- predicates --------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.components

    @cached_property
    def _partition(self) -> Partition:
        return Partition(self.components)

    def contains(self, kind: str, x: Optional[Fraction] = None) -> bool:
        """Does the set hold the generator `kind` (a GeneratorKind value) at x?"""
        return self._partition.find(kind, x) is not None

    def contains_point(self, x: Fraction) -> bool:
        return self.contains("atom", x)

    def contains_right_neighborhood(self, x: Fraction) -> bool:
        """Some (x, x+eps) lies inside the set."""
        return self.contains("right_limit", x)

    def contains_left_neighborhood(self, x: Fraction) -> bool:
        """Some (x-eps, x) lies inside the set."""
        return self.contains("left_limit", x)

    def contains_plus_tail(self) -> bool:
        return self.contains("plus_infinity")

    def contains_minus_tail(self) -> bool:
        return self.contains("minus_infinity")

    def is_subset(self, other: "SetExpr") -> bool:
        return (self - other).is_empty()

    def intersects(self, other: "SetExpr") -> bool:
        return not (self & other).is_empty()

    # -- derived sets ------------------------------------------------------

    def closure(self) -> "SetExpr":
        closed = []
        for c in self.components:
            if isinstance(c, Point):
                closed.append(c)
            else:
                closed.append(
                    Interval(c.lo, c.hi, c.lo is not None, c.hi is not None)
                )
        return SetExpr.from_components(closed)

    def finite_boundary_values(self) -> list[Fraction]:
        """Finite endpoints and point locations, sorted and deduplicated."""
        return list(self._partition.cuts)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list:
        out = []
        for c in self.components:
            if isinstance(c, Point):
                out.append({"point": format_rational(c.value)})
            else:
                out.append(
                    {
                        "lo": "-inf" if c.lo is None else format_rational(c.lo),
                        "hi": "+inf" if c.hi is None else format_rational(c.hi),
                        "lo_closed": c.lo_closed,
                        "hi_closed": c.hi_closed,
                    }
                )
        return out

    @staticmethod
    def component_from_json_obj(obj) -> Component:
        if not isinstance(obj, dict):
            raise ValueError(f"set component must be an object, got {obj!r}")
        if "point" in obj:
            return Point(parse_rational(obj["point"]))
        if "lo" not in obj or "hi" not in obj:
            raise ValueError(f"set component needs 'point' or 'lo'/'hi': {obj!r}")
        lo_raw, hi_raw = obj["lo"], obj["hi"]
        lo = None if lo_raw in (None, "-inf") else parse_rational(lo_raw)
        hi = None if hi_raw in (None, "inf", "+inf") else parse_rational(hi_raw)
        return Interval(lo, hi, bool(obj.get("lo_closed", False)), bool(obj.get("hi_closed", False)))

    @staticmethod
    def from_json_obj(obj) -> "SetExpr":
        if not isinstance(obj, list):
            raise ValueError(f"set must be a list of components, got {obj!r}")
        return SetExpr.from_components(SetExpr.component_from_json_obj(item) for item in obj)

    def __str__(self) -> str:
        if not self.components:
            return "{}"
        return " u ".join(format_component(c) for c in self.components)
