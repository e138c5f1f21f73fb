"""Cycles of measures: tuples cyclically permuted by the kernel's pushforward.

A cycle of period m is a tuple of pairwise distinct nonnegative measures
(mu_1, ..., mu_m) with push(mu_i) = mu_{i+1} and push(mu_m) = mu_1.  The mean
measure of a cycle is a fixed point of the pushforward; cycles over the same
kernel with equal periods add coordinatewise; positive scaling and
normalization preserve cyclicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InvariantViolation, MeasureChainError, NotACycle, PeriodMismatch
from .kernels import Kernel, StochasticKernel
from .measures import Measure, is_disjoint
from .rationals import parse_rational
from .sets import SetExpr, _component_cuts


class CycleKind(Enum):
    COUNTABLY_ADDITIVE = "countably_additive"
    PURELY_FINITELY_ADDITIVE = "purely_finitely_additive"
    MIXED = "mixed"


def verify_cycle(kernel: Kernel, coords: Sequence[Measure]) -> bool:
    """True iff the measures are nonnegative, pairwise distinct, and cyclic."""
    coords = list(coords)
    if not coords:
        return False
    if any(m.is_zero() or not m.is_nonnegative() for m in coords):
        return False
    if len(set(coords)) != len(coords):
        return False
    try:
        for i, m in enumerate(coords):
            if kernel.push_measure(m) != coords[(i + 1) % len(coords)]:
                return False
    except MeasureChainError:
        return False
    return True


@dataclass(frozen=True)
class Cycle:
    kernel: Kernel
    coords: tuple[Measure, ...]

    def __post_init__(self):
        if not verify_cycle(self.kernel, self.coords):
            raise NotACycle(f"measures are not cyclically permuted: {list(map(str, self.coords))}")

    @property
    def period(self) -> int:
        return len(self.coords)

    def mean_measure(self) -> Measure:
        total = Measure.zero()
        for m in self.coords:
            total = total + m
        return total * Fraction(1, self.period)

    def norm(self) -> Fraction:
        norms = {m.norm() for m in self.coords}
        if len(norms) != 1:
            raise InvariantViolation("cycle coordinates must share one norm")
        return norms.pop()

    def scale(self, gamma) -> "Cycle":
        g = parse_rational(gamma)
        if g <= 0:
            raise ValueError("cycle scaling needs a positive factor")
        return Cycle(self.kernel, tuple(g * m for m in self.coords))

    def normalize(self) -> "Cycle":
        return self.scale(1 / self.norm())

    def classify(self) -> CycleKind:
        return classify_cycle(self)

    def decompose(self) -> "DecomposedCycle":
        return decompose_cycle(self)

    def is_linearly_independent(self) -> bool:
        return linearly_independent(self.coords)

    def to_json_obj(self) -> dict:
        return {"period": self.period, "coords": [m.to_json_obj() for m in self.coords]}

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.coords) + ")"


def find_cycle_from(kernel: Kernel, seed: Measure, max_steps: int) -> Optional[Cycle]:
    """Iterate the pushforward from the seed until an exact repeat closes a cycle."""
    seen: dict[Measure, int] = {}
    trail: list[Measure] = []
    current = seed
    for _ in range(max_steps + 1):
        if current in seen:
            start = seen[current]
            return Cycle(kernel, tuple(trail[start:]))
        seen[current] = len(trail)
        trail.append(current)
        try:
            current = kernel.push_measure(current)
        except MeasureChainError:
            return None
    return None


def cycle_sum(a: Cycle, b: Cycle) -> Cycle:
    if a.kernel != b.kernel:
        raise ValueError("cycle_sum needs cycles over the same kernel")
    if a.period != b.period:
        raise PeriodMismatch(f"periods differ: {a.period} vs {b.period}")
    return Cycle(a.kernel, tuple(x + y for x, y in zip(a.coords, b.coords)))


def _rotations(coords: tuple[Measure, ...]) -> Iterable[tuple[Measure, ...]]:
    for r in range(len(coords)):
        yield coords[r:] + coords[:r]


def _serial_key(coords: tuple[Measure, ...]) -> tuple[str, ...]:
    return tuple(json.dumps(m.to_json_obj(), separators=(",", ":")) for m in coords)


def canonical_rotation(cycle: Cycle) -> Cycle:
    """The rotation whose serialized coordinate list is lexicographically least."""
    best = min(_rotations(cycle.coords), key=_serial_key)
    return Cycle(cycle.kernel, best)


def cycle_equal(a: Cycle, b: Cycle) -> bool:
    """Equality up to rotation (never reflection)."""
    if a.kernel != b.kernel or a.period != b.period:
        return False
    return any(rot == b.coords for rot in _rotations(a.coords))


def classify_cycle(cycle: Cycle) -> CycleKind:
    """Homogeneous classification of the coordinates' additivity type.

    Every coordinate of a cycle has the same type; a mismatch would contradict
    the invariance of the countably additive and purely finitely additive
    parts, so it is reported as an InvariantViolation.
    """
    kinds = set()
    for m in cycle.coords:
        ca, pfa = m.split()
        if pfa.is_zero():
            kinds.add(CycleKind.COUNTABLY_ADDITIVE)
        elif ca.is_zero():
            kinds.add(CycleKind.PURELY_FINITELY_ADDITIVE)
        else:
            kinds.add(CycleKind.MIXED)
    if len(kinds) != 1:
        raise InvariantViolation(
            "cycle coordinates mix additivity types: " + ", ".join(sorted(k.value for k in kinds))
        )
    return kinds.pop()


@dataclass(frozen=True)
class DecomposedCycle:
    """Coordinatewise countably-additive / purely-finitely-additive split.

    For a cycle with pairwise disjoint coordinates both sides are verified
    cycles (or empty).  For non-disjoint coordinates the split is still
    returned but flagged `verified=False`, with the raw parts in
    `ca_parts`/`pfa_parts`.
    """

    ca: Optional[Cycle]
    pfa: Optional[Cycle]
    ca_parts: tuple[Measure, ...]
    pfa_parts: tuple[Measure, ...]
    verified: bool


def decompose_cycle(cycle: Cycle) -> DecomposedCycle:
    ca_parts = []
    pfa_parts = []
    for m in cycle.coords:
        ca, pfa = m.split()
        ca_parts.append(ca)
        pfa_parts.append(pfa)
    ca_parts = tuple(ca_parts)
    pfa_parts = tuple(pfa_parts)
    disjoint = all(
        is_disjoint(a, b)
        for i, a in enumerate(cycle.coords)
        for b in cycle.coords[i + 1 :]
    )

    def side(parts: tuple[Measure, ...]) -> Optional[Cycle]:
        if all(p.is_zero() for p in parts):
            return None
        try:
            return Cycle(cycle.kernel, parts)
        except NotACycle:
            return None

    ca_side = side(ca_parts)
    pfa_side = side(pfa_parts)
    if disjoint:
        if (ca_side is None and any(not p.is_zero() for p in ca_parts)) or (
            pfa_side is None and any(not p.is_zero() for p in pfa_parts)
        ):
            raise InvariantViolation(
                "disjoint cycle split into a non-cycle; the split parts must cycle"
            )
    return DecomposedCycle(ca_side, pfa_side, ca_parts, pfa_parts, disjoint)


def row_reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Exact Gauss-Jordan elimination in place over the first ncols columns.

    Pivot rows end up on top, scaled to a leading 1 with zeros above and below
    it; entries past ncols (an augmented side) are carried along.  Returns the
    pivot columns in order, so their number is the rank.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def measure_rank(measures: Sequence[Measure]) -> int:
    """Exact rank of the measures over the union of their generators."""
    basis = sorted(
        {g for m in measures for g in m.generators()}, key=lambda g: g.sort_key()
    )
    rows = [[m.coefficient(g) for g in basis] for m in measures]
    return len(row_reduce(rows, len(basis)))


def linearly_independent(measures: Sequence[Measure]) -> bool:
    return measure_rank(measures) == len(measures)


def _boundary_seeds(S: SetExpr, values: Iterable[Fraction]) -> list[Measure]:
    """The atom and the one-sided germs at each value, wherever S holds them."""
    seeds: list[Measure] = []
    for v in values:
        if S.contains_point(v):
            seeds.append(Measure.dirac(v))
        if S.contains_right_neighborhood(v):
            seeds.append(Measure.right_germ(v))
        if S.contains_left_neighborhood(v):
            seeds.append(Measure.left_germ(v))
    return seeds


def _deterministic_seeds(kernel) -> list[Measure]:
    boundaries = sorted({v for comp, _ in kernel.pieces for v in _component_cuts(comp)})
    seeds = _boundary_seeds(kernel.space, boundaries)
    if kernel.space.contains_plus_tail():
        seeds.append(Measure.at_plus_infinity())
    if kernel.space.contains_minus_tail():
        seeds.append(Measure.at_minus_infinity())
    return seeds


def _stochastic_seeds(kernel: StochasticKernel) -> list[Measure]:
    from .state_cycles import find_cyclic_classes

    seeds = [Measure.dirac(s) for s in kernel.states]
    for info in find_cyclic_classes(kernel):
        current = info.subclass_invariant
        for _ in range(info.period):
            seeds.append(current)
            current = kernel.push_measure(current)
    return seeds


def canonical_seeds(kernel: Kernel) -> list[Measure]:
    """Deterministic seed list for the cycle search.

    Finite chains: an atom per state plus the exact invariant distribution of
    each cyclic subclass.  Piecewise kernels: atoms and one-sided germs at
    every piece boundary value that the space supports, plus infinity masses
    for unbounded spaces.
    """
    if isinstance(kernel, StochasticKernel):
        return _stochastic_seeds(kernel)
    return _deterministic_seeds(kernel)


def enumerate_cycles(kernel: Kernel, max_period: int) -> list[Cycle]:
    """All distinct cycles reachable from the canonical seeds, canonically sorted."""
    max_steps = 4 * max_period + 8
    found: dict[tuple[str, ...], Cycle] = {}
    for seed in canonical_seeds(kernel):
        cycle = find_cycle_from(kernel, seed, max_steps)
        if cycle is None or cycle.period > max_period:
            continue
        canon = canonical_rotation(cycle)
        found.setdefault(_serial_key(canon.coords), canon)
    return [found[key] for key in sorted(found, key=lambda k: (len(k), k))]
