"""Cycles of measures: tuples cyclically permuted by the kernel's pushforward.

A cycle of period m is a tuple of pairwise distinct nonnegative measures
(mu_1, ..., mu_m) with push(mu_i) = mu_{i+1} and push(mu_m) = mu_1.  The mean
measure of a cycle is a fixed point of the pushforward; cycles over the same
kernel with equal periods add coordinatewise; positive scaling and
normalization preserve cyclicity.  Every cycle splits coordinatewise into a
countably additive and a purely finitely additive cycle (`decompose_cycle`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import MeasureChainError, NotACycle, PeriodMismatch
from .kernels import DeterministicKernel, Kernel, StochasticKernel
from .measures import Measure
from .polynomials import Polynomial, rational_roots
from .rationals import parse_rational
from .sets import SetExpr


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
        return sum(self.coords, Measure.zero()) * Fraction(1, self.period)

    def norm(self) -> Fraction:
        """The norm of every coordinate: a push keeps the mass of a
        nonnegative measure."""
        return self.coords[0].norm()

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

    def to_json_obj(self) -> dict:
        return {"period": self.period, "coords": [m.to_json_obj() for m in self.coords]}

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.coords) + ")"


def _orbit(kernel: Kernel, mu: Measure, n: int) -> list[Measure]:
    """mu and its first n pushes."""
    orbit = [mu]
    for _ in range(n):
        orbit.append(kernel.push_measure(orbit[-1]))
    return orbit


def find_cycle_from(kernel: Kernel, seed: Measure, max_steps: int) -> Optional[Cycle]:
    """Push the seed until an exact repeat closes a cycle; return that cycle
    already in canonical rotation, or None if none closes within max_steps or
    a push leaves the space."""
    seen: dict[Measure, int] = {}  # the orbit so far, in order, with positions
    current = seed
    for _ in range(max_steps + 1):
        if current in seen:
            return Cycle(kernel, _least_rotation(tuple(seen)[seen[current]:]))
        seen[current] = len(seen)
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


def _rotations(coords: tuple) -> Iterable[tuple]:
    for r in range(len(coords)):
        yield coords[r:] + coords[:r]


def _serial_key(coords: tuple[Measure, ...]) -> tuple[str, ...]:
    return tuple(json.dumps(m.to_json_obj(), separators=(",", ":")) for m in coords)


def _least_rotation(coords: tuple[Measure, ...]) -> tuple[Measure, ...]:
    """The rotation with the least `_serial_key`; each coordinate is
    serialized once."""
    keys = _serial_key(coords)
    r = min(range(len(coords)), key=lambda r: keys[r:] + keys[:r])
    return coords[r:] + coords[:r]


def canonical_rotation(cycle: Cycle) -> Cycle:
    """The rotation whose serialized coordinate list is lexicographically least."""
    return Cycle(cycle.kernel, _least_rotation(cycle.coords))


def cycle_equal(a: Cycle, b: Cycle) -> bool:
    """Equality up to rotation (never reflection)."""
    if a.kernel != b.kernel or a.period != b.period:
        return False
    return any(rot == b.coords for rot in _rotations(a.coords))


def measure_kind(m: Measure) -> CycleKind:
    """The additivity type of a nonzero measure."""
    ca, pfa = m.split()
    if pfa.is_zero():
        return CycleKind.COUNTABLY_ADDITIVE
    return CycleKind.PURELY_FINITELY_ADDITIVE if ca.is_zero() else CycleKind.MIXED


def classify_cycle(cycle: Cycle) -> CycleKind:
    """The additivity type of the coordinates, read from the first.  They all
    share it: both sides of the split cycle (`decompose_cycle`), so each side
    is zero on every coordinate or on none."""
    return measure_kind(cycle.coords[0])


def _least_period_cycle(kernel: Kernel, parts: tuple[Measure, ...]) -> Optional[Cycle]:
    """Cyclic parts as a cycle of their least period, or None if zero."""
    if parts[0].is_zero():
        return None
    d = next(d for d in range(1, len(parts) + 1) if parts[d % len(parts)] == parts[0])
    return Cycle(kernel, parts[:d])


@dataclass(frozen=True)
class DecomposedCycle:
    """Coordinatewise countably-additive / purely-finitely-additive split.

    Coordinate i of the cycle is `ca_parts[i] + pfa_parts[i]`.  `ca` and `pfa`
    are the sides as cycles of their least periods, which divide the cycle's,
    from its first coordinate on; a zero side is None.  A side repeats
    `period // side.period` times round the cycle.
    """

    ca: Optional[Cycle]
    pfa: Optional[Cycle]
    ca_parts: tuple[Measure, ...]
    pfa_parts: tuple[Measure, ...]

    @property
    def verified(self) -> bool:
        """Always True, as both sides always cycle; kept for callers written
        when only splits of disjoint coordinates were known to cycle."""
        return True


def decompose_cycle(cycle: Cycle) -> DecomposedCycle:
    """Split each coordinate into its atoms (countably additive part) and the
    rest (purely finitely additive part); both sides always cycle.

    Write mu_i = lambda_i + nu_i with lambda_i the atoms.  A push sends atoms
    to atoms, and it keeps the mass of a nonnegative measure, since every
    generator pushes to a probability.  So the atoms of push(mu_i) = mu_{i+1}
    are push(lambda_i) plus the atoms of push(nu_i), and
    ||lambda_{i+1}|| = ||lambda_i|| + ||atoms of push(nu_i)||.  Going once
    round the cycle forces every added term to 0, so push(lambda_i) =
    lambda_{i+1} and push(nu_i) = nu_{i+1}: each side is a cycle whose least
    period divides the cycle's.
    """
    ca_parts, pfa_parts = map(tuple, zip(*(m.split() for m in cycle.coords)))
    return DecomposedCycle(
        _least_period_cycle(cycle.kernel, ca_parts),
        _least_period_cycle(cycle.kernel, pfa_parts),
        ca_parts,
        pfa_parts,
    )


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
    """The atom and the one-sided germs at each value, then the masses at
    infinity, wherever S holds them."""
    seeds: list[Measure] = []
    for v in values:
        if S.contains_point(v):
            seeds.append(Measure.dirac(v))
        if S.contains_right_neighborhood(v):
            seeds.append(Measure.right_germ(v))
        if S.contains_left_neighborhood(v):
            seeds.append(Measure.left_germ(v))
    if S.contains_plus_tail():
        seeds.append(Measure.at_plus_infinity())
    if S.contains_minus_tail():
        seeds.append(Measure.at_minus_infinity())
    return seeds


def _class_cycles(kernel: StochasticKernel) -> list[tuple[Measure, ...]]:
    """(pi_0, ..., pi_{d-1}) per recurrent class of period d: d times the
    class invariant on each cyclic subclass, in order (`find_cyclic_classes`)."""
    from .state_cycles import find_cyclic_classes

    return [info.subclass_invariants for info in find_cyclic_classes(kernel)]


def _periodic_generators(kernel: DeterministicKernel, m: int) -> list[Cycle]:
    """The orbits, as cycles, of every generator of a map on a periodic orbit
    of period <= m at a rational location.

    An orbit follows a closed walk of pieces, i -> j when the image of piece i
    meets piece j (a germ's one-sided neighbourhood maps into it too), read
    with one lookup per image component (`Partition.meets`).  From its least
    piece s the walk stays on pieces >= s.  The orbit's location in piece s
    is then a rational root of P(x) - x, P the walk's pieces composed, or an
    end of the piece when P(x) = x; `_boundary_seeds` keeps the generators
    that piece s holds there, and its masses at infinity.
    """
    pieces, n = kernel.pieces, len(kernel.pieces)
    held = [SetExpr((comp,)) for comp, _ in pieces]
    edges = [kernel._partition.meets(image.components) for image in kernel._images]
    seeds: dict[Measure, None] = {}
    for s, (_, poly) in enumerate(pieces):
        back, frontier = {}, [s]  # back[i]: the fewest edges from i to s over pieces >= s
        for d in range(1, m + 1):
            frontier = [i for i in range(s, n) if i not in back and set(edges[i]) & set(frontier)]
            back.update(dict.fromkeys(frontier, d))
        walks = [(s, poly, 1)] if s in back else []  # last piece, composition, length
        while walks:
            i, composed, k = walks.pop()
            if back[i] == 1:
                fixed = composed - Polynomial.identity()
                ends = held[s].finite_boundary_values()
                roots = ends if fixed.is_zero() else rational_roots(fixed)
                seeds.update(dict.fromkeys(_boundary_seeds(held[s], roots)))
            walks += [(j, pieces[j][1].compose(composed), k + 1)
                      for j in edges[i] if j >= s and k + back.get(j, m) <= m]
    return [c for c in (find_cycle_from(kernel, seed, m) for seed in seeds) if c is not None]


def canonical_seeds(kernel: Kernel) -> list[Measure]:
    """Measures for the check battery: for a finite chain an atom per state,
    then the coordinates of each class cycle; for a map the atoms, germs and
    masses at infinity that the space holds at its piece boundaries."""
    if isinstance(kernel, StochasticKernel):
        atoms = [Measure.dirac(s) for s in kernel.states]
        return atoms + [m for coords in _class_cycles(kernel) for m in coords]
    return _boundary_seeds(kernel.space, kernel._partition.cuts)


def enumerate_cycles(kernel: Kernel, max_period: int) -> list[Cycle]:
    """Cycles of period <= max_period in canonical rotation, sorted by period.

    Finite chains: the class cycles (pi_0, ..., pi_{d-1}), one per recurrent
    class of period d <= max_period, with pi_r the invariant probability of
    the d-step chain on the r-th cyclic subclass; their coordinates are
    disjoint, so each has rank d.  Every cycle of the chain is a nonnegative
    combination of rotated class cycles, over classes of any period, and only
    the class cycles are listed.  So the mixtures that atoms of transient or
    recurrent states close into (some of rank below their period) are not, nor
    is the period-2 cycle (pi_0 + pi_2, pi_1 + pi_3) of a period-4 class.

    Maps (`_periodic_generators`): every cycle of period <= m = max_period
    that is one generator's orbit at rational locations.  A push sends each
    generator to one generator, so every cycle of a map is a nonnegative
    combination of such orbits.  Not listed: irrational periodic points, and
    the interior of a continuum cell (a closed walk composing to the
    identity), of which only the orbits at the piece ends are.  Cost: one
    partition lookup per image component for the itinerary graph, and no set
    intersection; then one composition and one rational-root search per
    closed walk of length <= m, each of degree at most d^m, d the largest
    piece degree.
    """
    if isinstance(kernel, StochasticKernel):
        cycles = (
            Cycle(kernel, _least_rotation(c)) for c in _class_cycles(kernel) if len(c) <= max_period
        )
    else:
        cycles = _periodic_generators(kernel, max_period)
    # canonical rotations are equal exactly when their serial keys are
    found = {cycle.coords: cycle for cycle in cycles}
    return sorted(found.values(), key=lambda c: (c.period, _serial_key(c.coords)))
