"""Cycles of sets of states, and their correspondence with cycles of measures.

A state cycle is a tuple of pairwise distinct subsets (D_1, ..., D_m) of the
phase space with p(x, D_{i+1}) = 1 for every x in D_i (indices mod m).  It is
*singular* when the sets are pairwise disjoint.  Singular state cycles induce
cycles of measures supported on them, and conversely a disjoint countably
additive measure cycle induces the state cycle of its atom supports.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cycles import Cycle, _boundary_seeds, _orbit, _rotations, enumerate_cycles, row_reduce
from .errors import (
    InvariantViolation,
    IrrationalRootBoundary,
    NoRepresentableInvariant,
    NotACycle,
    NotCountablyAdditive,
    NotDisjoint,
    NotFiniteChain,
    NotSingular,
)
from .functions import PiecewisePolyFunction, integrate
from .kernels import Kernel, StochasticKernel
from .measures import Generator, GeneratorKind, Measure
from .polynomials import Polynomial, interior_rational_roots, split_interval
from .sets import Point, SetExpr


@dataclass(frozen=True)
class StateCycle:
    sets: tuple[SetExpr, ...]

    def __post_init__(self):
        if not self.sets:
            raise ValueError("a state cycle needs at least one set")
        if any(s.is_empty() for s in self.sets):
            raise ValueError("state cycle sets must be nonempty")
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("state cycle sets must be pairwise distinct")

    @property
    def period(self) -> int:
        return len(self.sets)

    @property
    def singular(self) -> bool:
        return all(
            not a.intersects(b)
            for i, a in enumerate(self.sets)
            for b in self.sets[i + 1 :]
        )

    def to_json_obj(self) -> dict:
        return {"singular": self.singular, "sets": [s.to_json_obj() for s in self.sets]}

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.sets) + ")"


def state_cycle_equal(a: StateCycle, b: StateCycle) -> bool:
    return any(rot == b.sets for rot in _rotations(a.sets))


def verify_state_cycle(kernel: Kernel, cycle: StateCycle) -> bool:
    """Check p(x, D_{i+1}) = 1 for every x in D_i, exactly: each D_i lies in
    the space, and the points D_i reaches in one step (`image`) lie in D_{i+1}.
    A nonempty D_i inside a finite chain's space holds a state, so the test is
    never vacuous there."""
    sets = cycle.sets
    return all(
        D.is_subset(kernel.space) and kernel.image(D).is_subset(nxt)
        for D, nxt in zip(sets, sets[1:] + sets[:1])
    )


@dataclass(frozen=True)
class RecurrentClassInfo:
    states: tuple[Fraction, ...]
    period: int
    subclasses: tuple[tuple[Fraction, ...], ...]
    invariant: Measure  # unique invariant distribution of the class
    subclass_invariants: tuple[Measure, ...]  # the class cycle

    @property
    def subclass_invariant(self) -> Measure:
        """The invariant of the period-step chain on ``subclasses[0]``."""
        return self.subclass_invariants[0]

    def state_cycle(self) -> StateCycle:
        return StateCycle(
            tuple(
                SetExpr.from_components(Point(s) for s in sub) for sub in self.subclasses
            )
        )


def _bfs_levels(edges: list[list[int]], start: int) -> dict[int, int]:
    """Distance from `start` of every state it reaches."""
    level = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in edges[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    return level


def _closed_classes(edges: list[list[int]]) -> list[dict[int, int]]:
    """Closed (recurrent) classes of a finite chain given by its out-edges,
    each as the BFS levels of its states from its smallest state.

    A state is recurrent iff every state it reaches reaches it back; its
    closed class is then the set of states it reaches.  Every row of a
    stochastic matrix has an out-edge, so a state that reaches no other state
    has a self-loop.  One search per state: O(n (n + e)), below the O(n^3)
    invariant solve that follows.
    """
    reach = [_bfs_levels(edges, v) for v in range(len(edges))]
    firsts = {min(r) for v, r in enumerate(reach) if all(v in reach[w] for w in r)}
    return [reach[v] for v in sorted(firsts)]


def _solve_invariant(rows: list[list[Fraction]]) -> list[Fraction]:
    """Unique probability vector pi with pi P = pi for an irreducible matrix."""
    n = len(rows)
    # columns of (P^T - I), last equation replaced by sum(pi) = 1
    aug = []
    for i in range(n):
        row = [rows[j][i] - (1 if i == j else 0) for j in range(n)]
        row.append(Fraction(0))
        aug.append(row)
    aug[-1] = [Fraction(1)] * n + [Fraction(1)]
    pivots = row_reduce(aug, n)
    if len(pivots) < n:
        raise InvariantViolation("invariant distribution is not unique on this class")
    return [row[n] for row in aug]


def find_cyclic_classes(kernel: Kernel) -> list[RecurrentClassInfo]:
    """Recurrent classes with their periods, cyclic subclasses, exact
    invariant distributions and class cycles.  Defined for finite chains only.

    The recurrent classes are the closed reachability sets (`_closed_classes`).
    With level the BFS distance from a class's least state, the period d is
    the gcd of level[v] + 1 - level[w] over the class's edges v -> w, and
    subclass r holds the levels ≡ r (mod d): every edge goes from r to r + 1.
    So pi P = pi, pi the class invariant, puts on subclass r + 1 the mass of
    subclass r alone: (pi restricted to r) P = pi restricted to r + 1, and a
    push keeps mass, so each subclass has 1/d.  ``subclass_invariants``, d pi
    restricted to each subclass, is the class cycle (Kemeny & Snell 1960).
    """
    if not isinstance(kernel, StochasticKernel):
        raise NotFiniteChain("cyclic classes are defined for finite chains")
    n = len(kernel.states)
    edges = [
        [j for j in range(n) if kernel.matrix[i][j] > 0] for i in range(n)
    ]
    infos = []
    for level in _closed_classes(edges):
        members = sorted(level)
        # period = gcd of the level slacks along the edges
        period = 0
        for v in members:
            for w in edges[v]:
                period = math.gcd(period, level[v] + 1 - level[w])
        period = period or 1
        subclasses = tuple(
            tuple(v for v in members if level[v] % period == r) for r in range(period)
        )
        rows = [[kernel.matrix[i][j] for j in members] for i in members]
        pi = dict(zip(members, _solve_invariant(rows)))
        invariant = Measure.from_terms(
            (Generator(GeneratorKind.ATOM, kernel.states[v]), pi[v]) for v in members
        )
        subclass_invariants = tuple(
            Measure.from_terms(
                (Generator(GeneratorKind.ATOM, kernel.states[v]), period * pi[v]) for v in sub
            )
            for sub in subclasses
        )
        infos.append(
            RecurrentClassInfo(
                states=tuple(kernel.states[i] for i in members),
                period=period,
                subclasses=tuple(
                    tuple(kernel.states[i] for i in sub) for sub in subclasses
                ),
                invariant=invariant,
                subclass_invariants=subclass_invariants,
            )
        )
    infos.sort(key=lambda info: info.states)
    return infos


def transient_states(kernel: StochasticKernel) -> list[Fraction]:
    return _transient_among(kernel, find_cyclic_classes(kernel))


def _transient_among(kernel: StochasticKernel, infos: list[RecurrentClassInfo]) -> list[Fraction]:
    """The states of the chain in none of its recurrent classes `infos`."""
    recurrent = {s for info in infos for s in info.states}
    return [s for s in kernel.states if s not in recurrent]


def measures_from_state_cycle(kernel: Kernel, cycle: StateCycle) -> Cycle:
    """The measure cycle a singular state cycle supports: coordinate i puts
    mass 1 on D_i and 0 on the other sets.

    Finite chains: coordinate i is (m/k) sum_C pi_C restricted to D_i, over
    the k recurrent classes C of `find_cyclic_classes` that meet D_1: the sum
    over all classes, normalized (for i = 1 the average of the invariants of
    the m-step chain's classes on D_1).
    Proof: take x in C ∩ D_1, in subclass r_0 of C, of period d.  The supports
    of delta_x P^j cover every subclass of C, and lie in subclass r_0 + j
    (mod d) and in D_{1 + j mod m}.  The D_i are disjoint, so m divides d and
    C ∩ D_i is the union of the subclasses r ≡ r_0 + i - 1 (mod m), of mass
    1/m.  As (pi_C restricted to subclass r) P = pi_C restricted to r + 1, the
    coordinates cycle.  A class meets D_1 iff it meets some D_i, and the chain
    reaches a class from D_1; transient states carry no mass.

    Maps: of the cycles `enumerate_cycles` lists, each rotated to a
    coordinate with mass 1 on D_1, and the atoms and germs at the boundary of
    D_1 that m pushes bring back (inside a continuum cell, which the
    enumeration leaves out), the orbit whose first generator is least by
    (location, kind rank); NoRepresentableInvariant when there is none, e.g.
    when the periodic points in D_1 are irrational.  Proof: the start is one
    generator that D_1 holds.  A generator that D_i holds pushes to one that
    the image of its carrier holds (its point, one-sided neighbourhood or
    tail; the map is monotone or constant near a point), and image(D_i) ⊆
    D_{i+1} (`verify_state_cycle`).  The other sets are disjoint from D_i.
    """
    if not cycle.singular:
        raise NotSingular("the state cycle's sets must be pairwise disjoint")
    if not verify_state_cycle(kernel, cycle):
        raise NotACycle("not a state cycle for this kernel")
    m, D = cycle.period, cycle.sets[0]
    if isinstance(kernel, StochasticKernel):
        invariants = [info.invariant for info in find_cyclic_classes(kernel)]
        coords = tuple(
            sum((pi.restrict(E) for pi in invariants), Measure.zero()).normalize()
            for E in cycle.sets
        )
    else:
        # a cycle through D_1 has period m, as the sets are disjoint; the
        # boundary seeds of D_1 add the orbits inside a continuum cell
        orbits = [
            rot for c in enumerate_cycles(kernel, m) for rot in _rotations(c.coords)
            if rot[0].evaluate(D) == 1
        ]
        for seed in _boundary_seeds(D, D.finite_boundary_values()):
            orbit = _orbit(kernel, seed, m)
            if orbit[-1] == seed:
                orbits.append(tuple(orbit[:-1]))
        if not orbits:
            raise NoRepresentableInvariant(
                f"no cycle of period {m} at rational locations starts in the first set"
            )
        # (location, kind rank), a mass at infinity read at location 0
        coords = min(orbits, key=lambda orbit: orbit[0].terms[0][0].sort_key()[::-1])
    return Cycle(kernel, coords)


def state_cycle_from_measures(cycle: Cycle) -> StateCycle:
    """Atom supports S_i of a disjoint countably additive measure cycle.

    They form a state cycle, left in one step for periods over 1: mu_i =
    sum_x c_x delta_x with every c_x > 0 over S_i, and the cycle is verified,
    so sum_x c_x delta_x P = mu_{i+1}.  Each delta_x P is nonnegative, so
    p(x, S_{i+1}) = 1, and p(x, S_i) = 0 as S_i and S_{i+1} are disjoint.
    """
    for mu in cycle.coords:
        if not mu.is_purely_atomic():
            raise NotCountablyAdditive("every coordinate must be purely atomic")
    for i, a in enumerate(cycle.coords):
        for b in cycle.coords[i + 1 :]:
            if set(a.atom_support()) & set(b.atom_support()):
                raise NotDisjoint("coordinates share atoms")
    return StateCycle(
        tuple(SetExpr.from_components(Point(x) for x in mu.atom_support()) for mu in cycle.coords)
    )


@dataclass(frozen=True)
class UnitIntegralReport:
    integral: Fraction
    mass_where_one: Fraction
    holds: bool


def unit_integral_check(f: PiecewisePolyFunction, mu: Measure) -> UnitIntegralReport:
    """Does `integral = 1 implies full mass on {f = 1}` hold for this pair?

    Requires 0 <= f <= 1 exactly and a probability measure.  For countably
    additive mu the implication is a theorem; a violation there is reported as
    an InvariantViolation.  Purely finitely additive mu may genuinely break
    it, which is the point of the check.

    The level set {f = 1} is cut at the rational roots of f - 1.  An
    irrational one would raise IrrationalRootBoundary, but under 0 <= f <= 1
    none gets that far: an interior root of f - 1 is a maximum of f, so a
    critical point, and `check_range` has already raised
    IrrationalCriticalPoint for an irrational critical point.
    """
    if not mu.is_probability():
        raise ValueError("the measure must be a probability")
    f.check_range(0, 1)
    integral = integrate(f, mu)
    ones: list = []
    one = Polynomial.constant(1)
    for comp, poly in f.pieces:
        if poly == one:
            ones.append(comp)
            continue
        shifted = poly - one
        if isinstance(comp, Point):
            points = [comp]
        else:
            roots = interior_rational_roots(
                shifted, comp, IrrationalRootBoundary, "{f = 1} has an irrational boundary point"
            )
            points, _ = split_interval(comp, roots)
        ones.extend(pt for pt in points if shifted(pt.value) == 0)
    level_set = SetExpr.from_components(ones)
    mass = mu.evaluate(level_set)
    holds = integral != 1 or mass == 1
    if mu.is_purely_atomic() and not holds:
        raise InvariantViolation(
            "a countably additive probability with unit integral must sit on {f = 1}"
        )
    return UnitIntegralReport(integral, mass, holds)
