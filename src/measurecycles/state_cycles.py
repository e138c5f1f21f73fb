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
from typing import Sequence

from .cycles import Cycle, row_reduce
from .errors import (
    InvariantViolation,
    IrrationalRootBoundary,
    NoRepresentableInvariant,
    NotCountablyAdditive,
    NotDisjoint,
    NotFiniteChain,
    NotSingular,
)
from .functions import PiecewisePolyFunction, integrate
from .kernels import DeterministicKernel, Kernel, StochasticKernel
from .measures import Generator, GeneratorKind, Measure
from .polynomials import (
    Polynomial,
    irrational_root_count_open,
    polynomial_image,
    rational_roots_in,
)
from .sets import Point, SetExpr, format_component


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

    def rotations(self):
        for r in range(len(self.sets)):
            yield StateCycle(self.sets[r:] + self.sets[:r])

    def to_json_obj(self) -> dict:
        return {"singular": self.singular, "sets": [s.to_json_obj() for s in self.sets]}

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.sets) + ")"


def state_cycle_equal(a: StateCycle, b: StateCycle) -> bool:
    return any(rot.sets == b.sets for rot in a.rotations())


def _deterministic_set_image(kernel: DeterministicKernel, D: SetExpr) -> SetExpr:
    """Exact image of D under the piecewise map (monotone subdivision)."""
    comps = []
    for comp, poly in kernel.pieces:
        overlap = SetExpr((comp,)) & D
        for sub in overlap.components:
            comps.extend(polynomial_image(poly, sub))
    return SetExpr.from_components(comps)


def verify_state_cycle(kernel: Kernel, cycle: StateCycle) -> bool:
    """Check p(x, D_{i+1}) = 1 for every x in D_i, exactly."""
    m = cycle.period
    if isinstance(kernel, StochasticKernel):
        for i, D in enumerate(cycle.sets):
            nxt = cycle.sets[(i + 1) % m]
            members = [s for s in kernel.states if D.contains_point(s)]
            if not members or not D.is_subset(kernel.space):
                return False
            for x in members:
                if kernel.transition_prob(x, nxt) != 1:
                    return False
        return True
    for i, D in enumerate(cycle.sets):
        if not D.is_subset(kernel.space):
            return False
        image = _deterministic_set_image(kernel, D)
        if not image.is_subset(cycle.sets[(i + 1) % m]):
            return False
    return True


@dataclass(frozen=True)
class RecurrentClassInfo:
    states: tuple[Fraction, ...]
    period: int
    subclasses: tuple[tuple[Fraction, ...], ...]
    invariant: Measure  # unique invariant distribution of the class
    subclass_invariant: Measure  # invariant of the period-step chain on subclasses[0]

    def state_cycle(self) -> StateCycle:
        return StateCycle(
            tuple(
                SetExpr.from_components(Point(s) for s in sub) for sub in self.subclasses
            )
        )


def _strongly_connected_components(n: int, edges: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components in a deterministic order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for j in range(ei, len(edges[v])):
                w = edges[v][j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
        # next root
    return components


def _solve_invariant(states: Sequence[Fraction], rows: list[list[Fraction]]) -> list[Fraction]:
    """Unique probability vector pi with pi P = pi for an irreducible matrix."""
    n = len(states)
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


def _restricted_rows(kernel: StochasticKernel, members: list[int]) -> list[list[Fraction]]:
    return [[kernel.matrix[i][j] for j in members] for i in members]


def _matrix_power(rows: list[list[Fraction]], power: int) -> list[list[Fraction]]:
    n = len(rows)
    result = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    base = [row[:] for row in rows]
    p = power
    while p:
        if p & 1:
            result = [
                [
                    sum((result[i][k] * base[k][j] for k in range(n)), Fraction(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        base = [
            [sum((base[i][k] * base[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        p >>= 1
    return result


def find_cyclic_classes(kernel: Kernel) -> list[RecurrentClassInfo]:
    """Recurrent classes with their periods, cyclic subclasses, and exact
    invariant distributions.  Defined for finite chains only."""
    if not isinstance(kernel, StochasticKernel):
        raise NotFiniteChain("cyclic classes are defined for finite chains")
    n = len(kernel.states)
    edges = [
        [j for j in range(n) if kernel.matrix[i][j] > 0] for i in range(n)
    ]
    sccs = _strongly_connected_components(n, edges)
    infos = []
    for comp in sccs:
        comp_set = set(comp)
        if any(j not in comp_set for i in comp for j in edges[i]):
            continue  # transient: it leaks
        if len(comp) == 1 and comp[0] not in edges[comp[0]]:
            continue  # isolated state with no self-loop cannot recur
        members = sorted(comp)
        # BFS levels from the smallest state; period = gcd of level slacks
        pos = {v: k for k, v in enumerate(members)}
        ref = members[0]
        level = {ref: 0}
        queue = deque([ref])
        while queue:
            v = queue.popleft()
            for w in edges[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
        period = 0
        for v in members:
            for w in edges[v]:
                period = math.gcd(period, level[v] + 1 - level[w])
        period = period or 1
        subclasses = tuple(
            tuple(v for v in members if level[v] % period == r) for r in range(period)
        )
        for r, sub in enumerate(subclasses):
            nxt = set(subclasses[(r + 1) % period])
            for v in sub:
                if any(w not in nxt for w in edges[v]):
                    raise InvariantViolation(
                        "one-step transitions must map each subclass onto the next"
                    )
        rows = _restricted_rows(kernel, members)
        pi = _solve_invariant([kernel.states[i] for i in members], rows)
        invariant = Measure.from_terms(
            (Generator(GeneratorKind.ATOM, kernel.states[members[k]]), pi[k])
            for k in range(len(members))
        )
        sub0 = [pos[v] for v in subclasses[0]]
        power_rows = _matrix_power(rows, period)
        sub_rows = [[power_rows[i][j] for j in sub0] for i in sub0]
        sub_pi = _solve_invariant([kernel.states[members[k]] for k in sub0], sub_rows)
        subclass_invariant = Measure.from_terms(
            (Generator(GeneratorKind.ATOM, kernel.states[members[k]]), p)
            for k, p in zip(sub0, sub_pi)
        )
        infos.append(
            RecurrentClassInfo(
                states=tuple(kernel.states[i] for i in members),
                period=period,
                subclasses=tuple(
                    tuple(kernel.states[i] for i in sub) for sub in subclasses
                ),
                invariant=invariant,
                subclass_invariant=subclass_invariant,
            )
        )
    infos.sort(key=lambda info: info.states)
    return infos


def transient_states(kernel: StochasticKernel) -> list[Fraction]:
    recurrent = {s for info in find_cyclic_classes(kernel) for s in info.states}
    return [s for s in kernel.states if s not in recurrent]


_FIXED_POINT_BUDGET = 64


def _deterministic_cycle_seeds(D: SetExpr) -> list[Measure]:
    seeds = []
    for comp in D.components:
        if isinstance(comp, Point):
            seeds.append(Measure.dirac(comp.value))
        else:
            if comp.lo is not None:
                if comp.lo_closed:
                    seeds.append(Measure.dirac(comp.lo))
                seeds.append(Measure.right_germ(comp.lo))
            if comp.hi is not None:
                if comp.hi_closed:
                    seeds.append(Measure.dirac(comp.hi))
                seeds.append(Measure.left_germ(comp.hi))
    return seeds


def measures_from_state_cycle(kernel: Kernel, cycle: StateCycle) -> Cycle:
    """The measure cycle a singular state cycle supports.

    Finite chains: the exact invariant vector of the m-step matrix restricted
    to D_1 (averaged over its recurrent classes when the restriction is
    reducible).  Piecewise kernels: a germ/atom seed inside D_1 iterated by the
    m-step pushforward until its representation is exactly fixed.
    """
    if not cycle.singular:
        raise NotSingular("the state cycle's sets must be pairwise disjoint")
    if not verify_state_cycle(kernel, cycle):
        raise ValueError("not a state cycle for this kernel")
    m = cycle.period
    if isinstance(kernel, StochasticKernel):
        members = [i for i, s in enumerate(kernel.states) if cycle.sets[0].contains_point(s)]
        power = _matrix_power([list(r) for r in kernel.matrix], m)
        rows = [[power[i][j] for j in members] for i in members]
        # recurrent classes of the restricted m-step chain
        edges = [[k for k, p in enumerate(row) if p > 0] for row in rows]
        sccs = _strongly_connected_components(len(members), edges)
        closed = [
            comp for comp in sccs
            if all(t in set(comp) for v in comp for t in edges[v])
        ]
        pies = []
        for comp in closed:
            comp_rows = [[rows[i][j] for j in comp] for i in comp]
            pi = _solve_invariant([kernel.states[members[k]] for k in comp], comp_rows)
            pies.append(
                Measure.from_terms(
                    (Generator(GeneratorKind.ATOM, kernel.states[members[k]]), p)
                    for k, p in zip(comp, pi)
                )
            )
        first = Measure.zero()
        for pi_measure in pies:
            first = first + pi_measure * Fraction(1, len(pies))
    else:
        first = None
        for seed in _deterministic_cycle_seeds(cycle.sets[0]):
            current = seed
            for _ in range(_FIXED_POINT_BUDGET):
                nxt = current
                for _ in range(m):
                    nxt = kernel.push_measure(nxt)
                if nxt == current:
                    first = current
                    break
                current = nxt
            if first is not None:
                break
        if first is None:
            raise NoRepresentableInvariant(
                f"no representable fixed measure emerged within {_FIXED_POINT_BUDGET} steps"
            )
    coords = [first]
    for _ in range(m - 1):
        coords.append(kernel.push_measure(coords[-1]))
    result = Cycle(kernel, tuple(coords))
    for i, mu in enumerate(result.coords):
        for j, D in enumerate(cycle.sets):
            expected = Fraction(1 if i == j else 0)
            if mu.evaluate(D) != expected:
                raise InvariantViolation(
                    f"coordinate {i + 1} puts {mu.evaluate(D)} on set {j + 1}"
                )
    return result


def state_cycle_from_measures(cycle: Cycle) -> StateCycle:
    """Atom supports of a disjoint countably additive measure cycle.

    Verifies the support sets cycle with full transition mass, and (for
    periods over 1) that each coordinate leaves its own support completely.
    """
    for mu in cycle.coords:
        if not mu.is_purely_atomic():
            raise NotCountablyAdditive("every coordinate must be purely atomic")
    for i, a in enumerate(cycle.coords):
        for b in cycle.coords[i + 1 :]:
            if set(a.atom_support()) & set(b.atom_support()):
                raise NotDisjoint("coordinates share atoms")
    kernel = cycle.kernel
    sets = tuple(
        SetExpr.from_components(Point(x) for x in mu.atom_support())
        for mu in cycle.coords
    )
    m = cycle.period
    for i, mu in enumerate(cycle.coords):
        nxt = sets[(i + 1) % m]
        for x in mu.atom_support():
            if kernel.transition_prob(x, nxt) != 1:
                raise InvariantViolation(
                    f"atom {x} does not send full mass to the next support"
                )
            if m >= 2 and kernel.transition_prob(x, sets[i]) != 0:
                raise InvariantViolation(
                    f"atom {x} keeps mass on its own support within one step"
                )
    return StateCycle(sets)


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
            if shifted(comp.value) == 0:
                ones.append(comp)
            continue
        if irrational_root_count_open(shifted, comp.lo, comp.hi) > 0:
            raise IrrationalRootBoundary(
                f"{{f = 1}} has an irrational boundary point inside {format_component(comp)}"
            )
        for r in rational_roots_in(shifted, comp):
            ones.append(Point(r))
    level_set = SetExpr.from_components(ones)
    mass = mu.evaluate(level_set)
    holds = integral != 1 or mass == 1
    if mu.is_purely_atomic() and not holds:
        raise InvariantViolation(
            "a countably additive probability with unit integral must sit on {f = 1}"
        )
    return UnitIntegralReport(integral, mass, holds)
