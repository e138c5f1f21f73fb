"""Independent reference computations for the benchmark's output checks.

Everything here works on plain data with ``fractions.Fraction`` and never
imports measurecycles: matrix-vector pushforwards, Gaussian elimination,
Horner evaluation on the generated pieces, and the one-sided germ rule from
Taylor signs.  A check returns a list of problems; an empty list means the
output agrees with the reference.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import Optional

# A plain measure is a dict {(kind, location): coefficient}, kind one of
# "atom", "right_limit", "left_limit", "plus_infinity", "minus_infinity".


# -- linear algebra -------------------------------------------------------------


def push_vector(states: list, matrix: list, vec: dict) -> dict:
    """Row vector times matrix over the states; vec maps state -> mass."""
    index = {s: i for i, s in enumerate(states)}
    out = [F(0)] * len(states)
    for s, mass in vec.items():
        row = matrix[index[s]]
        for j, p in enumerate(row):
            if p:
                out[j] += mass * p
    return {states[j]: v for j, v in enumerate(out) if v}


def atom_pusher(states: list, matrix: list):
    """Pushforward of plain atomic measures along a stochastic matrix."""

    def push(m: dict) -> dict:
        if any(kind != "atom" for kind, _ in m):
            raise ValueError(f"non-atomic measure on a finite chain: {m}")
        vec = push_vector(states, matrix, {x: c for (_, x), c in m.items()})
        return {("atom", x): c for x, c in vec.items()}

    return push


def rank(rows: list) -> int:
    """Rank of a rational matrix by row reduction."""
    rows = [list(r) for r in rows]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for k in range(r + 1, len(rows)):
            if rows[k][c] != 0:
                f = rows[k][c] / rows[r][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def measures_rank(measures: list) -> int:
    keys = sorted({key for m in measures for key in m}, key=repr)
    return rank([[m.get(key, F(0)) for key in keys] for m in measures]) if keys else 0


def stationary(states: list, matrix: list, members: list) -> dict:
    """The probability vector pi on `members` with pi P = pi, for a closed
    irreducible set of states, by solving (P^T - I) pi = 0 with sum 1."""
    index = {s: i for i, s in enumerate(states)}
    idx = [index[s] for s in members]
    n = len(idx)
    aug = [[matrix[idx[j]][idx[i]] - (1 if i == j else 0) for j in range(n)] + [F(0)]
           for i in range(n - 1)]
    aug.append([F(1)] * n + [F(1)])
    for c in range(n):
        pivot = next(k for k in range(c, n) if aug[k][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [v / lead for v in aug[c]]
        for k in range(n):
            if k != c and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[c])]
    return {members[i]: aug[i][n] for i in range(n)}


# -- cycles -----------------------------------------------------------------------


def is_rotation(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    return any(a[r:] + a[:r] == b for r in range(len(a)))


def contains_cycle(found: list, want: list) -> bool:
    return any(is_rotation(c, want) for c in found)


def cycle_problems(coords: list, push) -> list:
    """Coordinates nonnegative and nonzero, pairwise distinct, and permuted
    cyclically by `push`."""
    problems = []
    if not coords:
        return ["empty cycle"]
    for m in coords:
        if not m or any(c <= 0 for c in m.values()):
            problems.append(f"coordinate not positive: {m}")
    for i, a in enumerate(coords):
        for b in coords[i + 1:]:
            if a == b:
                problems.append("coordinates repeat")
    for i, m in enumerate(coords):
        if push(m) != coords[(i + 1) % len(coords)]:
            problems.append(f"push of coordinate {i + 1} is not coordinate {i + 2}")
    return problems


def deterministic_state_cycles(states: list, matrix: list) -> list:
    """Cycles s0 -> s1 -> ... -> s0 along rows that are 0/1, as atom cycles."""
    succ = {}
    for s, row in zip(states, matrix):
        ones = [t for t, p in zip(states, row) if p == 1]
        if ones:
            succ[s] = ones[0]
    cycles, seen = [], set()
    for start in states:
        path, pos = [], {}
        s = start
        while s in succ and s not in pos and s not in seen:
            pos[s] = len(path)
            path.append(s)
            s = succ[s]
        if s in pos:
            loop = path[pos[s]:]
            cycles.append([{("atom", x): F(1)} for x in loop])
        seen.update(path)
    return cycles


# -- piecewise polynomials ---------------------------------------------------------


def horner(coeffs: list, x: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def derivative(coeffs: list) -> list:
    return [c * k for k, c in enumerate(coeffs) if k >= 1]


def _holds_point(p: dict, x: F) -> bool:
    lo, hi = p["lo"], p["hi"]
    if lo is not None and (x < lo or (x == lo and not p["lo_closed"])):
        return False
    if hi is not None and (x > hi or (x == hi and not p["hi_closed"])):
        return False
    return True


def _holds_right(p: dict, x: F) -> bool:
    return (p["lo"] is None or p["lo"] <= x) and (p["hi"] is None or x < p["hi"])


def _holds_left(p: dict, x: F) -> bool:
    return (p["lo"] is None or p["lo"] < x) and (p["hi"] is None or x <= p["hi"])


def piece_for(pieces: list, kind: str, x: F) -> Optional[dict]:
    test = {"atom": _holds_point, "right_limit": _holds_right, "left_limit": _holds_left}[kind]
    hits = [p for p in pieces if test(p, x)]
    return hits[0] if len(hits) == 1 else None


def value(pieces: list, kind: str, x: F) -> F:
    """f(x), f(x+) or f(x-) for a plain piecewise polynomial."""
    return horner(piece_for(pieces, kind, x)["coeffs"], x)


def map_point(pieces: list, x: F) -> F:
    return horner(piece_for(pieces, "atom", x)["coeffs"], x)


def push_generator(pieces: list, kind: str, x: F) -> tuple:
    """Image of one generator under a piecewise polynomial map."""
    piece = piece_for(pieces, kind, x)
    coeffs = piece["coeffs"]
    y = horner(coeffs, x)
    if kind == "atom" or len(coeffs) <= 1:
        return ("atom", y)
    d, order = derivative(coeffs), 1
    while horner(d, x) == 0:
        d, order = derivative(d), order + 1
    slope = horner(d, x)
    # t = x + s or t = x - s with s -> 0+; p(t) - p(x) has the sign of
    # slope * (+-1)^order
    sign = slope if kind == "right_limit" or order % 2 == 0 else -slope
    return ("right_limit" if sign > 0 else "left_limit", y)


def push_measure(pieces: list, mu: dict) -> dict:
    out: dict = {}
    for (kind, x), c in mu.items():
        key = push_generator(pieces, kind, x)
        out[key] = out.get(key, F(0)) + c
    return {k: v for k, v in out.items() if v}


def integral(f_pieces: list, mu: dict) -> F:
    return sum((c * value(f_pieces, kind, x) for (kind, x), c in mu.items()), F(0))
