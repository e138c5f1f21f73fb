"""Seeded generators for the benchmark's inputs, as plain data.

Nothing here imports measurecycles: every input is built from the standard
library (``random.Random`` and ``fractions.Fraction``) so that the program
under test only ever receives the generated values.  Each round of a
workload has a fixed make-up (the same slots in the same order); only the
random entries inside each slot depend on the seed and the round index.
"""

from __future__ import annotations

import random
from fractions import Fraction as F


def round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


# -- finite stochastic chains -------------------------------------------------


def mixed_rows_chain(rng: random.Random, n: int) -> dict:
    """The shape of acceptance test 4: 0/1 rows mixed with dense rows over
    small denominators."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.5:
            j = rng.randrange(n)
            rows.append([F(1 if t == j else 0) for t in range(n)])
        else:
            weights = [rng.randint(0, 4) for _ in range(n)]
            if sum(weights) == 0:
                weights[rng.randrange(n)] = 1
            total = sum(weights)
            rows.append([F(w, total) for w in weights])
    return {"states": [F(i) for i in range(1, n + 1)], "matrix": rows, "blocks": None}


def block_chain(rng: random.Random, sizes: tuple, extra: int) -> dict:
    """One recurrent class whose cyclic subclasses are the blocks, by
    construction: every state of block r puts positive mass on every state of
    block r+1 and nowhere else.  ``extra`` transient states feed into the
    loop."""
    m = len(sizes)
    total = sum(sizes)
    n = total + extra
    # shuffle the state labels so that block 0 is not always the smallest
    labels = [F(i) for i in range(1, n + 1)]
    rng.shuffle(labels)
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    rows = [[F(0)] * n for _ in range(n)]
    for r, block in enumerate(blocks):
        nxt = blocks[(r + 1) % m]
        for i in block:
            weights = [rng.randint(1, 4) for _ in nxt]
            s = sum(weights)
            for j, w in zip(nxt, weights):
                rows[i][j] = F(w, s)
    for t in range(total, n):
        targets = sorted(rng.sample(range(total), rng.randint(1, total)))
        weights = [rng.randint(1, 4) for _ in targets]
        s = sum(weights)
        for j, w in zip(targets, weights):
            rows[t][j] = F(w, s)
    # present the states sorted, as chain files and users usually do
    order = sorted(range(n), key=lambda i: labels[i])
    states = [labels[i] for i in order]
    matrix = [[rows[i][j] for j in order] for i in order]
    return {
        "states": states,
        "matrix": matrix,
        "blocks": [[labels[i] for i in block] for block in blocks],
        "transient": sorted(labels[t] for t in range(total, n)),
    }


# -- piecewise-polynomial conveyors --------------------------------------------


def _unit_fraction(rng: random.Random, max_den: int) -> F:
    """A rational in (0, 1] with denominator up to max_den."""
    den = rng.randint(2, max_den)
    return F(rng.randint(1, den), den)


def _small_poly(rng: random.Random) -> list:
    return [
        F(rng.randint(-3, 3)),
        F(rng.randint(-2, 2), rng.randint(1, 3)),
        F(rng.randint(-2, 2), rng.randint(1, 4)),
    ]


def conveyor_chain(rng: random.Random, n: int, max_den: int) -> dict:
    """Pieces [i, i+1) on [0, n); piece i maps onto the start of piece i+1.

    Every piece is affine x -> nxt + r (x - i) with r in (0, 1], except one
    quadratic piece x -> nxt + s (x - i)^2 with s in (0, 1].  Base points
    cycle as an atom cycle and right germs at base points follow them, so
    the conveyor carries a known mixed cycle.  A second quadratic piece would
    let left-germ seeds square their bit length on every pass of the cycle
    search (see the README), so there is one.
    """
    quad = rng.randrange(n)
    pieces = []
    for i in range(n):
        nxt = F((i + 1) % n)
        lead = _unit_fraction(rng, max_den)
        if i == quad:
            # nxt + s (x - i)^2 = (nxt + s i^2) - 2 s i x + s x^2
            coeffs = [nxt + lead * i * i, -2 * lead * i, lead]
        else:
            coeffs = [nxt - lead * i, lead]
        pieces.append({"lo": F(i), "hi": F(i + 1), "lo_closed": True, "hi_closed": False,
                       "coeffs": coeffs, "degree": 2 if i == quad else 1, "lead": lead})
    space = [{"lo": F(0), "hi": F(n), "lo_closed": True, "hi_closed": False}]
    return {"n": n, "space": space, "pieces": pieces}


def interval_squares(closed: bool) -> dict:
    """The bundled interval_squares maps: x -> 1 + x^2 on the left piece and
    y -> (y - 1)^2 on the right piece, on (0,1) u (1,2) or on [0,2)."""
    left = [F(1), F(0), F(1)]
    right = [F(1), F(-2), F(1)]
    if closed:
        space = [{"lo": F(0), "hi": F(2), "lo_closed": True, "hi_closed": False}]
        flags = (True, False)
    else:
        space = [
            {"lo": F(0), "hi": F(1), "lo_closed": False, "hi_closed": False},
            {"lo": F(1), "hi": F(2), "lo_closed": False, "hi_closed": False},
        ]
        flags = (False, False)
    pieces = [
        {"lo": F(0), "hi": F(1), "lo_closed": flags[0], "hi_closed": flags[1],
         "coeffs": left, "degree": 2, "lead": F(1)},
        {"lo": F(1), "hi": F(2), "lo_closed": flags[0], "hi_closed": flags[1],
         "coeffs": right, "degree": 2, "lead": F(1)},
    ]
    return {"n": 2, "space": space, "pieces": pieces, "closed": closed}


def _square_image_breakpoint(rng: random.Random, piece: dict, target_lo: F) -> F:
    """A breakpoint inside the image of the piece, just right of target_lo,
    whose preimage under the piece polynomial is rational."""
    t = F(rng.randint(1, 7), 8)
    if piece["degree"] == 2:
        return target_lo + piece["lead"] * t * t
    return target_lo + piece["lead"] * t


def observable(rng: random.Random, chain: dict) -> list:
    """Piecewise polynomial f on the chain's space.  On each unit segment
    [j, j+1) it has one interior breakpoint placed inside the image of the
    piece that feeds the segment, with a rational preimage."""
    pieces = chain["pieces"]
    out = []
    if "closed" in chain:
        # segment (0,1) is fed by the right piece (y - 1)^2, (1,2) by the left
        feeders = [(0, pieces[1], F(0)), (1, pieces[0], F(1))]
    else:
        n = chain["n"]
        feeders = [(j, pieces[(j - 1) % n], F(j)) for j in range(n)]
    for j, feeder, lo in feeders:
        b = _square_image_breakpoint(rng, feeder, lo)
        # segment j is the domain of piece j
        out.append({"lo": lo, "hi": b, "lo_closed": pieces[j]["lo_closed"], "hi_closed": False,
                    "coeffs": _small_poly(rng)})
        out.append({"lo": b, "hi": lo + 1, "lo_closed": True, "hi_closed": False,
                    "coeffs": _small_poly(rng)})
    return out


def germ_measure(rng: random.Random, chain: dict) -> list:
    """Atoms and one-sided germs at rational points of the space, as
    (kind, location, coefficient) triples."""
    terms = {}
    pieces = chain["pieces"]
    for p in pieces:
        lo, hi = p["lo"], p["hi"]
        inner = lo + (hi - lo) * F(rng.randint(1, 15), 16)
        picks = [("atom", inner), ("right_limit", inner), ("left_limit", inner),
                 ("right_limit", lo), ("left_limit", hi)]
        if p["lo_closed"]:
            picks.append(("atom", lo))
        for kind, loc in picks:
            if rng.random() < 0.6:
                terms[(kind, loc)] = F(rng.randint(1, 6), rng.randint(1, 4))
    if not terms:
        p = pieces[0]
        terms[("right_limit", p["lo"])] = F(1)
    ordered = sorted(terms.items(), key=lambda t: (t[0][1], t[0][0]))
    return [(kind, loc, c) for (kind, loc), c in ordered]


def sample_points(rng: random.Random, chain: dict, count: int) -> list:
    pts = []
    for p in chain["pieces"]:
        lo, hi = p["lo"], p["hi"]
        if p["lo_closed"]:
            pts.append(lo)
        for _ in range(count):
            pts.append(lo + (hi - lo) * F(rng.randint(1, 63), 64))
    return pts
