"""The benchmark's three workloads.

Each workload builds rounds of items from its seed (plain data, see gen.py),
runs one item at a time through the public API of measurecycles (the timed
part), and checks every output against oracle.py outside the timed part.
A round has the same make-up on every seed, so a run always attempts whole
rounds of the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction as F
from pathlib import Path

import gen
import oracle

# -- reading library objects back as plain data ----------------------------------


def plain_measure(m) -> dict:
    return {(g.kind.value, g.location): c for g, c in m.terms}


def plain_cycle(c) -> list:
    return [plain_measure(m) for m in c.coords]


def plain_pieces(pieces) -> list:
    out = []
    for comp, poly in pieces:
        if hasattr(comp, "value"):
            box = {"lo": comp.value, "hi": comp.value, "lo_closed": True, "hi_closed": True}
        else:
            box = {"lo": comp.lo, "hi": comp.hi, "lo_closed": comp.lo_closed,
                   "hi_closed": comp.hi_closed}
        box["coeffs"] = list(poly.coeffs)
        out.append(box)
    return out


def atoms(points, coeff=F(1)) -> list:
    return [{("atom", x): coeff} for x in points]


def germs(kind, points, coeff=F(1)) -> list:
    return [{(kind, x): coeff} for x in points]


# -- building library objects from plain data ---------------------------------------


def component(mc, box):
    return mc.Interval(box["lo"], box["hi"], box["lo_closed"], box["hi_closed"])


def kernel_from(mc, chain):
    space = mc.SetExpr.from_components(component(mc, box) for box in chain["space"])
    pieces = tuple((component(mc, p), mc.Polynomial.of(*p["coeffs"])) for p in chain["pieces"])
    return space, mc.DeterministicKernel(space, pieces)


class Workload:
    """Rounds of items from a seed; set-up generates the first PRESET rounds."""

    name = ""
    PRESET = 96

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.preset: list = []

    def prepare(self) -> None:
        self.preset = [self.make_round(r) for r in range(self.PRESET)]

    def round(self, r: int) -> list:
        return self.preset[r] if r < len(self.preset) else self.make_round(r)

    def make_round(self, r: int) -> list:
        raise NotImplementedError

    def expected_fault(self, item, exc) -> bool:
        return False


# -- stochastic_cycles ------------------------------------------------------------


class StochasticCycles(Workload):
    """A stream of fresh random finite chains through the cycle search."""

    name = "stochastic_cycles"
    # (shape, parameters) slots of one round
    SLOTS = [
        ("mixed_rows", 3), ("mixed_rows", 4), ("mixed_rows", 4),
        ("block", ((1, 2), 1)), ("block", ((2, 1, 2), 2)), ("block", ((1, 2, 1), 2)),
        ("block", ((2, 1, 1, 2), 0)), ("block", ((2, 2, 2), 1)), ("block", ((3, 2), 1)),
    ]

    def make_round(self, r: int) -> list:
        rng = gen.round_rng(self.name, self.seed, r)
        items = []
        for shape, param in self.SLOTS:
            if shape == "mixed_rows":
                items.append(gen.mixed_rows_chain(rng, param))
            else:
                sizes, extra = param
                items.append(gen.block_chain(rng, sizes, extra))
        return items

    @staticmethod
    def run(mc, chain):
        k = mc.StochasticKernel(tuple(chain["states"]), tuple(tuple(r) for r in chain["matrix"]))
        cycles = mc.enumerate_cycles(k, max_period=len(chain["states"]))
        ranks = [mc.measure_rank(c.coords) for c in cycles]
        kinds = [c.classify() for c in cycles]
        classes = mc.find_cyclic_classes(k)
        return cycles, ranks, kinds, classes

    @staticmethod
    def check(chain, out) -> list:
        cycles, ranks, kinds, classes = out
        states, matrix = chain["states"], chain["matrix"]
        push = oracle.atom_pusher(states, matrix)
        problems = []
        found = [plain_cycle(c) for c in cycles]
        for coords, rk, kind in zip(found, ranks, kinds):
            problems += oracle.cycle_problems(coords, push)
            if rk != len(coords) or oracle.measures_rank(coords) != len(coords):
                problems.append(f"rank {rk} of a period-{len(coords)} cycle")
            if kind.value != "countably_additive":
                problems.append(f"atomic cycle classified {kind.value}")
        for info in classes:
            invariants = [("invariant", plain_measure(info.invariant), 1),
                          ("subclass invariant", plain_measure(info.subclass_invariant),
                           info.period)]
            for label, pi, steps in invariants:
                if sum(pi.values()) != 1 or any(c <= 0 for c in pi.values()):
                    problems.append(f"{label} is not a probability vector")
                image = pi
                for _ in range(steps):
                    image = push(image)
                if image != pi:
                    problems.append(f"{label} is not fixed")
            if sorted(x for _, x in plain_measure(info.invariant)) != sorted(info.states):
                problems.append("invariant support is not the class")
        if chain["blocks"] is not None:
            blocks = [sorted(b) for b in chain["blocks"]]
            got = [[sorted(sub) for sub in info.subclasses] for info in classes]
            if len(classes) != 1 or classes[0].period != len(blocks) \
                    or not oracle.is_rotation(got[0], blocks):
                problems.append(f"subclasses {got} are not the blocks {blocks}")
        for want in oracle.deterministic_state_cycles(states, matrix):
            if not oracle.contains_cycle(found, want):
                problems.append(f"deterministic cycle {want} not found")
        return problems


# -- piecewise_duality -----------------------------------------------------------


class PiecewiseDuality(Workload):
    """Deterministic piecewise-polynomial chains: push, pull, integrate both
    sides, enumerate the cycles and decompose the known mixed cycle."""

    name = "piecewise_duality"
    SLOTS = [("conveyor", 2), ("conveyor", 3), ("conveyor", 3), ("conveyor", 4),
             ("conveyor", 5), ("squares", False), ("squares", True)]
    MAX_DEN = 24

    def make_round(self, r: int) -> list:
        rng = gen.round_rng(self.name, self.seed, r)
        items = []
        for shape, param in self.SLOTS:
            if shape == "conveyor":
                chain = gen.conveyor_chain(rng, param, self.MAX_DEN)
                base = [F(i) for i in range(param)]
            else:
                chain = gen.interval_squares(closed=param)
                base = [F(0), F(1)] if param else None
            items.append({
                "chain": chain,
                "f": gen.observable(rng, chain),
                "mu": gen.germ_measure(rng, chain),
                "mixed": (base, F(rng.randint(1, 5), rng.randint(1, 5)),
                          F(rng.randint(1, 5), rng.randint(1, 5))) if base else None,
                "samples": gen.sample_points(rng, chain, 2),
            })
        return items

    @staticmethod
    def run(mc, item):
        chain = item["chain"]
        space, k = kernel_from(mc, chain)
        f = mc.PiecewisePolyFunction.build(
            space, [(component(mc, p), mc.Polynomial.of(*p["coeffs"])) for p in item["f"]])
        mu = mc.Measure.from_terms(
            (mc.Generator(mc.GeneratorKind(kind), x), c) for kind, x, c in item["mu"])
        pushed = k.push_measure(mu)
        pulled = k.pull_function(f)
        lhs = mc.integrate(f, pushed)
        rhs = mc.integrate(pulled, mu)
        cycles = mc.enumerate_cycles(k, max_period=chain["n"])
        split = None
        if item["mixed"]:
            base, a, c = item["mixed"]
            coords = tuple(mc.Measure.dirac(x, a) + mc.Measure.right_germ(x, c) for x in base)
            split = mc.decompose_cycle(mc.Cycle(k, coords))
        return pushed, pulled, lhs, rhs, cycles, split

    @staticmethod
    def check(item, out) -> list:
        pushed, pulled, lhs, rhs, cycles, split = out
        chain = item["chain"]
        pieces, f = chain["pieces"], item["f"]
        mu = {(kind, x): c for kind, x, c in item["mu"]}
        problems = []
        want_push = oracle.push_measure(pieces, mu)
        if plain_measure(pushed) != want_push:
            problems.append("push of the measure differs from the generator images")
        pulled_pieces = plain_pieces(pulled.pieces)
        for x in item["samples"]:
            y = oracle.map_point(pieces, x)
            if oracle.value(pulled_pieces, "atom", x) != oracle.value(f, "atom", y):
                problems.append(f"pull(f)({x}) is not f(T({x}))")
        truth = oracle.integral(f, want_push)
        if not (lhs == rhs == truth == oracle.integral(pulled_pieces, mu)):
            problems.append(f"duality fails: {lhs}, {rhs}, reference {truth}")
        if sum(abs(c) for c in want_push.values()) != sum(abs(c) for c in mu.values()) or \
                sum(abs(c) for c in plain_measure(pushed).values()) != sum(mu.values()):
            problems.append("push changes the norm")
        found = [plain_cycle(c) for c in cycles]
        for coords in found:
            problems += oracle.cycle_problems(coords, lambda m: oracle.push_measure(pieces, m))
        if "closed" in chain:
            known = [germs("right_limit", [F(0), F(1)]), germs("left_limit", [F(1), F(2)])]
            if chain["closed"]:
                known.append(atoms([F(0), F(1)]))
        else:
            base = [F(i) for i in range(chain["n"])]
            known = [atoms(base), germs("right_limit", base)]
        for want in known:
            if not oracle.contains_cycle(found, want):
                problems.append(f"known cycle {want} not found")
        if item["mixed"]:
            base, a, c = item["mixed"]
            ca, pfa = atoms(base, a), germs("right_limit", base, c)
            if not (split.verified and split.ca is not None and split.pfa is not None
                    and plain_cycle(split.ca) == ca and plain_cycle(split.pfa) == pfa
                    and [plain_measure(m) for m in split.ca_parts] == ca
                    and [plain_measure(m) for m in split.pfa_parts] == pfa):
                problems.append("decomposition is not the atom and germ cycles")
        return problems


# -- cli_chain_files -------------------------------------------------------------------

CHECK_NAMES = [
    "declared_cycles", "duality", "isometry", "cycle_classification", "mean_invariance",
    "decomposition_roundtrip", "independence", "state_measure_correspondence",
    "unique_cycle_countably_additive",
]
FAULT_ARGV = ["trajectory", "interval_squares", "--x0", "1/2", "--steps", "14"]
_TERM = re.compile(r"^(-?\d+(?:/\d+)?)\*(atom|right_limit|left_limit)\((-?\d+(?:/\d+)?)\)$")


def _box_json(box) -> dict:
    return {"lo": str(box["lo"]), "hi": str(box["hi"]),
            "lo_closed": box["lo_closed"], "hi_closed": box["hi_closed"]}


def _measure_json(m: dict) -> dict:
    return {"terms": [{"kind": kind, "location": str(x), "coefficient": str(c)}
                      for (kind, x), c in m.items()]}


def stochastic_file(name: str, chain: dict) -> dict:
    doc = {
        "name": name,
        "kind": "stochastic",
        "states": [str(s) for s in chain["states"]],
        "matrix": [[str(p) for p in row] for row in chain["matrix"]],
    }
    if chain["blocks"] is not None:
        doc["state_cycles"] = [
            {"sets": [[{"point": str(x)} for x in sorted(b)] for b in chain["blocks"]]}]
    return doc


def conveyor_file(name: str, chain: dict) -> dict:
    base = [F(i) for i in range(chain["n"])]
    return {
        "name": name,
        "kind": "deterministic",
        "space": [_box_json(b) for b in chain["space"]],
        "pieces": [{"piece": _box_json(p), "poly_coeffs": [str(c) for c in p["coeffs"]]}
                   for p in chain["pieces"]],
        "cycles": [[_measure_json(m) for m in atoms(base)],
                   [_measure_json(m) for m in germs("right_limit", base)]],
        "state_cycles": [{"sets": [[{"point": str(x)}] for x in base]}],
    }


def parse_measure(text: str) -> dict:
    out = {}
    for term in text.split(" + "):
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"unexpected measure term {term!r}")
        coeff, kind, loc = match.groups()
        out[(kind, F(loc))] = F(coeff)
    return out


def parse_cycles(text: str) -> list:
    cycles = []
    for line in text.splitlines():
        if line.startswith("cycle "):
            cycles.append({"coords": [], "rank_ok": None})
        elif line.startswith("  coordinate "):
            cycles[-1]["coords"].append(parse_measure(line.split(": ", 1)[1]))
        elif line.startswith("  independent coordinates: "):
            cycles[-1]["rank_ok"] = line.split(": ", 1)[1].startswith("yes")
    return cycles


def parse_classes(text: str) -> tuple:
    classes, transient = [], None
    for line in text.splitlines():
        if line.startswith("class "):
            states = line[line.index("{") + 1:line.index("}")]
            period = int(line.rsplit("period ", 1)[1])
            classes.append({"states": [F(s) for s in states.split(", ")], "period": period,
                            "subclasses": []})
        elif line.startswith("  subclass "):
            inner = line[line.index("{") + 1:line.index("}")]
            classes[-1]["subclasses"].append(sorted(F(s) for s in inner.split(", ")))
        elif line.startswith("transient states: "):
            rest = line.split(": ", 1)[1]
            transient = [] if rest == "none" else [F(s) for s in rest.split(", ")]
    return classes, transient


def trajectory_problems(text: str, steps: int, expected) -> list:
    rows = text.splitlines()
    if rows[0] != "step,exact,approx" or len(rows) != steps + 2:
        return ["trajectory header or row count is wrong"]
    problems = []
    for line, want in zip(rows[1:], expected):
        step, exact, approx = line.split(",")
        value = F(exact)
        if value != want:
            problems.append(f"trajectory step {step} is {exact}")
        elif value and abs(F(approx) - value) > abs(value) / 10**19:
            problems.append(f"trajectory step {step} approx {approx} is off")
    return problems


def squares_orbit(steps: int) -> list:
    """x_2k = (1/2)^(4^k) and x_2k+1 = 1 + (1/2)^(2 * 4^k)."""
    return [F(1, 2) ** (4 ** (s // 2)) if s % 2 == 0 else 1 + F(1, 2) ** (2 * 4 ** (s // 2))
            for s in range(steps + 1)]


class CliChainFiles(Workload):
    """`cli.main(argv)` in-process over chain files written at setup."""

    name = "cli_chain_files"
    POOL = 32  # generated file sets; round r uses set r % POOL
    BLOCKS = ((2, 1, 2), 1)  # block sizes and transient states of the small chain
    LARGE = 32  # states of the chain that is only validated
    CONVEYOR = 5
    LARGE_CONVEYOR = 16  # pieces of the conveyor that is only validated
    TRAJECTORY = 8  # trajectory steps per conveyor piece
    MAX_DEN = 24

    def prepare(self) -> None:
        """Generate and write the chain files."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        sizes, extra = self.BLOCKS
        for j in range(self.POOL):
            rng = gen.round_rng(self.name, self.seed, j)
            entry = {
                "s": gen.block_chain(rng, sizes, extra),
                "l": gen.mixed_rows_chain(rng, self.LARGE),
                "p": gen.conveyor_chain(rng, self.CONVEYOR, self.MAX_DEN),
                "q": gen.conveyor_chain(rng, self.LARGE_CONVEYOR, self.MAX_DEN),
                "x0": F(rng.randint(1, 15), 16) + rng.randrange(self.CONVEYOR),
            }
            for key in ("s", "l", "p", "q"):
                chain = entry[key]
                doc = stochastic_file(f"{key}{j}", chain) if "states" in chain \
                    else conveyor_file(f"{key}{j}", chain)
                path = self.workdir / f"{key}{j}.json"
                path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
                entry[key + "_path"] = str(path)
            self.files.append(entry)
        super().prepare()

    def make_round(self, r: int) -> list:
        entry = self.files[r % self.POOL]
        s, p = entry["s_path"], entry["p_path"]
        n = str(self.CONVEYOR)
        steps = str(self.TRAJECTORY * self.CONVEYOR)
        plans = [
            (["validate", entry["l_path"]], ("validate", entry["l"])),
            (["classes", s], ("classes", entry)),
            (["cycles", s], ("cycles_s", entry)),
            (["check", s], ("check", None)),
            (["validate", entry["q_path"]], ("validate", entry["q"])),
            (["cycles", p, "--max-period", n], ("cycles_p", entry)),
            (["check", p, "--max-period", n], ("check", None)),
            (["trajectory", p, "--x0", str(entry["x0"]), "--steps", steps],
             ("trajectory_p", entry)),
            (["check", "three_state_swap"], ("check", None)),
            (["check", "interval_squares"], ("check", None)),
            (["check", "interval_squares_closed"], ("check", None)),
            (["cycles", "interval_squares_closed"], ("cycles_squares", None)),
            (["trajectory", "interval_squares", "--x0", "1/2", "--steps", "13"],
             ("squares", 13)),
            (FAULT_ARGV, ("squares", 14)),
        ]
        return [{"argv": argv, "expect": expect} for argv, expect in plans]

    @staticmethod
    def run(mc, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mc.cli.main(item["argv"])
        return code, out.getvalue(), err.getvalue()

    def expected_fault(self, item, exc) -> bool:
        """The one known fault: the 14-step trajectory of interval_squares
        formats a 4933-digit denominator, past Python's int->str limit."""
        return item["argv"] == FAULT_ARGV and isinstance(exc, ValueError) and "digits" in str(exc)

    def check(self, item, out) -> list:
        code, text, err = out
        what, arg = item["expect"]
        if what == "squares" and arg == 14 and code in (1, 2, 3):
            return [] if "Traceback" not in err else ["traceback on stderr"]
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        if what == "check":
            got = [line for line in text.splitlines() if line.startswith("check ")]
            want = [f"check {name}: PASS" for name in CHECK_NAMES]
            return [] if got == want else [f"check lines {got}"]
        if what == "squares":
            return trajectory_problems(text, arg, squares_orbit(arg))
        if what == "validate":
            return self._validate_problems(arg, text)
        if what == "cycles_squares":
            coords = [c["coords"] for c in parse_cycles(text)]
            problems = []
            for want in (atoms([F(0), F(1)]), germs("right_limit", [F(0), F(1)]),
                         germs("left_limit", [F(1), F(2)])):
                if not oracle.contains_cycle(coords, want):
                    problems.append(f"known cycle {want} not printed")
            return problems
        entry = arg
        if what == "classes":
            return self._classes_problems(entry["s"], text)
        if what == "cycles_s":
            return self._stochastic_cycles_problems(entry["s"], text)
        if what == "cycles_p":
            return self._conveyor_cycles_problems(entry["p"], text)
        if what == "trajectory_p":
            steps = int(item["argv"][-1])
            xs = [entry["x0"]]
            for _ in range(steps):
                xs.append(oracle.map_point(entry["p"]["pieces"], xs[-1]))
            return trajectory_problems(text, steps, xs)
        return [f"no check for {what}"]

    @staticmethod
    def _validate_problems(chain, text) -> list:
        lines = text.splitlines()
        if "states" in chain:
            declared = 0 if chain["blocks"] is None else 1
            want = [f"  kind: stochastic, {len(chain['states'])} state(s)",
                    "  declared measure cycles: 0", f"  declared state cycles: {declared}"]
        else:
            want = [f"  kind: deterministic, {chain['n']} piece(s) on [0,{chain['n']})",
                    "  declared measure cycles: 2", "  declared state cycles: 1"]
        ok = len(lines) == 4 and lines[0].endswith(": valid") and lines[1:] == want
        return [] if ok else [f"validate printed {lines}"]

    @staticmethod
    def _classes_problems(chain, text) -> list:
        classes, transient = parse_classes(text)
        blocks = [sorted(b) for b in chain["blocks"]]
        if len(classes) != 1:
            return [f"{len(classes)} classes printed, one expected"]
        got = classes[0]
        problems = []
        if got["period"] != len(blocks) or not oracle.is_rotation(got["subclasses"], blocks):
            problems.append(f"subclasses {got['subclasses']} are not the blocks {blocks}")
        if sorted(got["states"]) != sorted(x for b in blocks for x in b):
            problems.append("class states are not the blocks")
        if transient != chain["transient"]:
            problems.append(f"transient states {transient}, expected {chain['transient']}")
        return problems

    @staticmethod
    def _stochastic_cycles_problems(chain, text) -> list:
        states, matrix = chain["states"], chain["matrix"]
        blocks = chain["blocks"]
        push = oracle.atom_pusher(states, matrix)
        found = parse_cycles(text)
        coords = [c["coords"] for c in found]
        problems = [f"cycle {i + 1} coordinates are dependent"
                    for i, c in enumerate(found) if not c["rank_ok"]]
        for cyc in coords:
            problems += oracle.cycle_problems(cyc, push)
        # the cycle of the stationary distribution split over the subclasses
        pi = oracle.stationary(states, matrix, [x for b in blocks for x in b])
        m = len(blocks)
        want = [{("atom", x): m * pi[x] for x in sorted(b)} for b in blocks]
        if m > 1 and not oracle.contains_cycle(coords, want):
            problems.append("the subclass cycle of the stationary distribution is not printed")
        return problems


    @staticmethod
    def _conveyor_cycles_problems(chain, text) -> list:
        found = parse_cycles(text)
        coords = [c["coords"] for c in found]
        base = [F(i) for i in range(chain["n"])]
        problems = [f"cycle {i + 1} coordinates are dependent"
                    for i, c in enumerate(found) if not c["rank_ok"]]
        for cyc in coords:
            problems += oracle.cycle_problems(
                cyc, lambda m: oracle.push_measure(chain["pieces"], m))
        for want in (atoms(base), germs("right_limit", base)):
            if not oracle.contains_cycle(coords, want):
                problems.append(f"known cycle {want} not printed")
        return problems


WORKLOADS = {w.name: w for w in (StochasticCycles, PiecewiseDuality, CliChainFiles)}
