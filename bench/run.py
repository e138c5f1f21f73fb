"""Benchmark for measurecycles.

    python3 bench/run.py --workload stochastic_cycles --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Set-up imports measurecycles from ./src,
generates the workload's inputs as plain data and writes its chain files.
The timed phase then runs whole rounds of items, one at a time in this
process and thread, until --seconds of item work have passed.  Set-up is
timed SETUP_REPEATS times, once before the timed phase and then between
rounds spread over it, and reported as the median.  After each round,
outside the timed phase, every output of the round is checked against the
benchmark's own reference computations.  With --trace 1 the functions of measurecycles
are wrapped (spans.py), TRACE_ROUNDS rounds are run whatever --seconds says,
so that counts repeat exactly on a seed, and the per-layer metrics are
reported instead of the end-to-end ones.  The last line of stdout is the
result as JSON; run records and trace files go to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
TRACE_ROUNDS = 12
# item_tail_ms is the first percentile of the ladder that has at least ten
# items beyond it; at today's item counts that is always p95
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)


def _own_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k.split(".")[0] == "measurecycles"}


def set_up(kind, seed: int, workdir: Path):
    """One set-up: a fresh import of measurecycles, the inputs, the files."""
    t0 = time.perf_counter()
    for name in _own_modules():
        del sys.modules[name]
    package = importlib.import_module("measurecycles")
    importlib.import_module("measurecycles.cli")
    workload = kind(seed, workdir)
    workload.prepare()
    return time.perf_counter() - t0, package, workload


def set_up_again(kind, seed: int, workdir: Path) -> float:
    """Time one more set-up, then put back the modules in use: the library
    imports some names at call time, and those must keep resolving to the
    modules whose objects the run holds."""
    in_use = _own_modules()
    seconds, _, _ = set_up(kind, seed, workdir)
    for name in _own_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def tail_percentile(count: int) -> float:
    for q in TAIL_LADDER:
        if count - math.ceil(q / 100 * count) >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def measure(workload, mc, seconds: float, rounds, between_rounds=None) -> dict:
    """Run whole rounds until `seconds` of item work, or `rounds` rounds.
    `between_rounds(timed)` runs after each round, outside the timed phase."""
    attempted = failed = 0
    problems_seen: list[str] = []
    item_times: list[float] = []
    round_log: list = []
    timed = 0.0
    r = 0
    while (timed < seconds) if rounds is None else (r < rounds):
        results = []
        t_round = time.perf_counter()
        for item in workload.round(r):
            t0 = time.perf_counter()
            try:
                out, exc = workload.run(mc, item), None
            except Exception as e:  # a failing item is counted, not fatal
                out, exc = None, e
            results.append((item, out, exc, time.perf_counter() - t0))
        spent = time.perf_counter() - t_round
        timed += spent
        round_log.append([spent] + [s if e is None else None for _, _, e, s in results])
        # outside the timed phase: count and check the round
        for item, out, exc, seconds_taken in results:
            attempted += 1
            if exc is not None:
                failed += 1
                if not workload.expected_fault(item, exc):
                    problems_seen.append(f"unexpected failure: {exc!r}")
                continue
            item_times.append(seconds_taken)
            try:
                problems = workload.check(item, out)
            except Exception as e:  # the reference could not follow the output
                problems = [f"check raised {e!r}"]
            problems_seen.extend(f"wrong output: {p}" for p in problems[:3])
        if between_rounds is not None:
            between_rounds(timed)
        r += 1
    return {"attempted": attempted, "failed": failed, "problems": problems_seen,
            "item_times": item_times, "timed": timed, "rounds": round_log}


def run(args) -> int:
    if not (SRC / "measurecycles" / "__init__.py").is_file():
        print(f"error: no measurecycles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"chains-{os.getpid()}"
    try:
        seconds, mc, workload = set_up(kind, args.seed, workdir)
        setup_times = [seconds]
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(mc)
            m = measure(workload, mc, args.seconds, TRACE_ROUNDS)
        else:
            tracer = None

            def between_rounds(timed):
                # spread the other set-ups over the run, so that their median
                # samples the machine at the same times as the items do
                if len(setup_times) < SETUP_REPEATS and \
                        timed >= args.seconds * len(setup_times) / SETUP_REPEATS:
                    setup_times.append(set_up_again(kind, args.seed, workdir))

            m = measure(workload, mc, args.seconds, None, between_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in m["problems"][:20]:
        print(f"problem: {line}", file=sys.stderr)
    correct = not any(p.startswith("wrong output") for p in m["problems"])
    done = len(m["item_times"])
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        metrics = tracer.layer_metrics()
        spans = metrics.pop("trace.spans")["value"]
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
        print(f"{args.workload}: traced {len(m['rounds'])} rounds, {m['attempted']} items, "
              f"{spans} spans, {m['timed']:.3f} s of item work")
    else:
        times = sorted(m["item_times"])
        q = tail_percentile(done)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": done / m["timed"], "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "item_tail_ms": {"value": percentile(times, q) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
        print(f"{args.workload}: {len(m['rounds'])} rounds, {done} items in "
              f"{m['timed']:.3f} s; item_tail_ms is p{q:g} over {done} items")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    result = {"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}
    record = dict(result, seed=args.seed, setup_times=setup_times, rounds=m["rounds"])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
