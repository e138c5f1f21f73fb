"""Command-line front end.

    measurecycles validate CHAIN
    measurecycles trajectory CHAIN --x0 1/2 --steps 12 [--out FILE]
    measurecycles cycles CHAIN [--max-period 6]
    measurecycles classes CHAIN
    measurecycles check CHAIN [--max-period 6]

CHAIN is a path to a chain JSON file, or the name of a bundled chain.  Exit
codes: 0 success, 1 validation failure, 2 invariant/check failure, 3 I/O.
Output is byte-deterministic for a fixed chain and flags.  With m >= 1 the
--max-period, `cycles` lists one class cycle per recurrent class of period
<= m of a finite chain, not their mixtures, and every orbit of period <= m
of one generator of a piecewise map at rational locations, bar the interior
of continuum cells.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Optional

from . import chainspec
from .chainspec import ChainSpec
from .cycles import (
    CycleKind,
    canonical_seeds,
    decompose_cycle,
    enumerate_cycles,
    measure_kind,
    measure_rank,
    verify_cycle,
)
from .errors import (
    MeasureChainError,
    NotCountablyAdditive,
    PointEscapesSpace,
    SpecValidationError,
)
from .functions import PiecewisePolyFunction, integrate
from .kernels import DeterministicKernel, StochasticKernel
from .measures import Measure, is_disjoint
from .polynomials import Polynomial
from .rationals import decimal_string, format_rational, parse_rational
from .state_cycles import (
    _transient_among,
    find_cyclic_classes,
    measures_from_state_cycle,
    state_cycle_equal,
    state_cycle_from_measures,
    verify_state_cycle,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK = 2
EXIT_IO = 3

DEFAULT_MAX_PERIOD = 6


def _load_spec(token: str, err) -> tuple[Optional[ChainSpec], int]:
    if os.path.exists(token):
        load, source = chainspec.load, token
    elif token in chainspec.bundled_chain_names():
        load, source = chainspec.load_bundled, f"bundled chain {token}"
    else:
        print(f"error: {token} is neither a file nor a bundled chain name", file=err)
        print("bundled chains: " + ", ".join(chainspec.bundled_chain_names()), file=err)
        return None, EXIT_IO
    try:
        return load(token), EXIT_OK
    except OSError as e:
        print(f"error: cannot read {token}: {e}", file=err)
        return None, EXIT_IO
    except SpecValidationError as e:
        print(f"{source}: INVALID", file=err)
        for d in e.diagnostics:
            print(f"  {d}", file=err)
        return None, EXIT_VALIDATION


def cmd_validate(args, out, err) -> int:
    spec, code = _load_spec(args.chain, err)
    if spec is None:
        return code
    k = spec.kernel
    print(f"chain {spec.name}: valid", file=out)
    if isinstance(k, StochasticKernel):
        print(f"  kind: stochastic, {len(k.states)} state(s)", file=out)
    else:
        print(f"  kind: deterministic, {len(k.pieces)} piece(s) on {k.space}", file=out)
    print(f"  declared measure cycles: {len(spec.declared_cycles)}", file=out)
    print(f"  declared state cycles: {len(spec.declared_state_cycles)}", file=out)
    return EXIT_OK


def cmd_trajectory(args, out, err) -> int:
    spec, code = _load_spec(args.chain, err)
    if spec is None:
        return code
    k = spec.kernel
    if not isinstance(k, DeterministicKernel):
        print("error: trajectories are defined for deterministic chains", file=err)
        return EXIT_VALIDATION
    try:
        x = parse_rational(args.x0)
    except ValueError as e:
        print(f"error: bad --x0: {e}", file=err)
        return EXIT_VALIDATION
    if args.steps < 0:
        print("error: --steps must be nonnegative", file=err)
        return EXIT_VALIDATION
    rows = ["step,exact,approx"]
    try:
        for step in range(args.steps + 1):
            try:
                rows.append(f"{step},{format_rational(x)},{decimal_string(x)}")
            except ValueError as e:  # past Python's int->str digit limit
                print(f"error: step {step}: {e}", file=err)
                return EXIT_VALIDATION
            if step < args.steps:
                x = k.map_point(x)
    except PointEscapesSpace as e:
        print(f"error: {e}", file=err)
        return EXIT_VALIDATION
    text = "\n".join(rows) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=err)
            return EXIT_IO
    else:
        out.write(text)
    return EXIT_OK


def cmd_cycles(args, out, err) -> int:
    spec, code = _load_spec(args.chain, err)
    if spec is None:
        return code
    k = spec.kernel
    try:
        cycles = enumerate_cycles(k, args.max_period)
        print(
            f"chain {spec.name}: {len(cycles)} cycle(s) with period <= {args.max_period}",
            file=out,
        )
        for idx, c in enumerate(cycles, 1):
            kind = c.classify()
            print(f"cycle {idx}: period {c.period}, {kind.value}", file=out)
            for j, m in enumerate(c.coords, 1):
                print(f"  coordinate {j}: {m}", file=out)
            print(f"  mean: {c.mean_measure()}", file=out)
            if kind is CycleKind.MIXED:
                d = c.decompose()
                for j, m in enumerate(d.ca_parts, 1):
                    print(f"  ca part {j}: {m}", file=out)
                for j, m in enumerate(d.pfa_parts, 1):
                    print(f"  pfa part {j}: {m}", file=out)
            rank = measure_rank(c.coords)
            verdict = "yes" if rank == c.period else "no"
            print(f"  independent coordinates: {verdict} (rank {rank})", file=out)
    except MeasureChainError as e:
        print(f"error: {e}", file=err)
        return EXIT_CHECK
    return EXIT_OK


def cmd_classes(args, out, err) -> int:
    spec, code = _load_spec(args.chain, err)
    if spec is None:
        return code
    k = spec.kernel
    if not isinstance(k, StochasticKernel):
        print("error: cyclic subclasses are defined for finite chains", file=err)
        return EXIT_VALIDATION
    infos = find_cyclic_classes(k)
    print(f"chain {spec.name}: {len(infos)} recurrent class(es)", file=out)
    for i, info in enumerate(infos, 1):
        states = ", ".join(format_rational(s) for s in info.states)
        print(f"class {i}: states {{{states}}}, period {info.period}", file=out)
        for r, sub in enumerate(info.subclasses, 1):
            inner = ", ".join(format_rational(s) for s in sub)
            print(f"  subclass {r}: {{{inner}}}", file=out)
        print(f"  invariant: {info.invariant}", file=out)
    leftovers = _transient_among(k, infos)
    if leftovers:
        print("transient states: " + ", ".join(format_rational(s) for s in leftovers), file=out)
    else:
        print("transient states: none", file=out)
    return EXIT_OK


# -- the check suite ---------------------------------------------------------


def _measure_battery(spec: ChainSpec) -> list[Measure]:
    measures = list(canonical_seeds(spec.kernel))
    for coords in spec.declared_cycles:
        measures.extend(coords)
    if len(measures) >= 2:
        measures.append(measures[0] + measures[1] * Fraction(1, 2))
    return measures


def _function_battery(spec: ChainSpec) -> list[PiecewisePolyFunction]:
    k = spec.kernel
    space = k.space
    comps = space.components
    one = Polynomial.constant(1)
    ident = Polynomial.of(0, 1)
    fs = [
        PiecewisePolyFunction.build(space, [(c, one) for c in comps]),
        PiecewisePolyFunction.build(space, [(c, ident) for c in comps]),
    ]
    if isinstance(k, DeterministicKernel):
        fs.append(PiecewisePolyFunction.build(space, list(k.pieces)))
    else:
        n = len(comps)
        fs.append(
            PiecewisePolyFunction.build(
                space,
                [(c, Polynomial.constant(Fraction(i + 1, n + 1))) for i, c in enumerate(comps)],
            )
        )
    return fs


def _memo(compute: Callable):
    """compute, run once per distinct argument tuple: every later call with
    the same arguments returns its value, or raises its MeasureChainError, again."""
    memo: dict = {}

    def get(*args):
        if args not in memo:
            try:
                memo[args] = compute(*args)
            except MeasureChainError as e:
                memo[args] = e
        if isinstance(memo[args], MeasureChainError):
            raise memo[args]
        return memo[args]

    return get


def _check_declared_cycles(spec: ChainSpec, cycles, battery):
    k = spec.kernel
    for i, coords in enumerate(spec.declared_cycles, 1):
        if not verify_cycle(k, coords):
            return False, f"declared cycle {i} is not a cycle"
    for i, sc in enumerate(spec.declared_state_cycles, 1):
        if not verify_state_cycle(k, sc):
            return False, f"declared state cycle {i} does not verify"
    return True, ""


def _check_duality(spec: ChainSpec, cycles, battery):
    k = spec.kernel
    tested = 0
    for f in _function_battery(spec):
        try:
            tf = k.pull_function(f)
        except MeasureChainError:
            continue
        for mu, pushed in battery():
            try:
                lhs = integrate(tf, mu)
                rhs = integrate(f, pushed())
            except MeasureChainError:
                continue
            if lhs != rhs:
                return False, f"integral mismatch at {mu}"
            tested += 1
    if tested == 0:
        return False, "no representable test pair"
    return True, ""


def _check_isometry(spec: ChainSpec, cycles, battery):
    for mu, pushed in battery():
        if not mu.is_nonnegative():
            continue
        if pushed().norm() != mu.norm():
            return False, f"norm changes at {mu}"
    return True, ""


def _check_cycle_classification(spec: ChainSpec, cycles, battery):
    for c in cycles():
        kind = c.classify()
        for i, m in enumerate(c.coords, 1):
            if (found := measure_kind(m)) is not kind:
                return False, f"coordinate {i} is {found.value}, the cycle {kind.value}"
    return True, ""


def _check_mean_invariance(spec: ChainSpec, cycles, battery):
    k = spec.kernel
    for c in cycles():
        mean = c.mean_measure()
        if k.push_measure(mean) != mean:
            return False, f"mean not fixed for period-{c.period} cycle"
    return True, ""


def _check_decomposition_roundtrip(spec: ChainSpec, cycles, battery):
    for c in cycles():
        d = decompose_cycle(c)
        for i, m in enumerate(c.coords):
            if d.ca_parts[i] + d.pfa_parts[i] != m:
                return False, f"parts do not sum back at coordinate {i + 1}"
        for a in d.ca_parts:
            for b in d.pfa_parts:
                if not a.is_zero() and not b.is_zero() and not is_disjoint(a, b):
                    return False, "ca and pfa parts are not disjoint"
    return True, ""


def _check_independence(spec: ChainSpec, cycles, battery):
    for c in cycles():
        rank = measure_rank(c.coords)
        if rank != c.period:
            return False, f"rank {rank} below period {c.period}"
    return True, ""


def _check_state_measure_correspondence(spec: ChainSpec, cycles, battery):
    k = spec.kernel
    for i, sc in enumerate(spec.declared_state_cycles, 1):
        if not sc.singular:
            continue
        cyc = measures_from_state_cycle(k, sc)
        try:
            back = state_cycle_from_measures(cyc)
        except NotCountablyAdditive:
            continue  # germ-supported; the forward checks already ran
        if not state_cycle_equal(back, sc):
            return False, f"round trip changed declared state cycle {i}"
    return True, ""


def _check_unique_cycle_countably_additive(spec: ChainSpec, cycles, battery):
    k = spec.kernel
    if not isinstance(k, StochasticKernel):
        return True, ""
    found = cycles()
    if len(found) != 1:
        return True, ""
    infos = find_cyclic_classes(k)
    if len(infos) != 1:
        return True, ""
    mean = found[0].mean_measure()
    if mean.total_mass() == 0 or mean.normalize() != infos[0].invariant:
        return True, ""
    if found[0].classify() is not CycleKind.COUNTABLY_ADDITIVE:
        return False, "unique cycle with invariant mean is not countably additive"
    return True, ""


_CHECKS: list[tuple[str, Callable]] = [
    ("declared_cycles", _check_declared_cycles),
    ("duality", _check_duality),
    ("isometry", _check_isometry),
    ("cycle_classification", _check_cycle_classification),
    ("mean_invariance", _check_mean_invariance),
    ("decomposition_roundtrip", _check_decomposition_roundtrip),
    ("independence", _check_independence),
    ("state_measure_correspondence", _check_state_measure_correspondence),
    ("unique_cycle_countably_additive", _check_unique_cycle_countably_additive),
]


def cmd_check(args, out, err) -> int:
    spec, code = _load_spec(args.chain, err)
    if spec is None:
        return code
    # the cycle search, the measure battery and each battery measure's push
    # run once, on first use
    cycles = _memo(lambda: enumerate_cycles(spec.kernel, args.max_period))
    push = _memo(spec.kernel.push_measure)
    battery = _memo(lambda: [(mu, partial(push, mu)) for mu in _measure_battery(spec)])
    failures = 0
    for name, fn in _CHECKS:
        try:
            ok, detail = fn(spec, cycles, battery)
        except MeasureChainError as e:
            ok, detail = False, str(e)
        if ok:
            print(f"check {name}: PASS", file=out)
        else:
            print(f"check {name}: FAIL ({detail})", file=out)
            failures += 1
    return EXIT_CHECK if failures else EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="measurecycles",
        description="Exact cycles of finitely additive measures for Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structurally validate a chain file")
    p.add_argument("chain", help="chain file path or bundled chain name")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("trajectory", help="exact orbit of a point as CSV")
    p.add_argument("chain")
    p.add_argument("--x0", required=True, help="starting point, e.g. 1/2")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_trajectory)

    p = sub.add_parser("cycles", help="class cycles (finite chain) or rational periodic orbits (map)")
    p.add_argument("chain")
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("classes", help="recurrent classes and cyclic subclasses")
    p.add_argument("chain")
    p.set_defaults(fn=cmd_classes)

    p = sub.add_parser("check", help="run the invariant suite against a chain")
    p.add_argument("chain")
    p.add_argument("--max-period", type=int, default=DEFAULT_MAX_PERIOD)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "max_period", 1) < 1:  # shared by `cycles` and `check`
        print("error: --max-period must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        code = args.fn(args, sys.stdout, sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone.  Point stdout at devnull so that the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    raise SystemExit(main())
