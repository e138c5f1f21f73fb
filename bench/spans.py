"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the public functions and methods of every measurecycles
module, plus the few private entry points the layer metrics need (kernel and
function construction, the boolean set operators, the function piece
lookup).  A wrapper is put into every namespace that holds the original
(`cli.enumerate_cycles`, the package's re-exports, ...).  Each call records a
span (name, start, end, parent) in flat arrays; nothing is written until
`write` runs at the end.  `layer_metrics` derives the per-layer figures:
calls are entries into a group (a span whose parent is outside the group),
self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

MODULES = ["rationals", "sets", "measures", "polynomials", "functions", "kernels",
           "cycles", "state_cycles", "chainspec", "cli"]

# metric group -> the wrapped names it is made of
GROUPS = {
    "measures.from_terms": ["measures.Measure.from_terms"],
    "measures.queries": ["measures.meet", "measures.join", "measures.Measure.split",
                         "measures.Measure.norm", "measures.Measure.evaluate",
                         "measures.Measure.restrict", "measures.is_disjoint",
                         "measures.is_singular"],
    "kernels.push_measure": ["kernels.DeterministicKernel.push_measure",
                             "kernels.StochasticKernel.push_measure"],
    "kernels.push_generator": ["kernels.DeterministicKernel.push_generator",
                               "kernels.StochasticKernel.push_generator"],
    "kernels.pull_function": ["kernels.DeterministicKernel.pull_function",
                              "kernels.StochasticKernel.pull_function"],
    "kernels.map_point": ["kernels.DeterministicKernel.map_point"],
    "kernels.construct": ["kernels.DeterministicKernel.__post_init__",
                          "kernels.StochasticKernel.__post_init__"],
    "sets.combine": ["sets.SetExpr.__or__", "sets.SetExpr.__and__", "sets.SetExpr.__sub__",
                     "sets.SetExpr.is_subset", "sets.SetExpr.intersects"],
    "sets.contains": ["sets.SetExpr.contains_point", "sets.SetExpr.contains_right_neighborhood",
                      "sets.SetExpr.contains_left_neighborhood",
                      "sets.SetExpr.contains_plus_tail", "sets.SetExpr.contains_minus_tail"],
    "functions.construct": ["functions.PiecewisePolyFunction.__post_init__"],
    "functions.lookup": ["functions.PiecewisePolyFunction._piece_at_point",
                         "functions.PiecewisePolyFunction.value_at",
                         "functions.PiecewisePolyFunction.right_limit_at",
                         "functions.PiecewisePolyFunction.left_limit_at",
                         "functions.PiecewisePolyFunction.plus_tail_value",
                         "functions.PiecewisePolyFunction.minus_tail_value"],
    "rationals.parse": ["rationals.parse_rational"],
    "rationals.format": ["rationals.format_rational", "rationals.decimal_string"],
}
# private or dunder names wrapped on top of the public ones
EXTRA = {name for names in GROUPS.values() for name in names
         if name.rsplit(".", 1)[1].startswith("_")}

CALLS = ["measures.from_terms", "kernels.push_measure", "kernels.push_generator",
         "kernels.pull_function", "kernels.map_point", "cycles.enumerate_cycles",
         "cycles.find_cycle_from", "cycles.verify_cycle", "cycles.measure_rank",
         "state_cycles.find_cyclic_classes", "polynomials.rational_roots",
         "polynomials.irrational_root_count_open", "polynomials.polynomial_image",
         "sets.combine", "sets.contains", "functions.lookup", "functions.integrate",
         "chainspec.loads", "cli.main"]
SELF = ["measures.from_terms", "measures.queries", "kernels.push_measure",
        "kernels.pull_function", "kernels.map_point", "kernels.construct",
        "cycles.enumerate_cycles", "cycles.verify_cycle", "cycles.measure_rank",
        "state_cycles.find_cyclic_classes", "polynomials.rational_roots",
        "polynomials.irrational_root_count_open", "polynomials.polynomial_image",
        "sets.combine", "sets.contains", "functions.construct", "functions.lookup",
        "functions.integrate", "chainspec.loads", "cli.main", "rationals.parse",
        "rationals.format"]


def _group_of(name: str) -> str:
    for group, names in GROUPS.items():
        if name in names:
            return group
    module, _, attr = name.partition(".")
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.cycles_found = 0
        self.seeds_closed = 0
        self.max_coeff_bits = 0
        self._pending: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn, name: str, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _on_enumerate(self, cycles):
        self.cycles_found += len(cycles)
        self._pending.append(cycles)

    def _on_find(self, cycle):
        if cycle is not None:
            self.seeds_closed += 1

    def install(self, package) -> None:
        hooks = {"cycles.enumerate_cycles": self._on_enumerate,
                 "cycles.find_cycle_from": self._on_find}
        namespaces = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrapped = self._wrapper(obj, name, hooks.get(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                        and not hasattr(obj, "__members__"):
                    self._wrap_class(short, obj)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in EXTRA:
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrapper(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrapper(raw, name))

    # -- results -------------------------------------------------------------

    def drain(self) -> None:
        """Scan the cycles returned since the last call for coefficient bit
        lengths.  Runs between rounds, outside every span."""
        for cycles in self._pending:
            for cycle in cycles:
                for m in cycle.coords:
                    for _, c in m.terms:
                        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                        if bits > self.max_coeff_bits:
                            self.max_coeff_bits = bits
        self._pending.clear()

    def layer_metrics(self) -> dict:
        self.drain()
        n = len(self.span_name)
        groups = [_group_of(name) for name in self.names]
        gid = {g: i for i, g in enumerate(sorted(set(groups)))}
        group_of_name = [gid[g] for g in groups]
        child = array("d", bytes(8 * n))
        calls = [0] * len(gid)
        self_s = [0.0] * len(gid)
        name_ids = {name: i for i, name in enumerate(self.names)}
        enum_id = name_ids.get("cycles.enumerate_cycles", -2)
        check_id = name_ids.get("cli.cmd_check", -2)
        push_ids = {name_ids.get(x, -2) for x in GROUPS["kernels.push_measure"]}
        in_enum = bytearray(n)
        in_check = bytearray(n)
        pushes_in_enum = 0
        enum_in_check = 0
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        # a parent always has a smaller index than its children
        for i in range(n):
            p = parents[i]
            g = group_of_name[names[i]]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                if group_of_name[names[p]] != g:
                    calls[g] += 1
                in_enum[i] = in_enum[p] or names[p] == enum_id
                in_check[i] = in_check[p] or names[p] == check_id
            else:
                calls[g] += 1
            if in_enum[i] and names[i] in push_ids:
                pushes_in_enum += 1
            if in_check[i] and names[i] == enum_id:
                enum_in_check += 1
        for i in range(n):
            self_s[group_of_name[names[i]]] += ends[i] - starts[i] - child[i]
        count = {g: calls[i] for g, i in gid.items()}
        busy = {g: self_s[i] for g, i in gid.items()}
        checks = sum(1 for i in range(n) if names[i] == check_id)
        tried = count.get("cycles.find_cycle_from", 0)
        out = {}
        for g in CALLS:
            out[f"{g}.calls"] = (count.get(g, 0), "count")
        for g in SELF:
            out[f"{g}.self_s"] = (busy.get(g, 0.0), "s")
        out["measures.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        out["cycles.seeds_closed"] = (self.seeds_closed, "count")
        out["cycles.seed_close_ratio"] = (self.seeds_closed / tried if tried else 0.0, "ratio")
        out["cycles.pushes_per_cycle"] = (
            pushes_in_enum / self.cycles_found if self.cycles_found else 0.0, "count")
        out["cli.enumerate_cycles_per_check"] = (enum_in_check / checks if checks else 0.0, "count")
        out["trace.spans"] = (n, "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path) -> None:
        """Spans as gzip TSV: index, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
