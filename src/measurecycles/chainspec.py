"""Chain description files.

A chain file is JSON with this shape:

    {
      "name": "three_state_swap",
      "description": "free text",
      "kind": "stochastic" | "deterministic",

      // stochastic
      "states": ["1", "2", "3"],
      "matrix": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],

      // deterministic
      "space": [<set component>, ...],
      "pieces": [{"piece": <set component>, "poly_coeffs": ["1", "0", "1"]}, ...],

      // optional declarations, verified by the `check` command
      "cycles": [[<measure>, ...], ...],
      "state_cycles": [{"sets": [[<set component>, ...], ...]}, ...]
    }

All numbers are exact rationals written as strings ("3", "-1/2"); floats are
rejected.  A set component is {"point": "p/q"} or {"lo", "hi", "lo_closed",
"hi_closed"} where "lo"/"hi" accept "-inf"/"+inf".  A measure is {"terms":
[{"kind": ..., "location": ..., "coefficient": ...}]}.  Polynomial
coefficients are listed from the constant term up.

Validation collects every problem it can find instead of stopping at the
first; each diagnostic carries a code, a JSON-path anchor, and a message.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass
from typing import Optional

from .errors import MeasureChainError, SpecValidationError
from .kernels import DeterministicKernel, Kernel, StochasticKernel
from .measures import Measure
from .polynomials import Polynomial
from .rationals import parse_rational
from .sets import SetExpr
from .state_cycles import StateCycle


@dataclass(frozen=True)
class Diagnostic:
    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.message}"


@dataclass(frozen=True)
class ChainSpec:
    name: str
    kernel: Kernel
    declared_cycles: tuple[tuple[Measure, ...], ...] = ()
    declared_state_cycles: tuple[StateCycle, ...] = ()
    description: str = ""

    @property
    def space(self) -> SetExpr:
        return self.kernel.space


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def add(self, code: str, where: str, message: str):
        self.diagnostics.append(Diagnostic(code, where, message))


def _parse_stochastic(obj: dict, diags: _Collector) -> Optional[StochasticKernel]:
    states_raw = obj.get("states")
    matrix_raw = obj.get("matrix")
    if not isinstance(states_raw, list) or not states_raw:
        diags.add("MissingStates", "$.states", "a stochastic chain needs a nonempty 'states' list")
        return None
    if not isinstance(matrix_raw, list):
        diags.add("MissingMatrix", "$.matrix", "a stochastic chain needs a 'matrix' list")
        return None
    states = []
    ok = True
    for i, s in enumerate(states_raw):
        try:
            states.append(parse_rational(s))
        except ValueError as e:
            diags.add("BadRational", f"$.states[{i}]", str(e))
            ok = False
    rows = []
    for i, row in enumerate(matrix_raw):
        if not isinstance(row, list):
            diags.add("BadMatrixRow", f"$.matrix[{i}]", "each matrix row must be a list")
            ok = False
            continue
        entries = []
        for j, entry in enumerate(row):
            try:
                entries.append(parse_rational(entry))
            except ValueError as e:
                diags.add("BadRational", f"$.matrix[{i}][{j}]", str(e))
                ok = False
        rows.append(tuple(entries))
    if not ok:
        return None
    try:
        return StochasticKernel(tuple(states), tuple(rows))
    except MeasureChainError as e:
        diags.add(getattr(e, "code", type(e).__name__), "$.matrix", str(e))
        return None


def _parse_deterministic(obj: dict, diags: _Collector) -> Optional[DeterministicKernel]:
    space_raw = obj.get("space")
    pieces_raw = obj.get("pieces")
    if not isinstance(space_raw, list) or not space_raw:
        diags.add("MissingSpace", "$.space", "a deterministic chain needs a nonempty 'space' list")
        return None
    if not isinstance(pieces_raw, list) or not pieces_raw:
        diags.add("MissingPieces", "$.pieces", "a deterministic chain needs a nonempty 'pieces' list")
        return None
    try:
        space = SetExpr.from_json_obj(space_raw)
    except ValueError as e:
        diags.add("BadSet", "$.space", str(e))
        return None
    pieces = []
    ok = True
    for i, item in enumerate(pieces_raw):
        if not isinstance(item, dict) or "piece" not in item or "poly_coeffs" not in item:
            diags.add(
                "BadPiece", f"$.pieces[{i}]", "each piece needs 'piece' and 'poly_coeffs'"
            )
            ok = False
            continue
        try:
            comp = SetExpr.component_from_json_obj(item["piece"])
        except ValueError as e:
            diags.add("BadSet", f"$.pieces[{i}].piece", str(e))
            ok = False
            continue
        coeffs_raw = item["poly_coeffs"]
        if not isinstance(coeffs_raw, list) or not coeffs_raw:
            diags.add(
                "BadPolynomial",
                f"$.pieces[{i}].poly_coeffs",
                "coefficients must be a nonempty list, constant term first",
            )
            ok = False
            continue
        try:
            coeffs = [parse_rational(c) for c in coeffs_raw]
        except ValueError as e:
            diags.add("BadRational", f"$.pieces[{i}].poly_coeffs", str(e))
            ok = False
            continue
        pieces.append((comp, Polynomial.of(*coeffs)))
    if not ok:
        return None
    try:
        return DeterministicKernel(space, tuple(pieces))
    except MeasureChainError as e:
        diags.add(getattr(e, "code", type(e).__name__), "$.pieces", str(e))
        return None


def parse_chain(obj) -> tuple[Optional[ChainSpec], list[Diagnostic]]:
    """Parse a decoded JSON object; returns the spec (or None) plus every
    diagnostic collected along the way."""
    diags = _Collector()
    if not isinstance(obj, dict):
        diags.add("NotAnObject", "$", "a chain file must contain a JSON object")
        return None, diags.diagnostics
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        diags.add("MissingName", "$.name", "a chain needs a nonempty string 'name'")
        name = "<unnamed>"
    description = obj.get("description", "")
    if not isinstance(description, str):
        diags.add("BadDescription", "$.description", "'description' must be a string")
        description = ""
    kind = obj.get("kind")
    kernel: Optional[Kernel] = None
    if kind == "stochastic":
        kernel = _parse_stochastic(obj, diags)
    elif kind == "deterministic":
        kernel = _parse_deterministic(obj, diags)
    else:
        diags.add(
            "BadKind", "$.kind", "'kind' must be \"stochastic\" or \"deterministic\""
        )
    cycles = []
    cycles_raw = obj.get("cycles", [])
    if not isinstance(cycles_raw, list):
        diags.add("BadCycles", "$.cycles", "'cycles' must be a list of coordinate lists")
        cycles_raw = []
    for i, coords_raw in enumerate(cycles_raw):
        if not isinstance(coords_raw, list) or not coords_raw:
            diags.add(
                "BadCycle", f"$.cycles[{i}]", "each cycle is a nonempty list of measures"
            )
            continue
        coords = []
        good = True
        for j, m in enumerate(coords_raw):
            try:
                coords.append(Measure.from_json_obj(m))
            except ValueError as e:
                diags.add("BadMeasure", f"$.cycles[{i}][{j}]", str(e))
                good = False
        if good:
            cycles.append(tuple(coords))
    state_cycles = []
    sc_raw = obj.get("state_cycles", [])
    if not isinstance(sc_raw, list):
        diags.add("BadStateCycles", "$.state_cycles", "'state_cycles' must be a list")
        sc_raw = []
    for i, item in enumerate(sc_raw):
        if not isinstance(item, dict) or not isinstance(item.get("sets"), list):
            diags.add(
                "BadStateCycle", f"$.state_cycles[{i}]", "each entry needs a 'sets' list"
            )
            continue
        sets = []
        good = True
        for j, s in enumerate(item["sets"]):
            try:
                sets.append(SetExpr.from_json_obj(s))
            except ValueError as e:
                diags.add("BadSet", f"$.state_cycles[{i}].sets[{j}]", str(e))
                good = False
        if good:
            try:
                state_cycles.append(StateCycle(tuple(sets)))
            except ValueError as e:
                diags.add("BadStateCycle", f"$.state_cycles[{i}]", str(e))
    if kernel is None:
        return None, diags.diagnostics
    spec = ChainSpec(
        name=name,
        kernel=kernel,
        declared_cycles=tuple(cycles),
        declared_state_cycles=tuple(state_cycles),
        description=description,
    )
    return spec, diags.diagnostics


def loads(text: str) -> ChainSpec:
    """Parse chain JSON; raises SpecValidationError carrying all diagnostics."""
    try:
        obj = json.loads(text, parse_float=_reject_float, parse_int=_keep_int)
    except json.JSONDecodeError as e:
        raise SpecValidationError(
            [Diagnostic("JsonSyntax", f"line {e.lineno}, column {e.colno}", e.msg)]
        ) from None
    except RecursionError:
        raise SpecValidationError(
            [Diagnostic("JsonSyntax", "$", "arrays or objects nest too deeply")]
        ) from None
    spec, diagnostics = parse_chain(obj)
    if diagnostics or spec is None:
        raise SpecValidationError(diagnostics)
    return spec


def _reject_float(text: str):
    raise SpecValidationError([Diagnostic(
        "FloatLiteral", "$", f"float literal {text!r}: write exact rationals as strings like \"1/2\""
    )])


def _keep_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past Python's int->str digit limit
        raise SpecValidationError([Diagnostic(
            "IntLiteral", "$", f"integer literal of {len(text.lstrip('-'))} digits: too long to read"
        )]) from None


def load(path) -> ChainSpec:
    """Parse a chain file; OSError when it cannot be read, SpecValidationError
    when it is not UTF-8 or not a valid chain."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()  # one decode of the whole file: e.start is its byte offset
    except UnicodeDecodeError as e:
        raise SpecValidationError([Diagnostic("NotUtf8", f"byte {e.start}", e.reason)]) from None
    return loads(text)


def bundled_chain_names() -> list[str]:
    root = importlib.resources.files(__package__) / "chains"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> ChainSpec:
    root = importlib.resources.files(__package__) / "chains"
    resource = root / f"{name}.json"
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled chain named {name!r}")
    return loads(resource.read_text(encoding="utf-8"))
