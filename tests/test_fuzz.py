"""Hypothesis fuzzing of chain documents through `chainspec.loads` and `cli.main`.

The documents mix valid and invalid fields, and their rationals have parts of
up to 40 digits; chain files also hold raw bytes, UTF-8 or not.  Every
document must end in a result or a diagnostic: `loads` returns a spec or
raises SpecValidationError, and every command of the CLI exits 0, 1, 2 or 3,
within a time budget and with no traceback.
"""

import json
import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from measurecycles.chainspec import ChainSpec, loads
from measurecycles.cli import main
from measurecycles.errors import SpecValidationError

F = Fraction

BUDGET_S = 20  # wall-clock seconds for every command on one document

long_ints = st.integers(10**19, 10**40)  # 20 to 40 digits
fracs = st.one_of(
    st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
    st.builds(F, st.integers(-(10**40), 10**40), long_ints),
)
# mostly valid rationals; the rest are what a chain file must reject or may
# write another way
values = st.one_of(
    fracs.map(str),
    fracs.map(str),
    fracs.map(str),
    st.sampled_from(["1/0", "abc", "", "1/-2", "0.5", "+inf", "-inf", " 1/2 ", "1e5",
                     None, True, [], {}, 7, -3, 10**40]),
)
KINDS = ["atom", "right_limit", "left_limit", "plus_infinity", "minus_infinity", "bogus"]


def _interval(lo, hi, lo_closed=True, hi_closed=False):
    return {"lo": str(lo), "hi": str(hi), "lo_closed": lo_closed, "hi_closed": hi_closed}


@st.composite
def stochastic_docs(draw):
    n = draw(st.integers(1, 4))
    states = draw(st.lists(fracs, min_size=n, max_size=n, unique=True))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.one_of(st.integers(0, 3), long_ints), min_size=n, max_size=n))
        weights[0] += not any(weights)
        rows.append([str(F(w, sum(weights))) for w in weights])
    return {"name": "fuzz", "kind": "stochastic", "states": [str(s) for s in states],
            "matrix": rows}, states


@st.composite
def deterministic_docs(draw):
    """Pieces [c_i, c_i+1) of [c_0, c_n), each mapped onto a piece by an
    increasing affine or quadratic map, or by a decreasing affine one, whose
    image may leave the space."""
    cuts = sorted(draw(st.lists(fracs, min_size=2, max_size=4, unique=True)))
    pieces = []
    for i, j in enumerate(draw(st.permutations(range(len(cuts) - 1)))):
        lo, hi, a, b = cuts[i], cuts[i + 1], cuts[j], cuts[j + 1]
        shape = draw(st.sampled_from(["affine", "quadratic", "decreasing"]))
        if shape == "affine":
            r = (b - a) / (hi - lo)
            coeffs = [a - r * lo, r]
        elif shape == "quadratic":
            c = (b - a) / (hi - lo) ** 2
            coeffs = [a + c * lo * lo, -2 * c * lo, c]
        else:
            r = (b - a) / (hi - lo)
            coeffs = [b + r * lo, -r]
        pieces.append({"piece": _interval(lo, hi), "poly_coeffs": [str(x) for x in coeffs]})
    doc = {"name": "fuzz", "kind": "deterministic", "space": [_interval(cuts[0], cuts[-1])],
           "pieces": pieces}
    return doc, cuts


@st.composite
def measures(draw, locations):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        term = {"kind": draw(st.sampled_from(KINDS)), "coefficient": draw(values)}
        if term["kind"] in ("atom", "right_limit", "left_limit", "bogus"):
            term["location"] = str(draw(st.sampled_from(locations)))
        terms.append(term)
    return {"terms": terms}


def _paths(node, path=()):
    """Every path into the document, to a container or a leaf."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def chain_documents(draw):
    """A chain document, its rational locations, and up to two broken fields."""
    doc, locations = draw(st.one_of(stochastic_docs(), deterministic_docs()))
    period = draw(st.integers(1, 2))
    if draw(st.booleans()):
        doc["cycles"] = [draw(st.lists(measures(locations), min_size=period, max_size=period))]
    if draw(st.booleans()):
        sets = [[{"point": str(x)}] for x in draw(st.permutations(locations))[:period]]
        doc["state_cycles"] = [{"sets": sets}]
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(values)
    return doc, locations


class Overrun(Exception):
    pass


@contextmanager
def budget(seconds):
    def overrun(signum, frame):
        raise Overrun(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:  # argparse usage errors
        return e.code


@given(chain_documents())
def test_loads_ends_in_a_spec_or_diagnostics(case):
    doc, _ = case
    text = json.dumps(doc)
    with budget(BUDGET_S):
        try:
            assert isinstance(loads(text), ChainSpec)
        except SpecValidationError as e:
            assert e.diagnostics


@given(st.text(max_size=60) | st.builds(lambda n: "[" * n + "]" * n, st.integers(0, 100000)))
@example("[" * 100000)
@example('{"states": [' + "1" * 5000 + "]}")
def test_loads_rejects_any_text_with_diagnostics(text):
    try:
        loads(text)
    except SpecValidationError as e:
        assert e.diagnostics


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chain_documents(), st.integers(-1, 5), st.data())
def test_cli_exits_with_a_documented_code(tmp_path, capsys, case, steps, data):
    doc, locations = case
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    x0 = data.draw(st.one_of(st.sampled_from(locations).map(str), values.map(str)))
    commands = [
        ["validate", str(path)],
        ["cycles", str(path), "--max-period", "2"],
        ["classes", str(path)],
        ["check", str(path), "--max-period", "2"],
        ["trajectory", str(path), "--x0", x0, "--steps", str(steps)],
    ]
    with budget(BUDGET_S):
        for argv in commands:
            code = _exit_code(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, argv


@st.composite
def spliced_documents(draw):
    """A chain document's UTF-8 bytes with random bytes spliced in."""
    doc, _ = draw(chain_documents())
    data = json.dumps(doc).encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(max_size=200) | spliced_documents())
@example(b"\xff")
def test_cli_exits_with_a_documented_code_on_any_bytes(tmp_path, capsys, data):
    path = tmp_path / "chain.json"
    path.write_bytes(data)
    with budget(BUDGET_S):
        for argv in (["validate", str(path)], ["check", str(path), "--max-period", "2"]):
            code = _exit_code(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, code)
            assert "Traceback" not in err, argv
