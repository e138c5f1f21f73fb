import json
from fractions import Fraction

import pytest

from measurecycles import (
    DeterministicKernel,
    StochasticKernel,
    bundled_chain_names,
    load_bundled,
)
from measurecycles.chainspec import load, loads, parse_chain
from measurecycles.errors import SpecValidationError

F = Fraction


def codes(err):
    return [d.code for d in err.value.diagnostics]


def wheres(err):
    return [d.where for d in err.value.diagnostics]


def minimal_stochastic():
    return {
        "name": "t",
        "kind": "stochastic",
        "states": ["1", "2"],
        "matrix": [["0", "1"], ["1", "0"]],
    }


def minimal_deterministic():
    return {
        "name": "t",
        "kind": "deterministic",
        "space": [{"lo": "0", "hi": "1"}],
        "pieces": [{"piece": {"lo": "0", "hi": "1"}, "poly_coeffs": ["0", "1"]}],
    }


def test_parse_minimal_chains():
    spec, diags = parse_chain(minimal_stochastic())
    assert diags == [] and isinstance(spec.kernel, StochasticKernel)
    assert spec.kernel.states == (F(1), F(2))
    spec, diags = parse_chain(minimal_deterministic())
    assert diags == [] and isinstance(spec.kernel, DeterministicKernel)


def test_bundled_chains_roundtrip_through_parser():
    assert bundled_chain_names() == [
        "interval_squares",
        "interval_squares_closed",
        "three_state_swap",
    ]
    for name in bundled_chain_names():
        spec = load_bundled(name)
        assert spec.name == name
        assert spec.declared_cycles
    with pytest.raises(FileNotFoundError):
        load_bundled("no_such_chain")


def test_row_sum_diagnostic():
    obj = minimal_stochastic()
    obj["matrix"][0] = ["0", "9/10"]
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert codes(err) == ["RowNotStochastic"]
    assert wheres(err) == ["$.matrix"]


def test_bad_rational_points_at_cell():
    obj = minimal_stochastic()
    obj["matrix"][0][1] = "1/0"
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert codes(err) == ["BadRational"]
    assert wheres(err) == ["$.matrix[0][1]"]


def test_float_literal_rejected():
    obj = minimal_stochastic()
    text = json.dumps(obj).replace('"1"', "0.5", 1)
    with pytest.raises(SpecValidationError) as err:
        loads(text)
    assert codes(err) == ["FloatLiteral"]
    assert "1/2" in str(err.value.diagnostics[0])


def test_overlong_int_literal_and_deep_nesting_are_diagnostics():
    obj = minimal_stochastic()
    text = json.dumps(obj).replace('"1"', "-" + "7" * 5000, 1)
    with pytest.raises(SpecValidationError) as err:
        loads(text)
    assert [str(d) for d in err.value.diagnostics] == [
        "IntLiteral at $: integer literal of 5000 digits: too long to read"
    ]
    with pytest.raises(SpecValidationError) as err:
        loads('{"states": ' + "[" * 100000 + "]" * 100000 + "}")
    assert [str(d) for d in err.value.diagnostics] == [
        "JsonSyntax at $: arrays or objects nest too deeply"
    ]


def test_json_syntax_error_reports_position():
    with pytest.raises(SpecValidationError) as err:
        loads('{"name": "t",\n  "kind": }')
    assert codes(err) == ["JsonSyntax"]
    assert wheres(err)[0].startswith("line 2, column ")


def test_missing_name_and_kind():
    with pytest.raises(SpecValidationError) as err:
        loads("{}")
    assert set(codes(err)) == {"MissingName", "BadKind"}


def test_not_an_object():
    with pytest.raises(SpecValidationError) as err:
        loads("[1, 2]")
    assert codes(err) == ["NotAnObject"]


def test_overlapping_pieces_diagnostic():
    obj = minimal_deterministic()
    obj["space"] = [{"lo": "0", "hi": "2"}]
    obj["pieces"] = [
        {"piece": {"lo": "0", "hi": "3/2"}, "poly_coeffs": ["0", "1"]},
        {"piece": {"lo": "1", "hi": "2"}, "poly_coeffs": ["0", "1"]},
    ]
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert codes(err) == ["PieceOverlap"]
    assert wheres(err) == ["$.pieces"]


def test_bad_declared_cycle_measure():
    obj = minimal_stochastic()
    obj["cycles"] = [[{"terms": [["1", {"kind": "atom"}]]}]]
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert codes(err) == ["BadMeasure"]
    assert wheres(err) == ["$.cycles[0][0]"]


def test_bad_state_cycle_set():
    obj = minimal_stochastic()
    obj["state_cycles"] = [{"sets": [[{"lo": "2", "hi": "1"}]]}]
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert codes(err) == ["BadSet"]
    assert wheres(err) == ["$.state_cycles[0].sets[0]"]


def test_several_diagnostics_collected_together():
    obj = minimal_stochastic()
    obj["states"] = ["1", "oops"]
    obj["matrix"][1][0] = "x"
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    assert len(err.value.diagnostics) >= 2
    assert "BadRational" in codes(err)


def test_load_reads_files(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(minimal_stochastic()), encoding="utf-8")
    spec = load(path)
    assert spec.name == "t"


def test_diagnostic_string_format():
    obj = minimal_stochastic()
    obj["matrix"][0][1] = "nope"
    with pytest.raises(SpecValidationError) as err:
        loads(json.dumps(obj))
    line = str(err.value.diagnostics[0])
    assert line.startswith("BadRational at $.matrix[0][1]: ")


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "chain.json"
    path.write_bytes(json.dumps(minimal_stochastic()).encode()[:9] + b"\xff\"}")
    with pytest.raises(SpecValidationError) as err:
        load(path)
    assert [str(d) for d in err.value.diagnostics] == ["NotUtf8 at byte 9: invalid start byte"]
