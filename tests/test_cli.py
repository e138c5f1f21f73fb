import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import measurecycles
from measurecycles import cli
from measurecycles.cli import main
from measurecycles.cycles import Cycle
from measurecycles.errors import InvariantViolation
from measurecycles.kernels import StochasticKernel
from measurecycles.measures import Measure

SWAP_VALIDATE = """\
chain three_state_swap: valid
  kind: stochastic, 3 state(s)
  declared measure cycles: 3
  declared state cycles: 1
"""

TRAJECTORY_CSV = """\
step,exact,approx
0,1/2,0.5
1,5/4,1.25
2,1/16,0.0625
3,257/256,1.00390625
4,1/65536,0.0000152587890625
5,4294967297/4294967296,1.0000000002328306437
6,1/18446744073709551616,5.4210108624275221700E-20
"""

CLOSED_CYCLES = """\
chain interval_squares_closed: 3 cycle(s) with period <= 6
cycle 1: period 2, countably_additive
  coordinate 1: 1*atom(0)
  coordinate 2: 1*atom(1)
  mean: 1/2*atom(0) + 1/2*atom(1)
  independent coordinates: yes (rank 2)
cycle 2: period 2, purely_finitely_additive
  coordinate 1: 1*left_limit(1)
  coordinate 2: 1*left_limit(2)
  mean: 1/2*left_limit(1) + 1/2*left_limit(2)
  independent coordinates: yes (rank 2)
cycle 3: period 2, purely_finitely_additive
  coordinate 1: 1*right_limit(0)
  coordinate 2: 1*right_limit(1)
  mean: 1/2*right_limit(0) + 1/2*right_limit(1)
  independent coordinates: yes (rank 2)
"""

SWAP_CLASSES = """\
chain three_state_swap: 2 recurrent class(es)
class 1: states {1}, period 1
  subclass 1: {1}
  invariant: 1*atom(1)
class 2: states {2, 3}, period 2
  subclass 1: {2}
  subclass 2: {3}
  invariant: 1/2*atom(2) + 1/2*atom(3)
transient states: none
"""

CHECK_NAMES = [
    "declared_cycles",
    "duality",
    "isometry",
    "cycle_classification",
    "mean_invariance",
    "decomposition_roundtrip",
    "independence",
    "state_measure_correspondence",
    "unique_cycle_countably_additive",
]


def test_validate_bundled(capsys):
    assert main(["validate", "three_state_swap"]) == 0
    assert capsys.readouterr().out == SWAP_VALIDATE


def test_validate_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad",
                "kind": "stochastic",
                "states": ["1", "2"],
                "matrix": [["1", "0"], ["9/10", "0"]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: INVALID" in err
    assert "RowNotStochastic at $.matrix" in err


def test_validate_irrational_critical_point_has_no_traceback(tmp_path):
    # x^3/8 - x/4 has its critical points at +-sqrt(2/3), inside [-2, 2]
    path = tmp_path / "cubic.json"
    path.write_text(
        json.dumps(
            {
                "name": "cubic",
                "kind": "deterministic",
                "space": [{"lo": "-2", "hi": "2", "lo_closed": True, "hi_closed": True}],
                "pieces": [
                    {
                        "piece": {"lo": "-2", "hi": "2", "lo_closed": True, "hi_closed": True},
                        "poly_coeffs": ["0", "-1/4", "0", "1/8"],
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    src = str(Path(measurecycles.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from measurecycles.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "validate", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 1
    assert "IrrationalCriticalPoint at $.pieces" in run.stderr
    assert "[-2,2]" in run.stderr
    assert "Traceback" not in run.stderr + run.stdout


def test_validate_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_bytes(b"\xff{}")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: INVALID\n  NotUtf8 at byte 0: invalid start byte\n"


def test_a_path_that_cannot_be_read_exits_with_io_code(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")


def test_unknown_chain_token(capsys):
    assert main(["validate", "no_such_chain"]) == 3
    err = capsys.readouterr().err
    assert "neither a file nor a bundled chain name" in err
    assert "three_state_swap" in err


def test_trajectory_golden(capsys):
    assert main(["trajectory", "interval_squares", "--x0", "1/2", "--steps", "6"]) == 0
    assert capsys.readouterr().out == TRAJECTORY_CSV


def test_trajectory_out_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    rc = main(
        [
            "trajectory",
            "interval_squares",
            "--x0",
            "1/2",
            "--steps",
            "6",
            "--out",
            str(target),
        ]
    )
    assert rc == 0
    assert target.read_text(encoding="utf-8") == TRAJECTORY_CSV
    assert capsys.readouterr().out == ""


def test_trajectory_alternating_atoms(capsys):
    assert main(["trajectory", "interval_squares_closed", "--x0", "0", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["0,0,0", "1,1,1", "2,0,0", "3,1,1", "4,0,0"]


def test_trajectory_rejects_stochastic(capsys):
    assert main(["trajectory", "three_state_swap", "--x0", "1", "--steps", "2"]) == 1
    assert "deterministic" in capsys.readouterr().err


def test_trajectory_x0_outside_space(capsys):
    assert main(["trajectory", "interval_squares", "--x0", "7", "--steps", "2"]) == 1
    assert "not in the phase space" in capsys.readouterr().err


def test_cycles_golden(capsys):
    assert main(["cycles", "interval_squares_closed"]) == 0
    assert capsys.readouterr().out == CLOSED_CYCLES


def test_cycles_respects_max_period(capsys):
    assert main(["cycles", "three_state_swap", "--max-period", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chain three_state_swap: 1 cycle(s) with period <= 1\n")
    assert "period 2" not in out


def test_classes_golden(capsys):
    assert main(["classes", "three_state_swap"]) == 0
    assert capsys.readouterr().out == SWAP_CLASSES


def test_classes_rejects_deterministic(capsys):
    assert main(["classes", "interval_squares"]) == 1


def test_check_all_pass(capsys):
    for name in ["three_state_swap", "interval_squares", "interval_squares_closed"]:
        assert main(["check", name]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"check {n}: PASS" for n in CHECK_NAMES]


def test_check_reports_bad_declared_cycle(tmp_path, capsys):
    path = tmp_path / "badcycle.json"
    path.write_text(
        json.dumps(
            {
                "name": "badcycle",
                "kind": "stochastic",
                "states": ["1", "2"],
                "matrix": [["0", "1"], ["1", "0"]],
                "cycles": [
                    [{"terms": [{"kind": "atom", "location": "1", "coefficient": "1"}]}]
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check declared_cycles: FAIL (declared cycle 1 is not a cycle)"
    assert sum(1 for line in lines if ": PASS" in line) == len(CHECK_NAMES) - 1


def test_check_reports_a_declared_state_cycle_that_does_not_verify(tmp_path, capsys):
    # state 1 maps to state 0, so {1} alone is no state cycle
    path = tmp_path / "badstatecycle.json"
    path.write_text(
        json.dumps(
            {
                "name": "badstatecycle",
                "kind": "stochastic",
                "states": ["0", "1"],
                "matrix": [["1", "0"], ["1", "0"]],
                "state_cycles": [{"sets": [[{"point": "1"}]]}],
            }
        ),
        encoding="utf-8",
    )
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "check declared_cycles: FAIL (declared state cycle 1 does not verify)"
    assert "check state_measure_correspondence: FAIL (not a state cycle for this kernel)" in lines
    assert sum(1 for line in lines if ": PASS" in line) == len(CHECK_NAMES) - 2
    assert captured.err == ""


def test_check_passes_a_state_cycle_inside_a_continuum_cell(tmp_path, capsys):
    # x -> 1 - x on [0, 1]; (1/4, 1/3) holds no listed cycle, only germs that return
    interval = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}
    path = tmp_path / "reflection.json"
    path.write_text(
        json.dumps(
            {
                "name": "reflection",
                "kind": "deterministic",
                "space": [interval],
                "pieces": [{"piece": interval, "poly_coeffs": ["1", "-1"]}],
                "state_cycles": [
                    {
                        "sets": [
                            [{"lo": "1/4", "hi": "1/3", "lo_closed": False, "hi_closed": False}],
                            [{"lo": "2/3", "hi": "3/4", "lo_closed": False, "hi_closed": False}],
                        ]
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["check", "--max-period", "2", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"check {n}: PASS" for n in CHECK_NAMES]


def test_check_searches_cycles_once(monkeypatch, capsys):
    calls = []
    search = cli.enumerate_cycles

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cli, "enumerate_cycles", counted)
    for name in ["three_state_swap", "interval_squares"]:
        calls.clear()
        assert main(["check", name]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_check_reports_a_failed_search_in_each_check(monkeypatch, capsys):
    calls = []

    def failing(*args):
        calls.append(args)
        raise InvariantViolation("search broke")

    monkeypatch.setattr(cli, "enumerate_cycles", failing)
    assert main(["check", "three_state_swap"]) == 2
    needing = {
        "cycle_classification",
        "mean_invariance",
        "decomposition_roundtrip",
        "independence",
        "unique_cycle_countably_additive",
    }
    assert capsys.readouterr().out.splitlines() == [
        f"check {n}: FAIL (search broke)" if n in needing else f"check {n}: PASS"
        for n in CHECK_NAMES
    ]
    assert len(calls) == 1


def test_check_fails_a_cycle_whose_coordinates_mix_types(monkeypatch, capsys):
    def unverified(kernel, coords):
        """A Cycle built without the verification that rejects these coordinates."""
        cycle = object.__new__(Cycle)
        object.__setattr__(cycle, "kernel", kernel)
        object.__setattr__(cycle, "coords", coords)
        return cycle

    atom, germ = Measure.dirac(0), Measure.left_germ(2)
    expected = {
        (atom, germ): "coordinate 2 is purely_finitely_additive, the cycle countably_additive",
        (atom + germ, atom): "coordinate 2 is countably_additive, the cycle mixed",
    }
    for coords, detail in expected.items():
        monkeypatch.setattr(cli, "enumerate_cycles", lambda k, m: [unverified(k, coords)])
        assert main(["check", "interval_squares_closed"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[CHECK_NAMES.index("cycle_classification")] == (
            f"check cycle_classification: FAIL ({detail})"
        )


def test_trajectory_past_the_digit_limit_exits_cleanly():
    src = str(Path(measurecycles.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from measurecycles.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "trajectory", "interval_squares", "--x0", "1/2", "--steps", "14"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: step 14: ")
    assert len(run.stderr.splitlines()) == 1
    assert "Traceback" not in run.stderr


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        assert main(["cycles", "interval_squares_closed"]) == 0
        assert main(["classes", "three_state_swap"]) == 0
        assert main(["check", "interval_squares"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_bad_steps_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["trajectory", "interval_squares", "--x0", "1/2", "--steps", "not-a-number"])
    capsys.readouterr()


def test_classes_searches_classes_once(monkeypatch, capsys):
    calls = []
    search = cli.find_cyclic_classes

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cli, "find_cyclic_classes", counted)
    monkeypatch.setattr(measurecycles.state_cycles, "find_cyclic_classes", counted)
    assert main(["classes", "three_state_swap"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _run_cli(argv, **kwargs):
    src = str(Path(measurecycles.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; from measurecycles.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        **kwargs,
    )


def test_validate_twenty_digit_critical_point_does_not_hang(tmp_path):
    # p = 1/2 + (x - a)^2 / 4 has its critical point at a, a rational with
    # 21-digit numerator and denominator: no divisor search may be run on it
    a = Fraction(10**20 + 7, 10**20 + 9)
    coeffs = [Fraction(1, 2) + a * a / 4, -a / 2, Fraction(1, 4)]
    box = {"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}
    path = tmp_path / "parabola.json"
    path.write_text(
        json.dumps(
            {
                "name": "parabola",
                "kind": "deterministic",
                "space": [box],
                "pieces": [{"piece": box, "poly_coeffs": [str(c) for c in coeffs]}],
            }
        ),
        encoding="utf-8",
    )
    run = _run_cli(["validate", str(path)], capture_output=True, timeout=20)
    assert run.returncode == 0
    assert run.stdout.startswith("chain parabola: valid\n")
    assert run.stderr == ""


def test_closed_stdout_exits_with_io_code(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _run_cli(["cycles", "interval_squares_closed"], stdout=write_end,
                       stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert "BrokenPipeError" not in run.stderr
    assert run.stderr.startswith("error: ")


SQUARES_CYCLES = """\
chain interval_squares: 2 cycle(s) with period <= 6
cycle 1: period 2, purely_finitely_additive
  coordinate 1: 1*left_limit(1)
  coordinate 2: 1*left_limit(2)
  mean: 1/2*left_limit(1) + 1/2*left_limit(2)
  independent coordinates: yes (rank 2)
cycle 2: period 2, purely_finitely_additive
  coordinate 1: 1*right_limit(0)
  coordinate 2: 1*right_limit(1)
  mean: 1/2*right_limit(0) + 1/2*right_limit(1)
  independent coordinates: yes (rank 2)
"""

CONVEYOR_CYCLES = """\
chain conveyor5: 2 cycle(s) with period <= 5
cycle 1: period 5, countably_additive
  coordinate 1: 1*atom(0)
  coordinate 2: 1*atom(1)
  coordinate 3: 1*atom(2)
  coordinate 4: 1*atom(3)
  coordinate 5: 1*atom(4)
  mean: 1/5*atom(0) + 1/5*atom(1) + 1/5*atom(2) + 1/5*atom(3) + 1/5*atom(4)
  independent coordinates: yes (rank 5)
cycle 2: period 5, purely_finitely_additive
  coordinate 1: 1*right_limit(0)
  coordinate 2: 1*right_limit(1)
  coordinate 3: 1*right_limit(2)
  coordinate 4: 1*right_limit(3)
  coordinate 5: 1*right_limit(4)
  mean: 1/5*right_limit(0) + 1/5*right_limit(1) + 1/5*right_limit(2) + 1/5*right_limit(3) + 1/5*right_limit(4)
  independent coordinates: yes (rank 5)
"""


def _conveyor_file(tmp_path) -> str:
    """Five pieces [i, i+1) on [0, 5), each onto the start of the next; piece
    1 is the parabola 2 + (x - 1)^2 / 4, so left germs drift through it."""
    coeffs = [["1", "1/2"], ["9/4", "-1/2", "1/4"], ["7/3", "1/3"], ["1", "1"], ["-1", "1/4"]]
    path = tmp_path / "conveyor5.json"
    path.write_text(
        json.dumps(
            {
                "name": "conveyor5",
                "kind": "deterministic",
                "space": [{"lo": "0", "hi": "5", "lo_closed": True, "hi_closed": False}],
                "pieces": [
                    {
                        "piece": {"lo": str(i), "hi": str(i + 1), "lo_closed": True,
                                  "hi_closed": False},
                        "poly_coeffs": c,
                    }
                    for i, c in enumerate(coeffs)
                ],
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def test_cycles_interval_squares_golden(capsys):
    assert main(["cycles", "interval_squares"]) == 0
    assert capsys.readouterr().out == SQUARES_CYCLES


def test_conveyor_cycles_and_check_golden(tmp_path, capsys):
    path = _conveyor_file(tmp_path)
    assert main(["cycles", "--max-period", "5", path]) == 0
    assert capsys.readouterr().out == CONVEYOR_CYCLES
    assert main(["check", "--max-period", "5", path]) == 0
    assert capsys.readouterr().out.splitlines() == [f"check {n}: PASS" for n in CHECK_NAMES]


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_reused_parser_keeps_no_options_between_calls(capsys):
    assert main(["cycles", "three_state_swap", "--max-period", "1"]) == 0
    assert capsys.readouterr().out.startswith("chain three_state_swap: 1 cycle(s) with period <= 1\n")
    assert main(["cycles", "three_state_swap"]) == 0
    assert capsys.readouterr().out.startswith(
        f"chain three_state_swap: 2 cycle(s) with period <= {cli.DEFAULT_MAX_PERIOD}\n"
    )
    assert cli.DEFAULT_MAX_PERIOD == 6


def test_reused_parser_recovers_from_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["cycles"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["validate", "three_state_swap"]) == 0
    assert capsys.readouterr().out == SWAP_VALIDATE


def test_check_pushes_each_battery_measure_once(monkeypatch, capsys):
    # the battery's mixture atom(1) + 1/2 atom(2) is in no cycle, so only
    # duality and isometry push it; duality skips it, isometry fails on it
    mixture = Measure.dirac(1) + Measure.dirac(2, Fraction(1, 2))
    push = StochasticKernel.push_measure
    calls = []

    def raising(self, mu):
        if mu == mixture:
            calls.append(mu)
            raise InvariantViolation("push broke")
        return push(self, mu)

    monkeypatch.setattr(StochasticKernel, "push_measure", raising)
    assert main(["check", "three_state_swap"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"check {n}: FAIL (push broke)" if n == "isometry" else f"check {n}: PASS"
        for n in CHECK_NAMES
    ]
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["cycles", "check"])
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_max_period_below_one_is_rejected(command, bound, capsys):
    assert main([command, "three_state_swap", "--max-period", bound]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-period must be at least 1\n"


THREE_PIECE_CYCLES = """\
chain three_piece: 2 cycle(s) with period <= 6
cycle 1: period 1, countably_additive
  coordinate 1: 1*atom(5/18)
  mean: 1*atom(5/18)
  independent coordinates: yes (rank 1)
cycle 2: period 2, purely_finitely_additive
  coordinate 1: 1*left_limit(5/18)
  coordinate 2: 1*right_limit(5/18)
  mean: 1/2*right_limit(5/18) + 1/2*left_limit(5/18)
  independent coordinates: yes (rank 2)
"""


def test_cycles_of_a_three_piece_quadratic_map_at_the_default_bound(tmp_path, capsys):
    # closed walks of six pieces compose to degree-64 polynomials with leading
    # coefficients of about 600 bits
    cuts = [("0", "1/3", False), ("1/3", "1/2", False), ("1/2", "1", True)]
    coeffs = [["5/8", "0", "-9/2"], ["3", "-18", "27"], ["0", "1", "-1"]]
    path = tmp_path / "three_piece.json"
    path.write_text(
        json.dumps(
            {
                "name": "three_piece",
                "kind": "deterministic",
                "space": [{"lo": "0", "hi": "1", "lo_closed": True, "hi_closed": True}],
                "pieces": [
                    {"piece": {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": closed},
                     "poly_coeffs": c}
                    for (lo, hi, closed), c in zip(cuts, coeffs)
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["cycles", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == THREE_PIECE_CYCLES
    assert captured.err == ""
