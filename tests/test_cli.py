"""Command-line behaviour: JSON payloads, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from gwcalc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nd_table(capsys):
    code, out, _ = run(capsys, ["nd", "--max", "3"])
    assert code == 0
    assert json.loads(out) == {"1": "1", "2": "1", "3": "12"}


def test_abs_plane(capsys):
    code, out, _ = run(
        capsys,
        ["abs", "--space", "p2", "--degree", "3", "--insertions", ",".join(["pt"] * 8)],
    )
    assert code == 0
    assert json.loads(out) == {"status": "ok", "value": "12"}


def test_abs_unsupported_exit_code(capsys):
    code, out, _ = run(
        capsys,
        ["abs", "--space", "gr:2:4", "--degree", "1", "--insertions", ",".join(["s2"] * 5)],
    )
    assert code == 2
    assert json.loads(out)["status"] == "unsupported"


def test_rel_value(capsys):
    code, out, _ = run(
        capsys,
        [
            "rel",
            "--bundle",
            "p1:c1=1",
            "--class",
            "1F",
            "--partition",
            "(1,id)",
            "--insertions",
            "zs:pt",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_rel_vanishing(capsys):
    code, out, _ = run(
        capsys,
        [
            "rel",
            "--bundle",
            "p1:c1=1",
            "--class",
            "2F",
            "--partition",
            "(2,pt)",
            "--insertions",
            "zs:pt",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "vanishes"
    assert payload["value"] == "0"
    assert payload["reason"]


def test_rel_negative_bundle_refused_under_optimisation():
    # The refusal must not hang on an assert, which `python -O` strips.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["rel", "--bundle", "p1:c1=-1", "--class", "2F", "--partition", "(2,pt)"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "gwcalc.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["status"] == "hypothesis-violated"


def test_rel_descendent_syntax(capsys):
    code, out, _ = run(
        capsys,
        [
            "rel",
            "--bundle",
            "pt:c1=0",
            "--class",
            "3F",
            "--partition",
            "(3,pt)",
            "--insertions",
            "zs:1@tau3",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/6"


def test_verify_line_point(capsys):
    code, out, _ = run(
        capsys, ["verify", "comparison", "--testbed", "p1-pt", "--points", "3"]
    )
    assert code == 0
    assert json.loads(out) == {"equal": True, "lhs": "1", "rhs": "1"}


def test_verify_plane_line(capsys):
    code, out, _ = run(
        capsys, ["verify", "comparison", "--testbed", "p2-line", "--max-degree", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert all(case["equal"] for case in payload["cases"])


def test_solve_relative(capsys):
    code, out, _ = run(
        capsys,
        [
            "solve",
            "relative",
            "--testbed",
            "p2-line",
            "--alphas",
            "pt,pt",
            "--betas",
            "1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == [{"partition": "(1,1)", "value": "1"}]


def test_lift(capsys):
    code, out, _ = run(capsys, ["lift", "--testbed", "p2-line", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["stage"] == "direct"
    assert payload["value"] == "1"


def test_rc_search(capsys):
    code, out, _ = run(
        capsys, ["rc", "--space", "gr:2:4", "--k", "3", "--max-degree", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 2 and payload["value"] == "1"


def test_ring_cup(capsys):
    code, out, _ = run(capsys, ["ring", "--space", "gr:2:4", "--cup", "s1,s1"])
    assert code == 0
    assert json.loads(out)["value"] == {"s2": "1", "s11": "1"}


def test_hypothesis_violation_exit_code(capsys):
    code, out, _ = run(capsys, ["lift", "--testbed", "p2-line", "--degree", "2", "--k", "2"])
    assert code == 3
    assert json.loads(out)["status"] == "hypothesis-violated"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["abs", "--space", "zzz", "--degree", "1"])
    assert code == 1
    assert "error" in err


def test_truncated_grassmannian_descriptor(capsys):
    code, out, err = run(capsys, ["ring", "--space", "gr:2"])
    assert code == 1
    assert out == ""
    assert "unrecognised space descriptor 'gr:2'" in err


def test_lift_negative_point_count(capsys):
    code, out, err = run(capsys, ["lift", "--testbed", "p2-line", "--k", "-1"])
    assert code == 1
    assert out == ""
    assert "k_points must be nonnegative" in err


def test_missing_subcommand_exit_code(capsys):
    assert run(capsys, [])[0] == 1


def test_output_is_byte_stable(capsys):
    argv = ["verify", "comparison", "--testbed", "p2-line", "--max-degree", "1"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_rationals_round_trip(capsys):
    _, out, _ = run(
        capsys,
        [
            "rel",
            "--bundle",
            "pt:c1=0",
            "--class",
            "4F",
            "--partition",
            "(4,pt)",
            "--insertions",
            "zs:1@tau4",
        ],
    )
    value = Fraction(json.loads(out)["value"])
    assert value == Fraction(1, 24)
    assert str(value) == json.loads(out)["value"]
