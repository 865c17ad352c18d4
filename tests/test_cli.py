"""Command-line behaviour: JSON payloads, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gwcalc import degeneration, quantum
from gwcalc.cli import main
from gwcalc.errors import GWError, InternalError
from gwcalc.quantum import wdvv_nd

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nd_table(capsys):
    code, out, _ = run(capsys, ["nd", "--max", "5"])
    assert code == 0
    assert json.loads(out) == {"1": "1", "2": "1", "3": "12", "4": "620", "5": "87304"}


def test_nd_beyond_int_text_limit():
    # N_120 has 654 digits; the CLI must print it under a 640-digit limit
    # on int-to-str conversion without raising that limit for its process.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    limit = ["-X", "int_max_str_digits=640"]
    proc = subprocess.run(
        [sys.executable, *limit, "-m", "gwcalc.cli", "nd", "--max", "120"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)
    assert len(table["120"]) == 654
    assert table == {str(d): str(wdvv_nd(d)) for d in range(1, 121)}


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


def test_verify_degree_zero_on_the_point_divisor_is_unsupported(capsys):
    # A valid query the closed-form oracle cannot answer: no degree-0 fiber
    # lines exist, so the command reports it as unsupported.
    code, out, err = run(
        capsys,
        ["verify", "comparison", "--testbed", "p1-pt", "--degree", "0", "--alphas", "1,1"],
    )
    assert (code, err) == (2, "lhs=0 rhs=None equal=None\n")
    payload = json.loads(out)
    assert (payload["status"], payload["lhs"], payload["rhs"]) == ("unsupported", "0", None)


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


def test_internal_error_exit_code(capsys, monkeypatch):
    # A sign flipped on every rim hook makes a quantum coefficient negative.
    # The positivity guard calls that an internal error: exit 5 and one line
    # on stderr, no traceback and no partial table.
    reduce = quantum._rim_reduce

    def flipped(nu, rows, n):
        reduced = reduce(nu, rows, n)
        if reduced is None or reduced[1] == 0:
            return reduced
        sign, count, core = reduced
        return -sign, count, core

    monkeypatch.setattr(quantum, "_rim_reduce", flipped)
    code, out, err = run(capsys, ["ring", "--space", "gr:2:4", "--quantum"])
    assert code == 5
    assert out == ""
    assert err == "internal error: negative or fractional quantum coefficient at q^1\n"


def test_internal_error_is_a_gw_error():
    assert issubclass(InternalError, GWError)
    assert issubclass(InternalError, RuntimeError)


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["abs", "--space", "zzz", "--degree", "1"])
    assert code == 1
    assert "error" in err


def test_cup_without_second_label_names_the_flag(capsys):
    code, out, err = run(capsys, ["ring", "--space", "gr:2:4", "--cup", "s1"])
    assert code == 1
    assert out == ""
    assert "--cup expects two class labels '<a>,<b>', got 's1'" in err


@pytest.mark.parametrize("text", ["s1,s1,s1", "h,h,"])
def test_cup_with_more_than_two_labels_names_the_flag(capsys, text):
    code, out, err = run(capsys, ["ring", "--space", "gr:2:4", "--cup", text])
    assert code == 1
    assert out == ""
    assert f"--cup expects two class labels '<a>,<b>', got {text!r}" in err


def test_empty_cup_names_the_flag(capsys):
    code, out, err = run(capsys, ["ring", "--space", "gr:2:4", "--cup", ""])
    assert (code, out) == (1, "")
    assert "--cup expects two class labels '<a>,<b>', got ''" in err


@pytest.mark.parametrize(
    "modes",
    [
        ["--cup", "s1,s1", "--dual"],
        ["--cup", "s1,s1", "--quantum"],
        ["--dual", "--quantum"],
        ["--quantum", "--cup", "s1,s1"],
        ["--dual", "--cup", ""],
        ["--quantum", "--dual", "--cup", "s1,s1"],
    ],
)
def test_ring_modes_are_exclusive(capsys, modes):
    code, out, err = run(capsys, ["ring", "--space", "gr:2:4", *modes])
    assert (code, out) == (1, "")
    first, second = [m for m in modes if m.startswith("--")][:2]
    assert f"argument {second}: not allowed with argument {first}" in err


def test_solve_takes_only_relative(capsys):
    argv = ["solve", "absolute", "--testbed", "p1-pt", "--betas", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert "invalid choice: 'absolute'" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["ring", "--space", "gr:2:4", "--quantum"], 0),
        (["abs", "--space", "gr:2:4", "--degree", "1", "--insertions", "s2,s2,s2,s2,s2"], 2),
    ],
)
def test_closed_stdout_keeps_the_exit_code(argv, expected):
    # The reader of stdout is gone before the command writes (`gw ... | head`).
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gwcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "text, detail",
    [
        ("(2)", "bad partition chunk '(2)'"),
        ("(x,pt)", "bad multiplicity 'x' in '(x,pt)'"),
    ],
)
def test_malformed_partition_names_the_flag(capsys, text, detail):
    argv = ["rel", "--bundle", "pt:c1=0", "--class", "1F", "--partition", text]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"--partition expects '(<m>,<label>)' pairs joined by '+': {detail}" in err


def test_truncated_grassmannian_descriptor(capsys):
    code, out, err = run(capsys, ["ring", "--space", "gr:2"])
    assert code == 1
    assert out == ""
    assert "unrecognised space descriptor 'gr:2'" in err


SPACE_FORMS = "expected pt, pn:<n>, gr:<k>:<n> or p<n>"
REL_P1 = ["rel", "--bundle", "p1:c1=1", "--class", "1F"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "xF"],
            "--class expects <s>F (fiber) or <d>A (section), got 'xF'",
        ),
        (
            ["rel", "--bundle", "p1:c1=x", "--class", "1F"],
            "bundle descriptor 'p1:c1=x' must be '<space>:c1=<int>'",
        ),
        (
            ["abs", "--space", "pn:x", "--degree", "1"],
            f"unrecognised space descriptor 'pn:x'; {SPACE_FORMS}",
        ),
        (
            ["abs", "--space", "gr:x:4", "--degree", "1"],
            f"unrecognised space descriptor 'gr:x:4'; {SPACE_FORMS}",
        ),
        (
            ["ring", "--space", "pn:x"],
            f"unrecognised space descriptor 'pn:x'; {SPACE_FORMS}",
        ),
        (
            ["abs", "--space", "p2", "--degree", "1", "--insertions", "h^x,pt"],
            "unknown class label 'h^x' for pn:2",
        ),
        (
            ["ring", "--space", "p2", "--cup", "h^y,h"],
            "unknown class label 'h^y' for pn:2",
        ),
        (
            REL_P1 + ["--partition", "(1,h^z)", "--insertions", "zs:pt"],
            "--partition expects '(<m>,<label>)' pairs joined by '+': "
            "unknown class label 'h^z' for pn:1",
        ),
        (
            REL_P1 + ["--partition", "(1,id)", "--insertions", "zs:pt@taux"],
            "descendent suffix '@taux' must be '@tau<d>'",
        ),
        (
            ["abs", "--space", "p2", "--degree", "1", "--insertions", "h^ 1,pt,h^0"],
            "unknown class label 'h^ 1' for pn:2",
        ),
        (
            ["abs", "--space", "pn:0_3", "--degree", "1", "--insertions", "pt,pt"],
            f"unrecognised space descriptor 'pn:0_3'; {SPACE_FORMS}",
        ),
        (
            ["abs", "--space", "gr:2:\u0664", "--degree", "0", "--insertions", "pt,1,1"],
            f"unrecognised space descriptor 'gr:2:\u0664'; {SPACE_FORMS}",
        ),
        (
            ["ring", "--space", "p\u0664"],
            f"unrecognised space descriptor 'p\u0664'; {SPACE_FORMS}",
        ),
        (
            ["rel", "--bundle", "p1:c1= 1", "--class", "+1F", "--partition", "( 1,id)",
             "--insertions", "zs:pt@tau+1"],
            "bundle descriptor 'p1:c1= 1' must be '<space>:c1=<int>'",
        ),
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "+1F", "--partition", "(1,id)",
             "--insertions", "zs:pt"],
            "--class expects <s>F (fiber) or <d>A (section), got '+1F'",
        ),
        (
            REL_P1 + ["--partition", "( 1,id)", "--insertions", "zs:pt"],
            "--partition expects '(<m>,<label>)' pairs joined by '+': "
            "bad multiplicity ' 1' in '( 1,id)'",
        ),
        (
            REL_P1 + ["--partition", "(1,id)", "--insertions", "zs:pt@tau+1"],
            "descendent suffix '@tau+1' must be '@tau<d>'",
        ),
        (
            ["ring", "--space", "pn:2", "--cup", "h^0,h"],
            "unknown class label 'h^0' for pn:2",
        ),
        (
            ["ring", "--space", "pn:2", "--cup", "h,h^1"],
            "unknown class label 'h^1' for pn:2",
        ),
        (
            ["abs", "--space", "pn:2", "--degree", "0", "--insertions", "h^02,1,1"],
            "unknown class label 'h^02' for pn:2",
        ),
    ],
    ids=[
        "rel-class",
        "rel-bundle",
        "abs-pn",
        "abs-gr",
        "ring-pn",
        "abs-power",
        "ring-power",
        "rel-partition-power",
        "rel-tau",
        "abs-power-space",
        "abs-pn-underscore",
        "abs-gr-arabic-digit",
        "ring-p-arabic-digit",
        "rel-bundle-space",
        "rel-class-plus",
        "rel-partition-space",
        "rel-tau-plus",
        "ring-power-zero",
        "ring-power-one",
        "abs-power-zero-padded",
    ],
)
def test_non_integer_field_names_the_form(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["abs", "--space", "p2", "--degree", " 1", "--insertions", "pt,pt"], "--degree", " 1"),
        (["nd", "--max", "+3"], "--max", "+3"),
        (["lift", "--testbed", "p2-line", "--k", "1_0"], "--k", "1_0"),
        (["verify", "comparison", "--testbed", "p1-pt", "--points", "\u0663"], "--points", "\u0663"),
    ],
    ids=["degree-space", "max-plus", "k-underscore", "points-arabic-digit"],
)
def test_integer_options_take_ascii_digits(capsys, argv, option, value):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"usage error: argument {option}: invalid int value: {value!r}\n"


def test_lift_negative_point_count(capsys):
    code, out, err = run(capsys, ["lift", "--testbed", "p2-line", "--k", "-1"])
    assert code == 1
    assert out == ""
    assert "k_points must be nonnegative" in err


def test_solve_negative_degree(capsys):
    argv = ["solve", "relative", "--testbed", "p2-line", "--degree", "-1", "--betas", "1"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "curve degree must be nonnegative" in err


def test_verify_empty_battery(capsys):
    for max_degree in ("0", "-2"):
        argv = ["verify", "comparison", "--testbed", "p2-line", "--max-degree", max_degree]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--max-degree must be at least 1" in err


def _plant_off_by_one(monkeypatch, name, wrap):
    real = getattr(degeneration, name)
    monkeypatch.setattr(degeneration, name, lambda *a, **k: wrap(real(*a, **k)))


@pytest.mark.parametrize(
    "shape",
    [
        ["--testbed", "p1-pt", "--points", "3"],
        ["--testbed", "p2-line", "--max-degree", "1"],
        ["--testbed", "p2-line", "--alphas", "pt,pt", "--betas", "1"],
    ],
)
def test_verify_false_identity_exits_nonzero(capsys, monkeypatch, shape):
    _plant_off_by_one(
        monkeypatch,
        "verify_comparison",
        lambda r: degeneration.ComparisonReport(
            r.status, r.lhs, r.lhs + 1, False, r.terms, r.detail
        ),
    )
    code, out, _ = run(capsys, ["verify", "comparison", *shape])
    assert code == 4
    assert json.loads(out)["equal"] is False


def test_verify_battery_with_false_identity_exits_nonzero(capsys, monkeypatch):
    _plant_off_by_one(monkeypatch, "comparison_rhs", lambda r: (r[0] + 1, r[1]))
    code, out, _ = run(capsys, ["verify", "battery"])
    report = json.loads(out)
    assert code == 4
    assert report["all_ok"] is False
    assert [r["failures"] for r in report["round_trips"]["testbeds"]] == [18, 54]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["comparison", "--testbed", "p1-pt", "--max-degree", "0"], "--max-degree"),
        (["comparison", "--testbed", "p1-pt", "--degree", "5"], "--degree"),
        (["comparison", "--testbed", "p2-line", "--points", "9"], "--points"),
        (["comparison", "--testbed", "p2-line", "--alphas", ""], "--alphas"),
        (["comparison", "--testbed", "p2-line", "--betas", "1", "--points", "3"], "--points"),
        (["battery", "--testbed", "p1-pt"], "--testbed"),
        (["battery", "--verbose"], "--verbose"),
        (["comparison", "--points", "3"], "--testbed"),
    ],
)
def test_verify_refuses_unread_flags(capsys, argv, flag):
    code, out, err = run(capsys, ["verify", *argv])
    assert (code, out) == (1, "")
    assert flag in err


def test_rc_empty_search_range(capsys):
    for max_degree in ("0", "-1"):
        argv = ["rc", "--space", "gr:2:4", "--k", "1", "--max-degree", max_degree]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "max_degree must be at least 1" in err


def test_solve_weight_zero(capsys):
    argv = ["solve", "relative", "--testbed", "p1-pt", "--betas", "1,1", "--degree", "0"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "positive tangency weight required with insertions" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["ring", "--space", "p2"], '{"1": 0, "h": 2, "h^2": 4}\n'),
        (
            ["ring", "--space", "gr:2:4", "--dual"],
            '{"1": "s22", "s1": "s21", "s11": "s11", "s2": "s2", "s21": "s1", "s22": "1"}\n',
        ),
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "1A", "--insertions", "zs:pt,zs:pt"],
            '{"status": "ok", "value": "1"}\n',
        ),
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "1F", "--partition", "(1,pt)"]
            + ["--insertions", "pb:1,zs:1"],
            '{"reason": "fiber-class query outside the single transverse-tangency shape", '
            '"status": "vanishes", "value": "0"}\n',
        ),
        (
            ["rc", "--space", "pt", "--k", "1", "--max-degree", "1"],
            '{"k": 1, "max_degree": 1, "status": "none"}\n',
        ),
        (
            ["verify", "comparison", "--testbed", "p1-pt", "--points", "3", "--verbose"],
            '{"equal": true, "lhs": "1", "rhs": "1", '
            '"terms": [{"delta": 1, "partition": "(1,1)", "value": "1"}]}\n',
        ),
    ],
    ids=["ring-basis", "ring-dual", "rel-section", "rel-pullback", "rc-none", "verify-verbose"],
)
def test_output_shapes_print_fixed_bytes(capsys, argv, expected):
    assert run(capsys, argv)[:2] == (0, expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "1F", "--partition", "(1,pt)"]
            + ["--insertions", "pb:1@tau2,zs:1"],
            "descendents only attach to zero-section insertions",
        ),
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "1F", "--partition", "(1,pt)"]
            + ["--insertions", "xs:1"],
            "relative insertion 'xs:1' needs a zs: or pb: prefix",
        ),
        (
            ["rel", "--bundle", "p1:c1=1", "--class", "1A", "--partition", "(1,pt)"],
            "section classes only support the empty partition",
        ),
    ],
    ids=["pullback-descendent", "no-prefix", "section-partition"],
)
def test_rel_refusals_name_the_form(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert message in err


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
