"""Source checks: no runtime invariant may rest on `assert`, because
`python -O` strips asserts; every function the traced benchmark wraps still
exists; every cache whose hit ratio it reports is still an lru_cache; and the
repo's pytest configuration reports a failing property test and runs on."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwcalc"
SPANS = ROOT / "perfbench" / "spans.py"


def _asserts(path):
    """(enclosing function name, line) of every assert statement in a file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Assert):
                    found.append((func, child.lineno))
                visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_runtime_asserts(path):
    stray = [f"{path.name}:{line} in {func}" for func, line in _asserts(path)]
    assert not stray, "assert statements vanish under python -O: " + ", ".join(stray)


def _spans_constant(name):
    """The value of a module-level constant of perfbench/spans.py, read from
    its source without importing it."""
    for node in ast.parse(SPANS.read_text(), filename=str(SPANS)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {SPANS}")


def test_traced_benchmark_wraps_existing_functions():
    names = _spans_constant("WRAPPED")
    assert names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(
            getattr(importlib.import_module(f"gwcalc.{module}"), function, None)
        )
    ]
    assert not missing, "spans.py wraps names gwcalc lacks: " + ", ".join(missing)


def test_traced_benchmark_cache_ratios_read_lru_caches():
    # The benchmark's child process reports the cache_info() of every
    # lru_cache defined in a module, keyed <module>.<name>; a ratio that
    # reads any other name fails the traced run with a KeyError.
    keys = sorted(set(_spans_constant("CACHE_RATIOS").values()))
    assert keys
    not_cached = []
    for key in keys:
        module, name = key.split(".")
        fn = getattr(importlib.import_module(f"gwcalc.{module}"), name, None)
        if not hasattr(fn, "cache_info") or fn.__module__ != f"gwcalc.{module}":
            not_cached.append(key)
    assert not not_cached, "spans.py reads no lru_cache at: " + ", ".join(not_cached)


PLANTED_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(x):
    raise ValueError("planted failure")


def test_after_the_failure():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # With every warning an error, a warning raised while hypothesis reports
    # a failing @given test would end the session with INTERNALERROR, and
    # the tests after it would never run.
    (tmp_path / "test_planted.py").write_text(PLANTED_TESTS)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            "-p",
            "no:cacheprovider",
            "test_planted.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert proc.returncode == 1, out
