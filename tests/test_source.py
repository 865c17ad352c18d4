"""Source checks: no runtime invariant may rest on `assert`, because
`python -O` strips asserts; every function the traced benchmark wraps still
exists; and every cache whose hit ratio it reports is still an lru_cache."""

import ast
import importlib
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
