"""Source checks: no runtime invariant may rest on `assert`, because
`python -O` strips asserts."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gwcalc"

# solve_relative keeps its assert: perfbench/golden.json stores that failure
# as "failed:AssertionError" for the lattice_inversion workload.
ALLOWED = {("degeneration.py", "solve_relative")}


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
    stray = [
        f"{path.name}:{line} in {func}"
        for func, line in _asserts(path)
        if (path.name, func) not in ALLOWED
    ]
    assert not stray, "assert statements vanish under python -O: " + ", ".join(stray)
