"""Reachability: every function under src/gwcalc/ is reached by the
verification battery plus one real invocation of each `gw` subcommand, or is
named in a short allowlist with its reason.  A helper that only the tests
call fails here by name.

The commands run in a fresh interpreter, so no memo warmed by an earlier
test can hide a function, under ``sys.setprofile``, which sees every Python
call; the profile is installed before gwcalc is imported, so module and
class set-up count as reached too.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gwcalc"

ORDER = "the paper's order on invariant keys; perfbench/spans.py wraps key_compare"

# Functions no command reaches, each with its reason.
ALLOWLIST = {
    "partitions._compare": ORDER,
    "partitions._size": ORDER,
    "partitions.size_compare": ORDER,
    "partitions.lex_compare": ORDER,
    "partitions.order_key": ORDER,
    "partitions.key_compare": ORDER,
    "ring.restrict": "only rc_lift with ambient alphas reaches it, and only tests pass those",
    "ring.RingElement.__sub__": "arithmetic the tests use",
    "ring.RingElement.__neg__": "arithmetic the tests use",
    "value.Value.__repr__": "protocol method",
    "value.Value.__setattr__": "protocol method",
    "value.Value.__delattr__": "protocol method",
    "value.Value.__reduce__": "protocol method",
}

REL_P1 = ["rel", "--bundle", "p1:c1=1"]

# (argv, expected exit code): one real run of every subcommand and mode.
INVOCATIONS = [
    (["verify", "battery"], 0),
    (["verify", "comparison", "--testbed", "p1-pt", "--points", "3"], 0),
    (["verify", "comparison", "--testbed", "p2-line", "--max-degree", "1", "--verbose"], 0),
    (
        ["verify", "comparison", "--testbed", "p2-line", "--degree", "1",
         "--alphas", "pt,pt", "--betas", "1"],
        0,
    ),
    (["abs", "--space", "gr:2:4", "--degree", "1", "--insertions", "s21,s21,s2"], 0),
    (["nd", "--max", "3"], 0),
    (["ring", "--space", "pn:2"], 0),
    (["ring", "--space", "gr:2:4", "--cup", "s1,s1"], 0),
    (["ring", "--space", "gr:2:4", "--dual"], 0),
    (["ring", "--space", "gr:2:4", "--quantum"], 0),
    (REL_P1 + ["--class", "2F", "--partition", "(2,pt)", "--insertions", "zs:1@tau2"], 0),
    (REL_P1 + ["--class", "1A", "--insertions", "zs:pt,zs:pt"], 0),
    (REL_P1 + ["--class", "1F", "--partition", "(1,pt)", "--insertions", "zs:1,pb:h"], 0),
    (["solve", "relative", "--testbed", "p1-pt", "--degree", "2", "--betas", "1,1"], 0),
    (["lift", "--testbed", "p2-line", "--k", "1"], 0),
    (["rc", "--space", "gr:2:4", "--k", "1"], 0),
    (["nd"], 1),
]

CHILD = """
import contextlib, io, json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


sys.setprofile(profile)
from gwcalc import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "reached": sorted({(c.co_filename, c.co_firstlineno) for c in reached}),
}))
"""


def _functions():
    """{(file name, first line): dotted name} of every function under
    src/gwcalc/; a decorated function starts at its first decorator, as its
    code object does."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "")
    return found


def test_every_function_is_reached_or_allowlisted():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([argv for argv, _ in INVOCATIONS])],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in INVOCATIONS]
    reached = set()
    for filename, line in result["reached"]:
        path = Path(filename).resolve()
        if path.parent == PACKAGE:
            reached.add((path.stem, line))
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in reached}
    missing = sorted(unreached - ALLOWLIST.keys())
    assert not missing, "functions no command reaches: " + ", ".join(missing)
    stale = sorted(ALLOWLIST.keys() - unreached)
    assert not stale, "allowlisted but reached or gone: " + ", ".join(stale)
    assert elapsed < 2.0
