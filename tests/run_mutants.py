"""Plant each defect listed in ``mutants.py`` and check that tier-1 kills it.

Usage, from the root of a gwcalc checkout:

    python tests/run_mutants.py

Each entry gets its own temporary copy of the checkout (without ``.git``)
with its anchor replaced, and tier-1 runs there with ``-x`` under the
derandomised ``ci`` hypothesis profile, less the one test that checks each
anchor occurs once (in a planted copy it fails whatever the engine does).  An unplanted copy runs first and
must pass, or no verdict would mean anything.  Prints one JSON line per
entry, {"name", "verdict": "killed" or "survived", "by", "seconds"}, then a
summary line, and exits 1 when an entry not marked equivalent survives or
one marked equivalent is killed (its reason no longer holds), 2 when the
unplanted copy fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402

# The anchor check reads the planted copy, where the anchor is gone by
# design: it checks the list against the unplanted source, not the engine.
ANCHOR_CHECK = "tests/test_source.py::test_every_mutant_anchor_occurs_once"
PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-profile=ci", "--deselect", ANCHOR_CHECK)
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build"
)
# A mutant that hangs tier-1 counts as killed once this runs out.
TIMEOUT_S = 600
# Two tier-1 runs at a time: each is one single-threaded process.
WORKERS = 2


def run_tier1(mutant=None) -> dict:
    """Tier-1 on a fresh copy of the checkout, with the mutant planted."""
    with tempfile.TemporaryDirectory(prefix="gwcalc-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            path = copy / mutant.file
            text = path.read_text()
            if text.count(mutant.anchor) != 1:
                raise SystemExit(f"{mutant.name}: anchor is not once in {mutant.file}")
            path.write_text(text.replace(mutant.anchor, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failed, by = True, f"timeout after {TIMEOUT_S} s"
        else:
            failed = proc.returncode != 0
            lines = proc.stdout.splitlines()
            firsts = [x for x in lines if x.startswith(("FAILED", "ERROR"))]
            by = (firsts or lines[-1:] or [""])[0] if failed else None
        return {
            "name": mutant.name if mutant else "unplanted",
            "verdict": "killed" if failed else "survived",
            "by": by,
            "seconds": round(time.perf_counter() - start, 1),
        }


def main() -> int:
    baseline = run_tier1()
    if baseline["verdict"] != "survived":
        print(json.dumps(baseline))
        print("tier-1 fails on the unplanted copy", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run_tier1, MUTANTS))
    wrong = []
    for mutant, result in zip(MUTANTS, results):
        result["equivalent"] = mutant.equivalent is not None
        print(json.dumps(result), flush=True)
        if (result["verdict"] == "survived") != result["equivalent"]:
            wrong.append(mutant.name)
    killed = sum(r["verdict"] == "killed" for r in results)
    print(json.dumps({"mutants": len(results), "killed": killed, "wrong": wrong}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
