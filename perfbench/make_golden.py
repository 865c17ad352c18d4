"""Write golden.json: each workload's output digest for seeds 0 to SEEDS - 1.

Usage, from the root of a gwcalc checkout:

    python3 perfbench/make_golden.py

The benchmark marks a run incorrect when its digest differs from the stored
one for its seed, so rerun this only for a change that is meant to alter
outputs, and say so in that change.  Outputs do not depend on cache state,
so every batch runs in this one process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        golden[workload] = {}
        for seed in range(workloads.SEEDS):
            ops = workloads.generate(workload, seed)
            outputs = child.run_batch(ops, traced=False)["outputs"]
            problems = checks.problems(workload, ops, outputs)
            if problems:
                raise SystemExit(f"{workload} seed {seed}: {problems}")
            golden[workload][str(seed)] = checks.digest(outputs)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
