"""gwcalc benchmark: cold-cache batches in fresh interpreters, checked outputs.

Usage, from the root of a gwcalc checkout:

    python3 perfbench/run.py --workload schubert_tables --seed 1 --seconds 35 --trace 0

The inputs are generated from the seed modulo ``workloads.SEEDS``
(``workloads.py``), so every run has a stored digest.  Each engine
cache is a module-level ``lru_cache``, so a second pass in one process would
only time dictionary hits: instead the run starts fresh interpreters one
after another (``child.py``), each running the whole batch once, closed loop
on one thread, until ``--seconds`` have passed.  Each operation's time is
its best over those batches; ``wall_s``, ``cpu_s`` and the latencies come
from these best times, ``setup_s`` is the batches' best set-up time and
``peak_rss_mb`` their median.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced batches alternate, and it reports the
per-layer metrics from the traced ones (``spans.py``) plus
``trace.overhead_ratio``.  The line before it holds notes: digest, tail
percentile and sample count, failures and ``lru_cache`` statistics.

Every batch's outputs must match the other batches of the run, pass the
checks in ``checks.py`` and match the digest stored in ``golden.json``; a
seed without one is not correct.  Exits 2 without a result when the
checkout has no gwcalc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
MIN_BATCHES = 5
MIN_TRACED_PAIRS = 3
CHILD_TIMEOUT_S = 120

# Tail percentiles in tenths of a percent; the reported one is the highest
# with at least ten of a batch's operations beyond it.
TAIL_LADDER = (500, 900, 950, 980, 990, 995, 999)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def tail_percentile(n: int) -> int:
    return max(p for p in TAIL_LADDER if n * (1000 - p) >= 10 * 1000)


def percentile(values: list[float], tenths: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-len(ordered) * tenths // 1000)
    return ordered[max(rank, 1) - 1]


def run_child(ops: list, traced: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    request = json.dumps({"ops": ops, "traced": traced})
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    # -S: gwcalc needs only the standard library, and the .pth hooks of the
    # machine's site-packages are no part of its set-up time.
    proc = subprocess.run(
        [sys.executable, "-S", str(CHILD)],
        input=request,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"batch process failed:\n{proc.stderr}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply["ready"] - spawned
    return reply


def run_batches(ops: list, seconds: float, traced: bool) -> tuple[list, list]:
    """Untraced batches, and traced ones alternating with them when traced."""
    run_child([], False)  # compile bytecode and warm the file cache, untimed
    plain, traced_replies = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(run_child(ops, False))
        if traced:
            traced_replies.append(run_child(ops, True))
        now = time.monotonic()
        enough = len(plain) >= (MIN_TRACED_PAIRS if traced else MIN_BATCHES)
        if enough and now - start + (now - began) > seconds:
            return plain, traced_replies


def best_per_op(replies: list, key: str) -> list[float]:
    """Each operation's best time over the batches.  Every batch runs the
    same operations cold, so the best is the time least disturbed by
    whatever else the machine is running."""
    return [min(times) for times in zip(*(r[key] for r in replies))]


def end_to_end(ops: list, replies: list, failed: int, attempted: int) -> dict:
    latencies = best_per_op(replies, "latencies")
    wall = sum(latencies)
    return {
        "setup_s": min(r["setup_s"] for r in replies),
        "wall_s": wall,
        "cpu_s": sum(best_per_op(replies, "cpu_times")),
        "queries_per_s": len(ops) / wall,
        "latency_p50_ms": 1000 * percentile(latencies, 500),
        "latency_tail_ms": 1000 * percentile(latencies, tail_percentile(len(ops))),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in replies),
        "ok_ratio": 1 - failed / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in spans.LAYER_METRICS
    }
    out["trace.overhead_ratio"] = sum(best_per_op(traced, "latencies")) / sum(
        best_per_op(plain, "latencies")
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gwcalc" / "__init__.py").is_file():
        print(f"no gwcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    input_set = args.seed % workloads.SEEDS
    ops = workloads.generate(args.workload, input_set)
    plain, traced = run_batches(ops, args.seconds, bool(args.trace))
    replies = plain + traced

    digests = {checks.digest(r["outputs"]) for r in replies}
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {}).get(str(input_set))
    problems = [checks.problems(args.workload, ops, r["outputs"]) for r in replies]
    correct = len(digests) == 1 and not any(problems) and golden in digests
    attempted = len(ops) * len(replies)
    failed = sum(
        sum(o.startswith("failed:") for o in r["outputs"]) + len(p)
        for r, p in zip(replies, problems)
    )

    if args.trace:
        values, units = per_layer(plain, traced), dict(spans.LAYER_METRICS)
        units["trace.overhead_ratio"] = "ratio"
    else:
        values = end_to_end(ops, plain, failed, attempted)
        units = END_TO_END_UNITS
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": input_set,
        "batches": len(plain),
        "traced_batches": len(traced),
        "ops_per_batch": len(ops),
        "latency_tail_percentile": tail_percentile(len(ops)) / 10,
        "latency_samples_per_batch": len(ops),
        "digest": sorted(digests),
        "golden_digest": golden,
        "failed_ratio": failed / attempted,
        "failures": sorted({o for o in replies[0]["outputs"] if o.startswith("failed:")}),
        "problems": sorted({line for p in problems for line in p}),
        "caches": replies[0]["caches"],
    }
    print(json.dumps(notes, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
