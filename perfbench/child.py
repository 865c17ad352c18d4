"""Run one cold batch of benchmark operations in a fresh interpreter.

Usage: ``python3 perfbench/child.py < request.json``, from the root of a
gwcalc checkout.  The request is ``{"ops": [...], "traced": bool}``; the
reply, one JSON object on stdout, carries the moment set-up ended,
per-operation wall and CPU times, canonical outputs,
failures, ``lru_cache`` statistics and, when traced, per-layer statistics.

Every engine cache is a module-level ``lru_cache`` that this process starts
empty, so each batch measures cold-cache work.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gwcalc import cli, degeneration, partitions, quantum, ring  # noqa: E402
from gwcalc.errors import GWError  # noqa: E402

import spans  # noqa: E402

CACHED_MODULES = (ring, quantum, degeneration)


def cache_stats() -> dict[str, list[int]]:
    """``[hits, misses, currsize]`` of every lru_cache in ring, quantum and
    degeneration, keyed ``<module>.<name>``."""
    out = {}
    for mod in CACHED_MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            info = getattr(obj, "cache_info", None)
            if info is not None and getattr(obj, "__module__", None) == mod.__name__:
                i = info()
                out[f"{short}.{name}"] = [i.hits, i.misses, i.currsize]
    return out


# ---------------------------------------------------------------------------
# Building inputs: parse every generated operation into a zero-argument call
# plus a function that turns its result into a canonical string.  Engine
# functions are looked up on their modules at call time, so traced runs go
# through the wrappers.


def _canon_quantum(qc) -> str:
    bas = ring.basis(qc.space)
    terms = sorted(
        (e, bas[i].label, c) for e, elem in qc.terms for i, c in elem.coeffs
    )
    return " + ".join(f"{c}*{label}*q^{e}" for e, label, c in terms) or "0"


def _build_rim(desc, lam, mu):
    space = ring.make_space(desc)
    lam, mu = tuple(lam), tuple(mu)
    return (lambda: quantum.rim_hook_product(lam, mu, space)), _canon_quantum


def _build_dual(desc):
    space = ring.make_space(desc)

    def canon(duals) -> str:
        return ",".join(f"{bc.label}:{duals[bc.index].label}" for bc in ring.basis(space))

    return (lambda: ring.dual_basis(space)), canon


def _build_gw(desc, degree, labels):
    space = ring.make_space(desc)
    insertions = [ring.by_label(space, x) for x in labels]
    return (lambda: quantum.gw_invariant(space, degree, insertions)), str


def _cut_classes(testbed, alphas, betas):
    cut = degeneration.testbed_cut(testbed)
    x, z = cut.divisor.ambient, cut.divisor.divisor
    return (
        cut,
        [ring.by_label(x, a) for a in alphas],
        [ring.by_label(z, b) for b in betas],
    )


def _build_trip(testbed, degree, alphas, betas):
    cut, alphas, betas = _cut_classes(testbed, alphas, betas)

    def call():
        table = degeneration.solve_relative(
            cut, degree, alphas, betas, require_hypothesis=False
        )
        rhs, _ = degeneration.comparison_rhs(
            cut, degree, alphas, betas, degeneration.table_oracle(table),
            require_hypothesis=False,
        )
        shrieks = [ring.shriek_pushforward(cut.divisor, b) for b in betas]
        lhs = quantum.gw_invariant(cut.divisor.ambient, degree, alphas + shrieks)
        return lhs, rhs, table

    def canon(result) -> str:
        lhs, rhs, table = result
        rows = sorted(f"{partitions.partition_to_text(mu)}={v}" for mu, v in table.items())
        return f"lhs={lhs} rhs={rhs} table={';'.join(rows)}"

    return call, canon


def _build_verify(testbed, degree, alphas, betas):
    cut, alphas, betas = _cut_classes(testbed, alphas, betas)

    def canon(report) -> str:
        return f"{report.status} lhs={report.lhs} rhs={report.rhs} equal={report.equal}"

    return (lambda: degeneration.verify_comparison(cut, degree, alphas, betas)), canon


def _build_enum(testbed, n_points, n_shrieks):
    cut = degeneration.testbed_cut(testbed)
    x, z = cut.divisor.ambient, cut.divisor.divisor
    insertions = [degeneration.AmbientInsertion(ring.point_class(x))] * n_points + [
        degeneration.ShriekInsertion(ring.unit(z))
    ] * n_shrieks

    def call():
        oracle = degeneration.closed_form_oracle(cut)
        return degeneration.enumerate_terms(cut, 1, insertions, oracle)

    def canon(enum) -> str:
        return f"total={enum.total} terms={len(enum.terms)} dropped={len(enum.dropped)}"

    return call, canon


def _build_lift(testbed, degree, k):
    cut = degeneration.testbed_cut(testbed)

    def canon(result) -> str:
        ins = ",".join(str(i) for i in result.query.insertions)
        return f"{result.stage} value={result.value} degree={result.query.degree} ins={ins}"

    return (lambda: degeneration.rc_lift(cut, degree, (), k, ())), canon


def _build_cli(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def canon(result) -> str:
        code, stdout = result
        return f"exit={code}\n{stdout}"

    return call, canon


BUILDERS = {
    "rim": _build_rim,
    "dual": _build_dual,
    "gw": _build_gw,
    "trip": _build_trip,
    "verify": _build_verify,
    "enum": _build_enum,
    "lift": _build_lift,
    "cli": _build_cli,
}


def build(ops: list) -> list:
    return [(op[0], *BUILDERS[op[0]](*op[1:])) for op in ops]


# ---------------------------------------------------------------------------
# Running the batch.


def run_batch(ops: list, traced: bool) -> dict:
    """Build the inputs, run them once in order, and report."""
    built = build(ops)
    caches_before = cache_stats()
    recorder = spans.Recorder() if traced else None
    patches = spans.install(recorder) if traced else []
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    results, latencies, cpu_times = [], [], []
    for kind, call, _ in built:
        root = recorder.open(f"bench.{kind}") if recorder else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            results.append((True, call()))
        except GWError as exc:
            results.append((False, f"refused:{type(exc).__name__}"))
        except Exception as exc:  # noqa: BLE001 - a defect is a recorded failure
            results.append((False, f"failed:{type(exc).__name__}"))
        latencies.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        if recorder:
            recorder.close(root)

    spans.uninstall(patches)
    caches_after = cache_stats()
    outputs = [
        canon(value) if ok else value
        for (ok, value), (_, _, canon) in zip(results, built)
    ]
    reply = {
        "ready": ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": latencies,
        "cpu_times": cpu_times,
        "outputs": outputs,
        "caches": caches_after,
    }
    if recorder:
        reply["layers"] = recorder.layer_metrics(caches_before, caches_after)
    return reply


def main() -> int:
    request = json.load(sys.stdin)
    reply = run_batch(request["ops"], request["traced"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
