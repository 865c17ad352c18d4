"""Tests for the benchmark itself: seeded inputs, digests, span arithmetic,
and that the span wrappers see every call cProfile sees.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_covers_every_input_set(workload):
    assert sorted(GOLDEN[workload], key=int) == [str(s) for s in range(workloads.SEEDS)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    ops = workloads.generate(workload, 1)
    fresh = run.run_child(ops, traced=False)["outputs"]
    assert checks.problems(workload, ops, fresh) == []
    assert checks.digest(fresh) == GOLDEN[workload]["1"]
    in_process = child.run_batch(ops, traced=True)["outputs"]
    assert checks.digest(in_process) == GOLDEN[workload]["1"]


def test_verify_that_raised_is_not_also_a_check_problem():
    op = ["verify", "p1-pt", 1, [], ["1"]]

    def unequal(out):
        return [p for p in checks.problems("lattice_inversion", [op], [out]) if "not equal" in p]

    assert unequal("failed:AssertionError") == []
    assert len(unequal("ok lhs=1 rhs=0 equal=False")) == 1


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a1 [2, 3];
    # b has two "x" spans [6, 7] and [7, 8.5].
    names = ["root", "a", "a1", "b", "x", "x"]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    got = spans.self_times(names, starts, ends, parents)
    assert got == {
        "root": (1, 3.0),
        "a": (1, 2.0),
        "a1": (1, 1.0),
        "b": (1, 1.5),
        "x": (2, 2.5),
    }


def test_observer_time_stays_out_of_caller_self_time():
    rec = spans.Recorder()

    def slow_observe(counters, args, result):
        time.sleep(0.1)

    inner = spans._wrap(rec, "inner", lambda: None, observe=slow_observe)
    outer = spans._wrap(rec, "outer", inner)
    outer()
    got = spans.self_times(rec.names, rec.starts, rec.ends, rec.parents)
    assert got["outer"][1] < 0.05
    assert got[spans.OBSERVE_SPAN][1] >= 0.1


def test_percentiles():
    assert run.tail_percentile(1638) == 990
    assert run.tail_percentile(583) == 980
    assert run.tail_percentile(20) == 500
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 500) == 50.0
    assert run.percentile(values, 990) == 99.0
    assert run.percentile(values, 999) == 100.0


def _mixed_batch() -> list:
    """The first operation of every kind and CLI subcommand, plus the round
    trips among the first 40 operations, some of which fail in the solver."""
    ops, seen = [], set()
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, 3):
            kind = op[1][0] if op[0] == "cli" else op[0]
            if kind not in seen or (kind == "trip" and len(ops) < 40):
                seen.add(kind)
                ops.append(op)
    return ops


def test_wrappers_see_every_call():
    built = child.build(_mixed_batch())
    originals = {
        f"{module}.{func}": getattr(sys.modules[f"gwcalc.{module}"], func)
        for module, func in spans.WRAPPED
        if func != "set_partitions"
    }
    before = child.cache_stats()
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    profile = cProfile.Profile()
    profile.enable()
    try:
        for _, call, _ in built:
            try:
                call()
            except Exception:  # noqa: BLE001 - failures are fine here
                pass
    finally:
        profile.disable()
        spans.uninstall(patches)
    after = child.cache_stats()

    profiled = {
        (file, line, func): row[1] for (file, line, func), row in pstats.Stats(profile).stats.items()
    }
    wrapped_calls = {name: calls for name, (calls, _) in
                     spans.self_times(recorder.names, recorder.starts, recorder.ends,
                                      recorder.parents).items()}
    for name, fn in originals.items():
        cached = hasattr(fn, "cache_info")
        code = (fn.__wrapped__ if cached else fn).__code__
        seen = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        calls = wrapped_calls.get(name, 0)
        if cached:
            hits = after[name][0] - before[name][0]
            misses = after[name][1] - before[name][1]
            assert (calls, seen) == (hits + misses, misses), name
        else:
            assert calls == seen, name
        if name != "partitions.key_compare":  # no workload input reaches it
            assert calls > 0, name
    assert recorder.counters["set_partitions.yielded"] > 0
    for mod, attr, fn in patches:
        assert getattr(mod, attr) is fn
