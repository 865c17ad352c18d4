"""Span recorder for traced benchmark runs.

``install`` replaces a fixed set of gwcalc layer-boundary functions with
wrappers that record a span (name, start, end, parent) per call, plus the
counts behind the per-layer ratios.  A name is patched in every gwcalc module
that holds it (``quantum.lr_expansion`` is the same object as
``ring.lr_expansion``), so no call goes around its wrapper; nothing under
``src/`` changes.  ``uninstall`` puts the originals back.

Spans stay in memory; self time is computed once the batch ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layer-boundary functions the traced run wraps, as (module, function).
# set_partitions is a generator: its wrapper only counts what it yields.
WRAPPED = (
    ("ring", "lr_expansion"),
    ("ring", "cup"),
    ("ring", "dual_basis"),
    ("ring", "shriek_pushforward"),
    ("quantum", "rim_hook_product"),
    ("quantum", "gw_invariant"),
    ("quantum", "wdvv_nd"),
    ("quantum", "rc_certificate"),
    ("relative", "relative_invariant_with_reason"),
    ("relative", "min_normal_chern"),
    ("partitions", "weighted_partition"),
    ("partitions", "key_compare"),
    ("degeneration", "set_partitions"),
    ("degeneration", "solve_relative"),
    ("degeneration", "comparison_rhs"),
    ("degeneration", "enumerate_terms"),
    ("degeneration", "verify_comparison"),
    ("degeneration", "rc_lift"),
    ("cli", "main"),
    ("cli", "build_parser"),
)

# Span of the tracer's own counting after a wrapped call; never reported.
OBSERVE_SPAN = "trace.observe"

# Per-layer metrics reported by a traced run, with their units.  The
# benchmark adds ``trace.overhead_ratio`` from the two kinds of run.
LAYER_METRICS = {
    "ring.lr_expansion.calls": "count",
    "ring.lr_expansion.self_s": "s",
    "ring.lr_expansion.cache_hit_ratio": "ratio",
    "ring.lr_expansion.in_box_ratio": "ratio",
    "ring.cup.calls": "count",
    "ring.cup.self_s": "s",
    "ring.dual_basis.self_s": "s",
    "ring.shriek_pushforward.calls": "count",
    "ring.shriek_pushforward.self_s": "s",
    "quantum.rim_hook_product.calls": "count",
    "quantum.rim_hook_product.self_s": "s",
    "quantum._rim_reduce.cache_hit_ratio": "ratio",
    "quantum.gw_invariant.calls": "count",
    "quantum.gw_invariant.self_s": "s",
    "quantum._gw_basis.cache_hit_ratio": "ratio",
    "quantum.wdvv_nd.self_s": "s",
    "quantum.rc_certificate.calls": "count",
    "quantum.rc_certificate.self_s": "s",
    "quantum.rc_certificate.found_ratio": "ratio",
    "relative.relative_invariant_with_reason.calls": "count",
    "relative.relative_invariant_with_reason.self_s": "s",
    "relative.relative_invariant_with_reason.vanish_ratio": "ratio",
    "relative.min_normal_chern.calls": "count",
    "relative.min_normal_chern.self_s": "s",
    "partitions.weighted_partition.calls": "count",
    "partitions.weighted_partition.self_s": "s",
    "partitions.key_compare.calls": "count",
    "degeneration.set_partitions.yielded": "count",
    "degeneration.solve_relative.calls": "count",
    "degeneration.solve_relative.self_s": "s",
    "degeneration.comparison_rhs.calls": "count",
    "degeneration.comparison_rhs.self_s": "s",
    "degeneration.enumerate_terms.calls": "count",
    "degeneration.enumerate_terms.self_s": "s",
    "degeneration.enumerate_terms.kept_ratio": "ratio",
    "degeneration.verify_comparison.calls": "count",
    "degeneration.verify_comparison.self_s": "s",
    "degeneration.rc_lift.calls": "count",
    "degeneration.rc_lift.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.exit_nonzero_ratio": "ratio",
    "cli.build_parser.self_s": "s",
}

# Cache hit ratios come from lru_cache statistics, keyed as in child.py.
CACHE_RATIOS = {
    "ring.lr_expansion.cache_hit_ratio": "ring.lr_expansion",
    "quantum._rim_reduce.cache_hit_ratio": "quantum._rim_reduce",
    "quantum._gw_basis.cache_hit_ratio": "quantum._gw_basis",
}

# (numerator counter, denominator counter) of the other ratios.
COUNTER_RATIOS = {
    "ring.lr_expansion.in_box_ratio": ("lr.in_box", "lr.returned"),
    "quantum.rc_certificate.found_ratio": ("rc.found", "rc.calls"),
    "relative.relative_invariant_with_reason.vanish_ratio": ("rel.vanish", "rel.calls"),
    "degeneration.enumerate_terms.kept_ratio": ("enum.kept", "enum.considered"),
    "cli.main.exit_nonzero_ratio": ("cli.nonzero", "cli.calls"),
}


class Recorder:
    """Spans as parallel lists, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counters: Counter = Counter()
        self.boxes: list = []
        self.set_partition_depth = 0

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def layer_metrics(self, caches_before: dict, caches_after: dict) -> dict[str, float]:
        totals = self_times(self.names, self.starts, self.ends, self.parents)
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            name, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = totals.get(name, (0, 0.0))[0]
            elif stat == "self_s":
                out[metric] = totals.get(name, (0, 0.0))[1]
            elif stat == "yielded":
                out[metric] = self.counters["set_partitions.yielded"]
            elif metric in CACHE_RATIOS:
                key = CACHE_RATIOS[metric]
                hits = caches_after[key][0] - caches_before[key][0]
                misses = caches_after[key][1] - caches_before[key][1]
                out[metric] = ratio(hits, hits + misses)
            else:
                num, den = COUNTER_RATIOS[metric]
                out[metric] = ratio(self.counters[num], self.counters[den])
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(names, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Calls and total self time per span name.

    A span's self time is its duration minus the time its child spans cover.
    Spans come from one thread and synchronous calls, so children never
    overlap and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        row = out.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += (ends[i] - starts[i]) - covered[i]
    return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


# ---------------------------------------------------------------------------
# Wrappers.


def _wrap(rec: Recorder, name: str, fn, box_of=None, observe=None):
    """Record a span per call.  ``box_of(args)`` gives the shapes the call's
    lr_expansion results are kept in: (rows, cols), cols None for any width.
    ``observe(counters, args, result)`` counts outcomes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if box_of:
            rec.boxes.append(box_of(args))
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
            if box_of:
                rec.boxes.pop()
        if observe:
            # Counting is the tracer's own work: a child span of its own keeps
            # it out of the caller's self time.
            index = rec.open(OBSERVE_SPAN)
            try:
                observe(rec.counters, args, result)
            finally:
                rec.close(index)
        return result

    return wrapper


def _cup_box(args):
    space = args[0].space
    if space.kind != "grassmannian":
        return None
    k, n = space.params
    return (k, n - k)


def _rim_box(args):
    return (args[2].params[0], None)


def _observe_lr(rec: Recorder):
    def observe(counters, args, result):
        box = rec.boxes[-1] if rec.boxes else None
        counters["lr.returned"] += len(result)
        if box is not None:
            rows, cols = box
            counters["lr.in_box"] += sum(
                1
                for nu, _ in result
                if len(nu) <= rows and (cols is None or not nu or nu[0] <= cols)
            )

    return observe


def _observe_rc(counters, args, result):
    counters["rc.calls"] += 1
    counters["rc.found"] += result is not None


def _observe_rel(counters, args, result):
    counters["rel.calls"] += 1
    counters["rel.vanish"] += result[1] is not None


def _observe_enum(counters, args, result):
    counters["enum.kept"] += len(result.terms)
    counters["enum.considered"] += len(result.terms) + len(result.dropped)


def _observe_main(counters, args, result):
    counters["cli.calls"] += 1
    counters["cli.nonzero"] += result != 0


def _counted_set_partitions(rec: Recorder, fn):
    """Count the set partitions handed to callers outside set_partitions.

    set_partitions recurses through its module-level name, so the wrapper
    also sees the inner calls; those run only while an outer wrapper is
    advancing the original generator, and pass straight through.
    """

    @functools.wraps(fn)
    def wrapper(items):
        if rec.set_partition_depth:
            yield from fn(items)
            return
        inner = fn(items)
        while True:
            rec.set_partition_depth += 1
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.set_partition_depth -= 1
            rec.counters["set_partitions.yielded"] += 1
            yield item

    return wrapper


def _make_wrapper(rec: Recorder, name: str, fn):
    if name == "degeneration.set_partitions":
        return _counted_set_partitions(rec, fn)
    boxes = {"ring.cup": _cup_box, "quantum.rim_hook_product": _rim_box}
    observers = {
        "ring.lr_expansion": _observe_lr(rec),
        "quantum.rc_certificate": _observe_rc,
        "relative.relative_invariant_with_reason": _observe_rel,
        "degeneration.enumerate_terms": _observe_enum,
        "cli.main": _observe_main,
    }
    return _wrap(rec, name, fn, boxes.get(name), observers.get(name))


def install(rec: Recorder) -> list:
    """Patch every gwcalc module attribute that is a wrapped function.

    Returns the (module, attribute, original) list that ``uninstall`` needs.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "gwcalc"]
    patches = []
    for module, func in WRAPPED:
        fn = getattr(sys.modules[f"gwcalc.{module}"], func)
        wrapper = _make_wrapper(rec, f"{module}.{func}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, fn))
    return patches


def uninstall(patches: list) -> None:
    for mod, attr, fn in reversed(patches):
        setattr(mod, attr, fn)
