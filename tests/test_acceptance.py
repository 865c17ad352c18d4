"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single "criterion N ...: PASS" line on success (run with
``pytest -s tests/test_acceptance.py`` to see them); any failure raises with
the offending case attached.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from gwcalc import battery, ring
from gwcalc.degeneration import comparison_rhs, testbed_cut as named_testbed
from gwcalc.errors import HypothesisViolated
from gwcalc.partitions import (
    InvariantKey,
    Ordering,
    WeightedPair,
    key_compare,
    weighted_partition,
)
from gwcalc.quantum import (
    gw_invariant,
    rim_hook_product,
    wdvv_nd,
)
from gwcalc.relative import (
    BundleSpec,
    Pullback,
    ZeroSection,
    _vanishing_reason,
    empty_partition_divisor,
    fiber_one_relative,
    fiber_two_point,
    make_fiber_query,
    min_normal_chern,
    relative_invariant_with_reason,
)

from helpers import quantum_lift, star

PT = ring.point_space()
P1 = ring.projective_space(1)
P2 = ring.projective_space(2)
G24 = ring.grassmannian(2, 4)
G13 = ring.grassmannian(1, 3)
ROOT = Path(__file__).resolve().parents[1]


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({description}): {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def _section(number: int, description: str, section: dict) -> None:
    """A battery section passes as one criterion; on failure the whole
    section is shown."""
    _report(number, description, [] if section["ok"] else [section])


def test_criterion_1_two_point_table():
    _section(1, "ramified two-point table on the line", battery.two_point_table())


def test_criterion_2_line_degeneration_identity():
    _section(2, "line degeneration identity, 2..6 points", battery.line_identity())


def _partitions_of_weight(space, s):
    pool = [ring.basis_element(space, bc.index) for bc in ring.basis(space)]
    out = set()

    def grow(acc, remaining, cap):
        if remaining == 0:
            out.add(weighted_partition(space, [WeightedPair(m, w) for m, w in acc]))
            return
        for m in range(1, min(remaining, cap) + 1):
            for w in pool:
                grow(acc + [(m, w)], remaining - m, m)

    grow([], s, s)
    return sorted(out, key=lambda mu: str([(p.multiplicity, str(p.weight)) for p in mu.pairs]))


def test_criterion_3_vanishing_consistency():
    failures = []
    for base, c1 in ((PT, 0), (P1, 1), (P2, 1)):
        bundle = BundleSpec(base, c1)
        elements = [ring.basis_element(base, bc.index) for bc in ring.basis(base)]
        for s in range(1, 4):
            for mu in _partitions_of_weight(base, s):
                for n_zs in range(0, 3):
                    for zs in product(elements, repeat=n_zs):
                        for n_pb in range(0, 2):
                            for pb in product(elements, repeat=n_pb):
                                ins = [ZeroSection(b) for b in zs] + [
                                    Pullback(a) for a in pb
                                ]
                                query = make_fiber_query(bundle, s, ins, mu)
                                vanishes = _vanishing_reason(query) is not None
                                value, _ = relative_invariant_with_reason(query)
                                if vanishes:
                                    if value != 0:
                                        failures.append((base, s, "nonzero"))
                                    # Closed forms on the same data must also
                                    # return zero where their shapes apply.
                                    if (
                                        len(mu.pairs) == 1
                                        and n_zs == 1
                                        and n_pb == 0
                                        and fiber_two_point(
                                            s, 1, zs[0], mu.pairs[0].weight
                                        )
                                        != 0
                                    ):
                                        failures.append((base, s, "two-point"))
                                else:
                                    expected = fiber_one_relative(
                                        list(zs), mu.pairs[0].weight
                                    )
                                    if not (
                                        s == 1
                                        and len(mu.pairs) == 1
                                        and n_pb == 0
                                        and value == expected
                                    ):
                                        failures.append((base, s, "exception"))
    _report(3, "vanishing versus closed forms, exhaustive", failures)


def test_criterion_4_empty_partition_divisor():
    bundle = BundleSpec(P1, 1)
    pt = ring.point_class(P1)
    value = empty_partition_divisor(bundle, 1, [], [pt, pt])
    base_value = gw_invariant(P1, 1, [pt, pt])
    failures = [] if value == base_value == 1 else [(value, base_value)]
    _report(4, "tangency-free divisor reduction on the line", failures)


def test_criterion_5_quantum_oracle():
    failures = []
    # Independently re-derived plane-curve counts (Pascal binomials).
    rows = [[1]]
    for n in range(1, 18):
        prev = rows[-1]
        rows.append([1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1])

    def choose(n, k):
        return rows[n][k] if 0 <= k <= n else 0

    counts = {1: 1}
    for d in range(2, 4):
        counts[d] = sum(
            counts[a]
            * counts[d - a]
            * a
            * a
            * (d - a)
            * (
                (d - a) * choose(3 * d - 4, 3 * a - 2)
                - a * choose(3 * d - 4, 3 * a - 1)
            )
            for a in range(1, d)
        )
    if not (counts[1] == 1 and counts[2] == 1 and counts[3] == 12):
        failures.append(("oracle", counts))
    for d in (1, 2, 3):
        if wdvv_nd(d) != counts[d]:
            failures.append(("nd", d))
    lifts = [quantum_lift(ring.basis_element(G24, b.index)) for b in ring.basis(G24)]
    for a, b, c in product(lifts, repeat=3):
        if star(star(a, b), c) != star(a, star(b, c)):
            failures.append(("associativity", a, b, c))
            break
    if rim_hook_product((2, 2), (2, 2), G24).terms != ((2, ring.unit(G24)),):
        failures.append("rho^2 in Gr(2,4)")
    if rim_hook_product((2,), (2,), G13).terms != ((1, ring.by_label(G13, "s1")),):
        failures.append("rho^2 in Gr(1,3)")
    pt = ring.point_class(G24)
    if gw_invariant(G24, 2, [pt, pt, pt]) != 1:
        failures.append("three points in Gr(2,4)")
    _report(5, "quantum oracle values and associativity", failures)


def test_criterion_6_partial_order_axioms():
    failures = []
    pool = []
    for w in range(0, 4):
        pool.extend(_partitions_of_weight(P1, w))
    pt = ring.point_class(P1)
    keys = [
        InvariantKey(d, (pt,) * c, mu)
        for d in (0, 1, 2)
        for c in (0, 1, 2)
        for mu in pool
    ]
    less = set()
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            cmp = key_compare(a, b)
            if i == j and cmp is not Ordering.EQUAL:
                failures.append(("irreflexivity", i))
            if cmp is Ordering.LESS:
                less.add((i, j))
                if key_compare(b, a) is not Ordering.GREATER:
                    failures.append(("asymmetry", i, j))
            if cmp not in (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER):
                failures.append(("comparability", i, j))
    successors: dict[int, list[int]] = {}
    for i, j in less:
        successors.setdefault(j, []).append(i)
    for b, c in less:
        for a in successors.get(b, ()):
            if (a, c) not in less:
                failures.append(("transitivity", a, b, c))
    _report(6, "partial order axioms by brute enumeration", failures)


def test_criterion_7_comparison_round_trip():
    _section(7, "lattice round trip and single-term collapse", battery.round_trips())


def test_criterion_8_rational_connectedness():
    _section(
        8, "witness lift and point-certificate search", battery.lifts_and_certificates()
    )


def test_criterion_9_hypothesis_enforcement():
    failures = []
    cut = named_testbed("p2-line")
    z = cut.divisor.divisor
    if min_normal_chern(cut.divisor) != 1:
        failures.append("V should be 1")
    try:
        comparison_rhs(
            cut, 1, (), (ring.unit(z), ring.unit(z)), lambda *a: Fraction(0)
        )
        failures.append("no error raised")
    except HypothesisViolated:
        pass
    except Exception as exc:  # noqa: BLE001
        failures.append(f"wrong error type {type(exc).__name__}")
    _report(9, "refusal when transfers exceed the positivity bound", failures)


def test_verification_battery_all_ok():
    # `gw verify battery` in a fresh process prints exactly the stored
    # report and exits 0; tests/data/battery_report.json keeps the battery
    # from quietly shrinking.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gwcalc.cli", "verify", "battery"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["all_ok"] is True
    stored = ROOT / "tests" / "data" / "battery_report.json"
    assert report == json.loads(stored.read_text())
