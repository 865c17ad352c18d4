#!/usr/bin/env python3
"""Run the full verification battery and emit one JSON report.

Covers the ramified two-point table, the line degeneration identity, the
comparison round trips on both testbeds, the corollary collapse, the witness
lifts, and the point-certificate searches.  Everything is exact; the report
ends with an overall "all_ok" flag.

Usage: python scripts/run_verifications.py [--max-points 6]
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gwcalc import ring  # noqa: E402
from gwcalc.degeneration import (  # noqa: E402
    AmbientInsertion,
    ShriekInsertion,
    closed_form_oracle,
    comparison_rhs,
    enumerate_terms,
    rc_lift,
    solve_relative,
    table_oracle,
    testbed_cut,
)
from gwcalc.quantum import gw_invariant, rc_certificate  # noqa: E402
from gwcalc.relative import fiber_two_point  # noqa: E402


def two_point_table(limit=6):
    one = ring.unit(ring.point_space())
    rows = {}
    ok = True
    for s in range(1, limit + 1):
        rows[str(s)] = [str(fiber_two_point(s, d, one, one)) for d in range(1, limit + 1)]
        for d in range(1, limit + 1):
            expected = Fraction(1, math.factorial(s)) if d == s else 0
            ok = ok and fiber_two_point(s, d, one, one) == expected
    return {"table": rows, "ok": ok}


def line_identity(max_points=6):
    cut = testbed_cut("p1-pt")
    x, z = cut.divisor.ambient, cut.divisor.divisor
    oracle = closed_form_oracle(cut)
    cases = []
    for m in range(2, max_points + 1):
        insertions = [AmbientInsertion(ring.point_class(x))] * (m - 1)
        insertions.append(ShriekInsertion(ring.unit(z)))
        enum = enumerate_terms(cut, 1, insertions, oracle)
        absolute = gw_invariant(x, 1, [ring.point_class(x)] * m)
        cases.append(
            {
                "points": m,
                "terms": [t.to_json() for t in enum.terms],
                "total": str(enum.total),
                "absolute": str(absolute),
                "ok": enum.total == absolute and len(enum.terms) == 1,
            }
        )
    return {"cases": cases, "ok": all(c["ok"] for c in cases)}


def round_trips():
    results = []
    for name in ("p1-pt", "p2-line"):
        cut = testbed_cut(name)
        z, x = cut.divisor.divisor, cut.divisor.ambient
        pool = [ring.basis_element(z, bc.index) for bc in ring.basis(z)]
        pt_x = ring.point_class(x)
        checked = failures = 0
        for size in range(1, 4):
            for betas in combinations_with_replacement(pool, size):
                for alphas in ((), (pt_x,), (pt_x, pt_x)):
                    for degree in range(size, size + 2):
                        table = solve_relative(
                            cut, degree, alphas, betas, require_hypothesis=False
                        )
                        rhs, _ = comparison_rhs(
                            cut,
                            degree,
                            alphas,
                            betas,
                            table_oracle(table),
                            require_hypothesis=False,
                        )
                        lhs = gw_invariant(
                            x,
                            degree,
                            tuple(alphas)
                            + tuple(
                                ring.shriek_pushforward(cut.divisor, b)
                                for b in betas
                            ),
                        )
                        checked += 1
                        failures += rhs != lhs
        results.append(
            {"testbed": name, "checked": checked, "failures": failures}
        )
    return {"testbeds": results, "ok": all(r["failures"] == 0 for r in results)}


def lifts_and_certificates():
    cut = testbed_cut("p2-line")
    lift_rows = []
    for k in (1, 2):
        result = rc_lift(cut, 1, (), k, ())
        lift_rows.append(
            {"k": k, "stage": result.stage, "value": str(result.value)}
        )
    cert_rows = []
    for descriptor, k in (("pn:1", 2), ("pn:2", 2), ("gr:2:4", 3)):
        witness = rc_certificate(ring.make_space(descriptor), k, 2)
        cert_rows.append(
            {
                "space": descriptor,
                "k": k,
                "degree": witness.query.degree if witness else None,
                "value": str(witness.value) if witness else None,
            }
        )
    ok = all(r["value"] == "1" for r in lift_rows) and all(
        r["value"] is not None for r in cert_rows
    )
    return {"lifts": lift_rows, "certificates": cert_rows, "ok": ok}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-points", type=int, default=6)
    args = parser.parse_args()
    report = {
        "two_point_table": two_point_table(),
        "line_identity": line_identity(args.max_points),
        "round_trips": round_trips(),
        "lifts_and_certificates": lifts_and_certificates(),
    }
    report["all_ok"] = all(section["ok"] for section in report.values())
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["all_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
