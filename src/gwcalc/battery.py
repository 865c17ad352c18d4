"""The verification battery: the paper's identities on the two testbeds,
checked at exact equality.  Each section returns a JSON-ready dict with an
"ok" flag; ``report`` gathers the four under "all_ok", and ``gw verify
battery`` prints it.  No check here is an assert, so the battery checks the
same under ``python -O``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from . import degeneration, quantum, ring
from .partitions import deg, total_weight
from .relative import fiber_two_point

TABLE_SIZE = 6  # two-point table: s, d = 1..TABLE_SIZE
MAX_POINTS = 6  # line identity: 2..MAX_POINTS points
CERTIFICATES = (("pn:1", 2), ("pn:2", 2), ("gr:2:4", 3))  # (space, k)


def two_point_table() -> dict:
    """The line relative to a point, fully ramified to order s, with one
    insertion carrying d-1 cotangent twists: 1/s! at d = s, else 0."""
    one = ring.unit(ring.point_space())
    degrees = range(1, TABLE_SIZE + 1)
    rows = {}
    ok = True
    for s in degrees:
        values = [fiber_two_point(s, d, one, one) for d in degrees]
        rows[str(s)] = [str(v) for v in values]
        ok = ok and values == [
            Fraction(1, math.factorial(s)) if d == s else 0 for d in degrees
        ]
    return {"table": rows, "ok": ok}


def line_identity() -> dict:
    """m points on the line, one of them transferred to the point divisor:
    the degeneration has the single term (1,1), with delta 1 and value 1,
    and it sums to the absolute invariant 1."""
    cut = degeneration.testbed_cut("p1-pt")
    x, z = cut.divisor.ambient, cut.divisor.divisor
    pt = ring.point_class(x)
    oracle = degeneration.closed_form_oracle(cut)
    cases = []
    for m in range(2, MAX_POINTS + 1):
        insertions = [degeneration.AmbientInsertion(pt)] * (m - 1)
        insertions.append(degeneration.ShriekInsertion(ring.unit(z)))
        enum = degeneration.enumerate_terms(cut, 1, insertions, oracle)
        absolute = quantum.gw_invariant(x, 1, [pt] * m)
        ok = (
            len(enum.terms) == 1
            and enum.terms[0].delta == 1
            and enum.terms[0].value == 1
            and enum.total == absolute == 1
        )
        cases.append(
            {
                "points": m,
                "terms": [t.to_json() for t in enum.terms],
                "total": str(enum.total),
                "absolute": str(absolute),
                "ok": ok,
            }
        )
    return {"cases": cases, "ok": all(c["ok"] for c in cases)}


def _round_trip_holds(cut, degree, alphas, betas) -> bool:
    """Solve for the relative invariants, then recombine them: the right side
    must give back the absolute invariant.  Where the transferred classes
    multiply to zero pairwise, it must also collapse to one term, a
    partition of `degree` parts carrying the transferred classes' degrees."""
    table = degeneration.solve_relative(
        cut, degree, alphas, betas, require_hypothesis=False
    )
    rhs, terms = degeneration.comparison_rhs(
        cut,
        degree,
        alphas,
        betas,
        degeneration.table_oracle(table),
        require_hypothesis=False,
    )
    transferred = tuple(ring.shriek_pushforward(cut.divisor, b) for b in betas)
    if rhs != quantum.gw_invariant(cut.divisor.ambient, degree, alphas + transferred):
        return False
    pairwise_zero = len(betas) >= 2 and all(
        ring.cup(a, b).is_zero() for a, b in combinations(betas, 2)
    )
    if not pairwise_zero:
        return True
    if len(terms) != 1:
        return False
    mu = terms[0][0]
    return (
        total_weight(mu) == degree
        and deg(mu) == sum(b.homogeneous_degree() for b in betas)
        and len(mu.pairs) == degree
    )


def round_trips() -> dict:
    """Every family of 1..3 divisor classes, with 0..2 ambient points, at the
    degrees l and l+1 for l transferred classes."""
    results = []
    for name in ("p1-pt", "p2-line"):
        cut = degeneration.testbed_cut(name)
        z = cut.divisor.divisor
        pool = [ring.basis_element(z, bc.index) for bc in ring.basis(z)]
        pt_x = ring.point_class(cut.divisor.ambient)
        checked = failures = 0
        for size in range(1, 4):
            for betas in combinations_with_replacement(pool, size):
                for alphas in ((), (pt_x,), (pt_x, pt_x)):
                    for degree in range(size, size + 2):
                        checked += 1
                        failures += not _round_trip_holds(cut, degree, alphas, betas)
        results.append({"testbed": name, "checked": checked, "failures": failures})
    return {"testbeds": results, "ok": all(r["failures"] == 0 for r in results)}


def lifts_and_certificates() -> dict:
    """The point-pair witness on the line lifts to the plane with the value
    of the plane's own two-point line count, 1; each certificate search
    finds a nonzero invariant."""
    cut = degeneration.testbed_cut("p2-line")
    plane = cut.divisor.ambient
    direct = quantum.gw_invariant(plane, 1, [ring.point_class(plane)] * 2)
    lifts = [(k, degeneration.rc_lift(cut, 1, (), k, ())) for k in (1, 2)]
    certificates = [
        (descriptor, k, quantum.rc_certificate(ring.make_space(descriptor), k, 2))
        for descriptor, k in CERTIFICATES
    ]
    ok = (
        direct == 1
        and all(lift.value == direct for _, lift in lifts)
        and all(w is not None and w.value != 0 for _, _, w in certificates)
    )
    return {
        "lifts": [
            {"k": k, "stage": lift.stage, "value": str(lift.value)} for k, lift in lifts
        ],
        "certificates": [
            {
                "space": descriptor,
                "k": k,
                "degree": w.query.degree if w else None,
                "value": str(w.value) if w else None,
            }
            for descriptor, k, w in certificates
        ],
        "ok": ok,
    }


def report() -> dict:
    """All four sections and "all_ok", true when every section is ok."""
    sections = {
        "two_point_table": two_point_table(),
        "line_identity": line_identity(),
        "round_trips": round_trips(),
        "lifts_and_certificates": lifts_and_certificates(),
    }
    sections["all_ok"] = all(s["ok"] for s in sections.values())
    return sections


def comparison_cases(cut, max_degree: int) -> list:
    """The (degree, alphas, betas) cases of ``gw verify comparison`` on the
    plane/line testbed: two degree-1 cases, then 3d - 1 points and the
    transferred unit in each degree d = 2..max_degree."""
    z = cut.divisor.divisor
    pt_x = ring.point_class(cut.divisor.ambient)
    cases = [(1, (pt_x, pt_x), (ring.unit(z),)), (1, (pt_x,), (ring.point_class(z),))]
    for degree in range(2, max_degree + 1):
        cases.append((degree, (pt_x,) * (3 * degree - 1), (ring.unit(z),)))
    return cases
