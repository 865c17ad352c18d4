"""Output checks that do not trust the engine, and the output digest.

Canonical outputs are the strings ``child.py`` builds: ``Fraction`` strings,
captured CLI stdout, ``refused:<GWError subclass>`` for typed refusals and
``failed:<exception>`` for anything else.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import CLI_ANCHORS, MIN_NORMAL_CHERN

# Rational plane curves through 3d - 1 points.
PLANE_COUNTS = {1: "1", 2: "1", 3: "12", 4: "620", 5: "87304"}

# Quantum products on Gr(2,4): s1*s1 = s2 + s11, s1*s21 = s22 + q, s2*s11 = q.
GR24_PRODUCTS = {
    ((1,), (1,)): "1*s11*q^0 + 1*s2*q^0",
    ((1,), (2, 1)): "1*s22*q^0 + 1*1*q^1",
    ((2,), (1, 1)): "1*1*q^1",
}

# Expected stdout of each of workloads.CLI_ANCHORS, as parsed JSON.
ANCHOR_OUTPUTS = (
    {str(d): n for d, n in PLANE_COUNTS.items()},
    {"status": "ok", "value": PLANE_COUNTS[4]},
    {"status": "ok", "value": {"s11": "1", "s2": "1"}},
)

_TRIP = re.compile(r"lhs=(\S+) rhs=(\S+) table=")


def digest(outputs: list[str]) -> str:
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


def problems(workload: str, ops: list, outputs: list[str]) -> list[str]:
    """Every check that fails on this batch's outputs, one line each."""
    found: list[str] = []
    seen: set = set()
    for op, out in zip(ops, outputs):
        kind = op[0]
        if kind == "rim" and op[1] == "gr:2:4":
            _check_gr24(op, out, found, seen)
        elif kind == "trip":
            _check_trip(op, out, found, seen)
        elif kind == "verify" and not out.endswith("equal=True"):
            # A verify that raised is counted once, as failed, not here too.
            if not out.startswith("failed:"):
                found.append(f"in-hypothesis comparison not equal: {op} -> {out}")
        elif kind == "cli":
            _check_cli(op[1], out, found, seen)
    expected = {
        "schubert_tables": {("gr24", key) for key in GR24_PRODUCTS},
        "lattice_inversion": {("plane", d) for d in (1, 2, 3)},
        "cli_session": {("anchor", i) for i in range(len(CLI_ANCHORS))},
    }[workload]
    found.extend(f"check never ran: {item}" for item in sorted(expected - seen))
    return found


def _check_gr24(op, out, found, seen) -> None:
    lam, mu = tuple(op[2]), tuple(op[3])
    for key in ((lam, mu), (mu, lam)):
        if key in GR24_PRODUCTS:
            seen.add(("gr24", key))
            if out != GR24_PRODUCTS[key]:
                found.append(f"Gr(2,4) product {key}: {out} != {GR24_PRODUCTS[key]}")


def _check_trip(op, out, found, seen) -> None:
    _, testbed, degree, alphas, betas = op
    match = _TRIP.match(out)
    if match is None:
        return
    lhs, rhs = match.groups()
    if len(betas) <= MIN_NORMAL_CHERN[testbed] and lhs != rhs:
        found.append(f"comparison identity fails inside the hypothesis: {op} -> {out}")
    if testbed == "p2-line" and not betas:
        seen.add(("plane", degree))
        if lhs != PLANE_COUNTS[degree]:
            found.append(f"N_{degree} = {lhs}, expected {PLANE_COUNTS[degree]}")


def _check_cli(argv, out, found, seen) -> None:
    for i, (anchor, expected) in enumerate(zip(CLI_ANCHORS, ANCHOR_OUTPUTS)):
        if argv == list(anchor):
            seen.add(("anchor", i))
            code, _, stdout = out.partition("\n")
            if code != "exit=0" or json.loads(stdout) != expected:
                found.append(f"gw {' '.join(argv)} -> {out!r}")
