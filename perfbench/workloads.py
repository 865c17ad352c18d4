"""Seeded input generation for the three benchmark workloads.

Every generator is a pure function of the seed and returns a list of
JSON-serialisable operations.  Nothing here imports gwcalc: the engine only
ever sees the generated inputs, in a fresh interpreter (see ``child.py``).

Operation shapes:

- ``["rim", space, lam, mu]``: ``quantum.rim_hook_product(lam, mu, space)``
- ``["dual", space]``: ``ring.dual_basis(space)``
- ``["gw", space, degree, [label, ...]]``: ``quantum.gw_invariant``
- ``["trip", testbed, degree, alphas, betas]``: a formal-mode comparison round
  trip (``solve_relative``, ``comparison_rhs`` with ``table_oracle``, lhs
  from ``gw_invariant``)
- ``["verify", testbed, degree, alphas, betas]``: ``verify_comparison``
  inside the hypothesis
- ``["enum", testbed, n_ambient_points, n_shrieks]``: ``enumerate_terms``
  with the closed-form oracle
- ``["lift", testbed, degree, k]``: ``rc_lift(cut, degree, (), k, ())``
- ``["cli", argv]``: ``cli.main(argv)`` with stdout and stderr captured
"""

from __future__ import annotations

import random
from functools import lru_cache

WORKLOADS = ("schubert_tables", "lattice_inversion", "cli_session")

# Number of input sets per workload: seeds 0 .. SEEDS - 1, each with a stored
# output digest in golden.json.  The benchmark maps any seed onto this range.
SEEDS = 100

# Minimal normal Chern number of each testbed divisor, fixed here rather than
# asked of the engine: a point in P^1 has no curve classes (infinite), and
# the line in P^2 has normal degree 1 with lines through two points.
MIN_NORMAL_CHERN = {"p1-pt": float("inf"), "p2-line": 1}

LADDER = ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (2, 8))
SAMPLE_SPACE = (4, 8)
SAMPLE_PAIRS = 120
GW_QUERIES = 70

MAX_TRANSFERS = 7
# Extra round trips per cell, by number of transfers.
EXTRA_TRIPS = {0: 6, 1: 8, 2: 6, 3: 4, 4: 2}
VERIFY_DRAWS = 3
MAX_SHRIEKS = 8

CLI_QUOTAS = {
    "abs": 110,
    "nd": 40,
    "ring": 110,
    "rel": 100,
    "verify": 70,
    "solve": 70,
    "lift": 40,
    "rc": 40,
}
CLI_BAD_SHARE = 0.15


def generate(workload: str, seed: int) -> list:
    if workload == "schubert_tables":
        return schubert_tables(seed)
    if workload == "lattice_inversion":
        return lattice_inversion(seed)
    if workload == "cli_session":
        return cli_session(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# schubert_tables


def box_partitions(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Partitions inside a rows x cols box, by size then lex-descending."""
    out = []

    def grow(prefix: tuple[int, ...], max_part: int) -> None:
        out.append(prefix)
        if len(prefix) < rows:
            for part in range(1, max_part + 1):
                grow(prefix + (part,), part)

    grow((), cols)
    out.sort(key=lambda p: (sum(p), [-x for x in p]))
    return out


def _label(parts) -> str:
    return "s" + "".join(map(str, parts)) if parts else "1"


def _gr(k: int, n: int) -> str:
    return f"gr:{k}:{n}"


def schubert_tables(seed: int) -> list:
    """Full quantum tables and duals on the ladder (seed-independent), then a
    stratified seeded sample of gr:4:8 pairs, then stratified seeded
    three-point invariants on all seven spaces."""
    rng = random.Random(seed)
    ops: list = []
    for k, n in LADDER:
        parts = box_partitions(k, n - k)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                ops.append(["rim", _gr(k, n), list(lam), list(mu)])
        ops.append(["dual", _gr(k, n)])

    k, n = SAMPLE_SPACE
    sample = _stratified_pairs(rng, box_partitions(k, n - k), SAMPLE_PAIRS)
    ops.extend(["rim", _gr(k, n), list(lam), list(mu)] for lam, mu in sample)

    spaces = LADDER + (SAMPLE_SPACE,)
    per_space = GW_QUERIES // len(spaces)
    for k, n in spaces:
        for a, b in _stratified_pairs(rng, box_partitions(k, n - k), per_space):
            ops.append(_three_point_query(rng, k, n, a, b))
    return ops


@lru_cache(maxsize=None)
def _partitions_of(size: int, max_part: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    if size == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(size, max_part), 0, -1)
        if max_len > 0
        for rest in _partitions_of(size - first, first, max_len - 1)
    )


@lru_cache(maxsize=None)
def _lr_candidates(lam, mu) -> int:
    """Number of shapes nu containing lam that an unbounded Littlewood-
    Richardson expansion of lam * mu visits.  As the sort key of
    ``_stratified_pairs`` it halves the seed-to-seed spread of the gr:4:8
    sample's cost against |lam| + |mu| (see NOTES.md)."""
    if not lam or not mu:
        return 1
    shapes = _partitions_of(sum(lam) + sum(mu), lam[0] + mu[0], len(lam) + len(mu))
    return sum(
        1
        for nu in shapes
        if len(nu) >= len(lam) and all(x >= y for x, y in zip(nu, lam))
    )


def _stratified_pairs(rng: random.Random, parts: list, count: int) -> list:
    """``count`` pairs (lam, mu), lam not after mu in ``parts``: one from each
    of ``count`` equal strata of all pairs ordered by expected cost, in
    seeded order.  This keeps the work per seed steady, heavy tail included,
    while the seed still picks the pairs."""
    pairs = [(lam, mu) for i, lam in enumerate(parts) for mu in parts[i:]]
    pairs.sort(key=lambda p: _lr_candidates(*p))
    sample = [
        pairs[rng.randrange(s * len(pairs) // count, (s + 1) * len(pairs) // count)]
        for s in range(count)
    ]
    rng.shuffle(sample)
    return sample


def _three_point_query(rng: random.Random, k: int, n: int, a, b) -> list:
    """A dimension-matched three-point query <a, b, c>_d on Gr(k, n); every
    pair in the box has a degree d <= 2 that leaves room for some c."""
    dim = k * (n - k)
    by_size: dict[int, list] = {}
    for p in box_partitions(k, n - k):
        by_size.setdefault(sum(p), []).append(p)
    degrees = [d for d in range(0, 3) if dim + d * n - sum(a) - sum(b) in by_size]
    d = rng.choice(degrees)
    c = rng.choice(by_size[dim + d * n - sum(a) - sum(b)])
    return ["gw", _gr(k, n), d, [_label(a), _label(b), _label(c)]]


# ---------------------------------------------------------------------------
# lattice_inversion


def _trip_cells() -> list[tuple[str, int, int, int]]:
    """Every dimension-matched (testbed, degree, transfers, point transfers).

    On p2-line a degree-d query with b1 point transfers needs 3d - 1 - b1
    point alphas; on p1-pt only degree 1 is nonzero and the divisor is a
    point, so every transfer is the unit class.
    """
    cells = [("p1-pt", 1, t, 0) for t in range(MAX_TRANSFERS + 1)]
    for d in (1, 2, 3):
        for t in range(MAX_TRANSFERS + 1):
            for b1 in range(min(t, 3 * d - 1) + 1):
                cells.append(("p2-line", d, t, b1))
    return cells


def _trip(rng: random.Random, testbed: str, d: int, t: int, b1: int) -> list:
    betas = ["pt"] * b1 + ["1"] * (t - b1)
    rng.shuffle(betas)
    if testbed == "p1-pt":
        n_alphas = rng.randint(0, 4)
    else:
        n_alphas = 3 * d - 1 - b1
    return ["trip", testbed, d, ["pt"] * n_alphas, betas]


def lattice_inversion(seed: int) -> list:
    """Comparison round trips in formal mode, in-hypothesis verifications,
    term enumerations and witness lifts, in seeded order.

    Every dimension-matched cell appears once per batch, so the costly
    seven-transfer solves and the known inconsistent-value defect are in
    every batch, and cells with few transfers appear EXTRA_TRIPS[t] more
    times, so transfer counts lean small.  The mix of cells is fixed, which
    keeps the work per batch steady across seeds; the seed draws the order
    of the transfers, the point insertions on p1-pt and the order of the
    whole batch.
    """
    rng = random.Random(seed)
    cells = _trip_cells()
    ops = [_trip(rng, *cell) for cell in cells]
    for cell in cells:
        ops.extend(_trip(rng, *cell) for _ in range(EXTRA_TRIPS.get(cell[2], 0)))

    for t in range(1, 5):
        for _ in range(VERIFY_DRAWS):
            ops.append(["verify", "p1-pt", 1, ["pt"] * rng.randint(0, 4), ["1"] * t])
    for d in (1, 2, 3):
        for betas in ([], ["1"], ["pt"]):
            for _ in range(VERIFY_DRAWS):
                n_alphas = 3 * d - 1 - betas.count("pt")
                ops.append(["verify", "p2-line", d, ["pt"] * n_alphas, betas])

    for m in range(1, MAX_SHRIEKS + 1):
        ops.append(["enum", "p1-pt", rng.randint(0, 3), m])
    for k in (1, 2, 1, 2):
        ops.append(["lift", "p2-line", 1, k])
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_session

_ABS_SPACES = ("p1", "p2", "pn:3", "gr:2:4", "gr:2:5", "gr:3:6")
_RING_SPACES = ("p2", "pn:4", "gr:2:4", "gr:2:5", "gr:2:6", "gr:3:6")


def _space_classes(desc: str) -> list[tuple[str, int]]:
    """(label, complex degree) of every basis class of a space descriptor."""
    if desc.startswith("gr:"):
        _, k, n = desc.split(":")
        return [(_label(p), sum(p)) for p in box_partitions(int(k), int(n) - int(k))]
    n = int(desc[3:]) if desc.startswith("pn:") else int(desc[1:])
    return [("1", 0), ("h", 1)] + [(f"h^{i}", i) for i in range(2, n + 1)]


def _dimension(desc: str) -> tuple[int, int]:
    """(complex dimension, first Chern number on the curve generator)."""
    if desc.startswith("gr:"):
        _, k, n = desc.split(":")
        return int(k) * (int(n) - int(k)), int(n)
    n = int(desc[3:]) if desc.startswith("pn:") else int(desc[1:])
    return n, n + 1


def _cli_abs(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["abs", "--space", "gr:2", "--degree", "1"],
                ["abs", "--space", "p2", "--degree", "one", "--insertions", "pt"],
                ["abs", "--space", "gr:2:4", "--degree", "1", "--insertions", "s9"],
                ["abs", "--space", "gr:2:4", "--degree", "1", "--insertions", "s2,s2,s2,s2"],
                ["abs", "--space", "p2", "--degree", "-1", "--insertions", "pt"],
            ]
        )
    desc = _ABS_SPACES[i % len(_ABS_SPACES)]
    dim, c1 = _dimension(desc)
    classes = [c for c in _space_classes(desc) if c[1] >= 1]
    if desc == "p2":
        d = rng.randint(1, 5)
        labels = ["pt"] * (3 * d - 1) + ["h"] * rng.randint(0, 2)
        rng.shuffle(labels)
        return ["abs", "--space", desc, "--degree", str(d), "--insertions", ",".join(labels)]
    # k insertions of complex degrees summing to c1*d + dim - 3 + k.
    while True:
        d = rng.randint(0, 2)
        k = rng.randint(2, 3) if desc.startswith("gr:") else rng.randint(2, 4)
        picks = [rng.choice(classes) for _ in range(k - 1)]
        need = c1 * d + dim - 3 + k - sum(c[1] for c in picks)
        last = [c for c in classes if c[1] == need]
        if last:
            labels = [c[0] for c in picks] + [rng.choice(last)[0]]
            return ["abs", "--space", desc, "--degree", str(d), "--insertions", ",".join(labels)]


def _cli_nd(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return ["nd", "--max", rng.choice(["0", "x", "-2"])]
    return ["nd", "--max", str(rng.randint(1, 12))]


def _cli_ring(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["ring", "--space", "gr:2"],
                ["ring", "--space", "gr:2:4", "--cup", "s1,s9"],
                ["ring", "--space", "q7"],
                ["ring", "--space", "gr:2:4", "--cup", "s1"],
            ]
        )
    desc = _RING_SPACES[i % len(_RING_SPACES)]
    mode = i // len(_RING_SPACES) % 7
    if mode == 0:
        return ["ring", "--space", desc]
    if mode == 1:
        return ["ring", "--space", desc, "--dual"]
    labels = [c[0] for c in _space_classes(desc)]
    return ["ring", "--space", desc, "--cup", f"{rng.choice(labels)},{rng.choice(labels)}"]


def _cli_rel(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["rel", "--bundle", "p1", "--class", "1F", "--partition", "(1,1)"],
                ["rel", "--bundle", "p1:c1=1", "--class", "1X", "--insertions", "zs:pt"],
                ["rel", "--bundle", "p1:c1=1", "--class", "1F", "--partition", "(1,1)",
                 "--insertions", "zz:pt"],
                ["rel", "--bundle", "p1:c1=1", "--class", "2F", "--partition", "(1,1)",
                 "--insertions", "zs:pt"],
            ]
        )
    s = rng.randint(1, 4)
    shape = i % 5
    if shape == 0:
        tau = rng.randint(1, 4)
        return ["rel", "--bundle", "pt:c1=0", "--class", f"{s}F", "--partition",
                f"({s},pt)", "--insertions", f"zs:1@tau{tau}"]
    if shape == 1:
        c1 = rng.randint(1, 3)
        a, b = rng.choice(["1", "pt"]), rng.choice(["1", "pt"])
        return ["rel", "--bundle", f"p1:c1={c1}", "--class", "1F", "--partition",
                f"(1,{a})", "--insertions", f"zs:{b}"]
    if shape == 2:
        return ["rel", "--bundle", "p1:c1=1", "--class", f"{s + 1}F", "--partition",
                "(1,1)" + "+(1,pt)" * s, "--insertions", "zs:pt"]
    if shape == 3:
        c1 = rng.randint(1, 2)
        labels = [rng.choice(["pt", "h", "1"]) for _ in range(c1 + 1)]
        return ["rel", "--bundle", f"p1:c1={c1}", "--class", "1A", "--insertions",
                ",".join(f"zs:{x}" for x in labels)]
    return ["rel", "--bundle", "p1:c1=1", "--class", "1F", "--partition", "(1,pt)",
            "--insertions", f"pb:{rng.choice(['1', 'pt'])},zs:1"]


def _cli_verify(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["verify", "comparison", "--testbed", "p2-line", "--degree", "2",
                 "--alphas", "pt,pt,pt,pt", "--betas", "1,pt"],
                ["verify", "comparison", "--testbed", "p1-pt", "--points", "1"],
                ["verify", "identity", "--testbed", "p1-pt"],
                ["verify", "comparison", "--testbed", "p3-plane"],
            ]
        )
    shape = i % 3
    if shape == 0:
        return ["verify", "comparison", "--testbed", "p1-pt", "--points", str(rng.randint(2, 7))]
    if shape == 1:
        return ["verify", "comparison", "--testbed", "p2-line", "--max-degree",
                str(rng.randint(1, 3))]
    d = rng.randint(1, 3)
    beta = rng.choice(["1", "pt"])
    n_alphas = 3 * d - 1 - (beta == "pt")
    return ["verify", "comparison", "--testbed", "p2-line", "--degree", str(d),
            "--alphas", ",".join(["pt"] * n_alphas), "--betas", beta]


def _cli_solve(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["solve", "relative", "--testbed", "p2-line", "--alphas", "pt,pt",
                 "--betas", "1,1"],
                ["solve", "absolute", "--testbed", "p1-pt", "--betas", "1"],
                ["solve", "relative", "--testbed", "p1-pt"],
            ]
        )
    if i % 2:
        t = rng.randint(1, 5)
        return ["solve", "relative", "--testbed", "p1-pt", "--alphas",
                ",".join(["pt"] * rng.randint(0, 3)), "--betas", ",".join(["1"] * t)]
    d = rng.randint(1, 3)
    beta = rng.choice(["1", "pt"])
    n_alphas = 3 * d - 1 - (beta == "pt")
    return ["solve", "relative", "--testbed", "p2-line", "--degree", str(d),
            "--alphas", ",".join(["pt"] * n_alphas), "--betas", beta]


def _cli_lift(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["lift", "--testbed", "p2-line", "--k", "3"],
                ["lift", "--testbed", "p1-pt", "--k", "1"],
                ["lift", "--testbed", "p2-line", "--degree", "2", "--k", "1"],
            ]
        )
    return ["lift", "--testbed", "p2-line", "--k", str(rng.randint(0, 2))]


def _cli_rc(rng: random.Random, i: int, bad: bool) -> list[str]:
    if bad:
        return rng.choice(
            [
                ["rc", "--space", "gr:2:4", "--k", "-1"],
                ["rc", "--space", "gr:2:4"],
            ]
        )
    spaces = ("p2", "pn:3", "gr:2:4", "gr:2:5", "gr:3:6")
    max_degree = i // len(spaces) % 3 + 1
    return ["rc", "--space", spaces[i % len(spaces)], "--k", str(rng.randint(0, 3)),
            "--max-degree", str(max_degree)]


_CLI_MAKERS = {
    "abs": _cli_abs,
    "nd": _cli_nd,
    "ring": _cli_ring,
    "rel": _cli_rel,
    "verify": _cli_verify,
    "solve": _cli_solve,
    "lift": _cli_lift,
    "rc": _cli_rc,
}

# Fixed commands whose output the benchmark checks against known values.
CLI_ANCHORS = (
    ["nd", "--max", "5"],
    ["abs", "--space", "p2", "--degree", "4", "--insertions", ",".join(["pt"] * 11)],
    ["ring", "--space", "gr:2:4", "--cup", "s1,s1"],
)


def cli_session(seed: int) -> list:
    """A fixed number of commands per subcommand, CLI_BAD_SHARE of them
    malformed, refused or outside the hypothesis, in seeded order.

    Spaces and command shapes go round a fixed menu, so every seed pays the
    same first-use (cold cache) costs; the seed draws the remaining
    arguments and the order.
    """
    rng = random.Random(seed)
    argvs = [list(a) for a in CLI_ANCHORS]
    for name, count in CLI_QUOTAS.items():
        n_bad = round(count * CLI_BAD_SHARE)
        for i in range(count):
            argvs.append(_CLI_MAKERS[name](rng, i, i < n_bad))
    rng.shuffle(argvs)
    return [["cli", argv] for argv in argvs]
