"""Quantum oracle tests: dimension formula, plane-curve counts against an
independently coded recursion, rim-hook products, and certificate search."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from gwcalc import quantum, ring
from gwcalc.cli import main
from gwcalc.errors import UnsupportedQuery
from gwcalc.quantum import (
    chern_generator,
    gw_invariant,
    rc_certificate,
    rim_hook_product,
    virtual_dimension,
    wdvv_nd,
)

from helpers import quantum_lift, star

P1 = ring.projective_space(1)
P2 = ring.projective_space(2)
G24 = ring.grassmannian(2, 4)
G13 = ring.grassmannian(1, 3)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def brute_plane_counts(limit):
    """Independent oracle for the plane-curve counts: the same associativity
    recursion evaluated from scratch with Pascal-triangle binomials."""
    rows = [[1]]
    for n in range(1, 3 * limit):
        prev = rows[-1]
        rows.append(
            [1] + [prev[i - 1] + prev[i] for i in range(1, n)] + [1]
        )

    def choose(n, k):
        return rows[n][k] if 0 <= k <= n else 0

    counts = {1: 1}
    for d in range(2, limit + 1):
        acc = 0
        for a in range(1, d):
            b = d - a
            acc += (
                counts[a]
                * counts[b]
                * a
                * a
                * b
                * (b * choose(3 * d - 4, 3 * a - 2) - a * choose(3 * d - 4, 3 * a - 1))
            )
        counts[d] = acc
    return counts


def test_virtual_dimension_examples():
    assert virtual_dimension(P2, 1, 2) == 8
    assert virtual_dimension(P1, 1, 2) == 4
    assert virtual_dimension(G24, 1, 3) == 16


def test_chern_generator():
    assert chern_generator(P1) == 2
    assert chern_generator(P2) == 3
    assert chern_generator(G24) == 4


def test_wdvv_small_values():
    assert wdvv_nd(1) == 1
    assert wdvv_nd(2) == 1
    assert wdvv_nd(3) == 12
    with pytest.raises(ValueError):
        wdvv_nd(0)


def test_wdvv_matches_independent_recursion():
    oracle = brute_plane_counts(6)
    for d, expected in oracle.items():
        value = wdvv_nd(d)
        assert value == expected
        assert value.denominator == 1 and value > 0


def test_wdvv_cold_call_is_shallow():
    # A cold wdvv_nd(d) must not recurse d levels deep, or a large degree
    # ends in a RecursionError.
    code = "import sys; sys.setrecursionlimit(120); from gwcalc.quantum import wdvv_nd; wdvv_nd(150)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_gw_point_space():
    pt = ring.point_space()
    one = ring.unit(pt)
    assert gw_invariant(pt, 0, [one, one, one]) == 1
    assert gw_invariant(pt, 0, [one, one]) == 0


def test_gw_p1_two_point():
    p = ring.point_class(P1)
    assert gw_invariant(P1, 1, [p, p]) == 1
    assert gw_invariant(P1, 2, [p, p]) == 0
    assert gw_invariant(P1, 1, [p, p, p]) == 1


def test_gw_p2_values():
    p = ring.point_class(P2)
    h = ring.by_label(P2, "h")
    assert gw_invariant(P2, 2, [p] * 5) == 1
    assert gw_invariant(P2, 1, [p, p]) == 1
    assert gw_invariant(P2, 3, [p] * 8) == 12
    # Divisor insertions rescale by the degree.
    assert gw_invariant(P2, 2, [p] * 5 + [h]) == 2
    # Degree-0 three-point values are triple intersections.
    assert gw_invariant(P2, 0, [h, h, p]) == 0
    assert gw_invariant(P2, 0, [h, h, ring.unit(P2)]) == 1


def test_gw_dimension_rule():
    p = ring.point_class(P2)
    assert gw_invariant(P2, 2, [p] * 4) == 0
    assert gw_invariant(P2, 2, [p] * 6) == 0


def test_gw_fundamental_class():
    p = ring.point_class(P2)
    one = ring.unit(P2)
    # Dimensionally consistent, but a unit insertion kills any
    # positive-degree invariant.
    assert virtual_dimension(P2, 1, 4) == 12
    assert gw_invariant(P2, 1, [one, p, p, p]) == 0


def test_gw_divisor_axiom_property():
    h = ring.by_label(P2, "h")
    p = ring.point_class(P2)
    for d in (1, 2):
        base = [p] * (3 * d - 1)
        lhs = gw_invariant(P2, d, base + [h])
        rhs = d * gw_invariant(P2, d, base)
        assert lhs == rhs
    s1 = ring.by_label(G24, "s1")
    pt = ring.point_class(G24)
    assert gw_invariant(G24, 2, [pt, pt, pt, s1]) == 2 * gw_invariant(
        G24, 2, [pt, pt, pt]
    )


def test_gw_multilinearity():
    p = ring.point_class(P2)
    assert gw_invariant(P2, 1, [2 * p, p]) == 2
    assert gw_invariant(P2, 1, [ring.zero(P2), p]) == 0


def test_gw_nonhomogeneous_rejected():
    mixed = ring.unit(P2) + ring.point_class(P2)
    with pytest.raises(ValueError):
        gw_invariant(P2, 1, [mixed, mixed])


def test_gw_grassmannian_values():
    pt = ring.point_class(G24)
    assert gw_invariant(G24, 2, [pt, pt, pt]) == 1
    assert gw_invariant(G24, 1, [pt, pt, pt]) == 0
    s2 = ring.by_label(G24, "s2")
    s11 = ring.by_label(G24, "s11")
    # Lines in the plane-pair geometry: one pencil through a point meeting
    # two general 2-plane conditions.
    assert gw_invariant(G24, 1, [s2, s2, pt]) == 0
    assert gw_invariant(G24, 1, [s2, s11, pt]) == 1


def test_gw_invariant_insertion_forms():
    # The memo keys on the insertion tuple as given: lists, tuples,
    # generators, permutations and repeated calls all give one value.
    pt = ring.point_class(G24)
    s2 = ring.by_label(G24, "s2")
    s11 = ring.by_label(G24, "s11")
    for _ in range(2):
        for order in permutations((s2, s11, pt)):
            assert gw_invariant(G24, 1, list(order)) == 1
            assert gw_invariant(G24, 1, tuple(order)) == 1
            assert gw_invariant(G24, 1, (x for x in order)) == 1
        assert gw_invariant(P2, 3, [ring.point_class(P2)] * 8) == 12


def test_gw_invariant_refusals_repeat():
    # A refusal is never memoised: the identical call refuses again.
    p = ring.point_class(P2)
    mixed = ring.unit(P2) + p
    cases = [
        (ValueError, "nonnegative", (P2, -1, [p, p])),
        (ValueError, "wrong space", (P2, 1, [ring.point_class(P1), p])),
        (ValueError, "homogeneous", (P2, 1, [mixed, mixed])),
        (UnsupportedQuery, "three", (G24, 1, [ring.by_label(G24, "s2")] * 5)),
    ]
    for exc, match, args in cases:
        for _ in range(2):
            with pytest.raises(exc, match=match):
                gw_invariant(*args)


def test_gw_grassmannian_unsupported_shape():
    # Dimensionally consistent (five degree-4 insertions at degree 1), but
    # not reducible to a three-point constant: must refuse, not guess.
    s2 = ring.by_label(G24, "s2")
    assert sum([4] * 5) == virtual_dimension(G24, 1, 5)
    with pytest.raises(UnsupportedQuery):
        gw_invariant(G24, 1, [s2] * 5)


def test_p2_three_point_agrees_with_rank_one_schubert_ring():
    # The plane is also the rank-one Grassmannian; the two reduction paths
    # must agree wherever both apply.
    p = ring.point_class(P2)
    h = ring.by_label(P2, "h")
    pg = ring.point_class(G13)
    hg = ring.by_label(G13, "s1")
    assert gw_invariant(P2, 1, [p, p]) == gw_invariant(G13, 1, [pg, pg]) == 1
    assert gw_invariant(P2, 1, [p, p, h]) == gw_invariant(G13, 1, [pg, pg, hg]) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projective_space_is_the_grassmannian_of_lines(n):
    # P^n is Gr(1, n+1), with h^i <-> s_i at the same basis index: the basis
    # degrees and every three-point invariant in degrees 0-2 agree.  The cup
    # products and dual bases are compared in tests/test_ring.py.
    pn, gr = ring.projective_space(n), ring.grassmannian(1, n + 1)
    assert [bc.label for bc in ring.basis(gr)] == ["1"] + [f"s{i}" for i in range(1, n + 1)]
    assert [bc.real_degree for bc in ring.basis(pn)] == [bc.real_degree for bc in ring.basis(gr)]
    classes = [(ring.basis_element(pn, i), ring.basis_element(gr, i)) for i in range(n + 1)]
    for degree in range(3):
        for triple in product(classes, repeat=3):
            mono = gw_invariant(pn, degree, [a for a, _ in triple])
            schub = gw_invariant(gr, degree, [b for _, b in triple])
            assert mono == schub, (degree, [str(a) for a, _ in triple])


@pytest.mark.parametrize("n", range(1, 8))
def test_projective_quantum_product_closed_form(n):
    # Independent of the box: in QH(P^n) = Q[h, q]/(h^(n+1) - q),
    # h^i * h^j = q^((i+j) div (n+1)) h^((i+j) mod (n+1)).
    pn = ring.projective_space(n)

    def power(m):
        return ring.by_label(pn, "1" if m == 0 else "h" if m == 1 else f"h^{m}")

    for i, j in product(range(n + 1), repeat=2):
        got = star(quantum_lift(power(i)), quantum_lift(power(j)))
        e, m = divmod(i + j, n + 1)
        assert got.terms == ((e, power(m)),), (i, j)


def test_rim_hook_examples():
    qc = rim_hook_product((2, 2), (2, 2), G24)
    assert qc.terms == ((2, ring.unit(G24)),)
    qc13 = rim_hook_product((2,), (2,), G13)
    assert qc13.terms == ((1, ring.by_label(G13, "s1")),)
    ident = rim_hook_product((), (2, 1), G24)
    assert ident.terms == ((0, ring.by_label(G24, "s21")),)


def test_rim_hook_known_relations():
    s1 = (1,)
    s21 = (2, 1)
    qc = rim_hook_product(s1, s21, G24)
    assert qc.element_at(0) == ring.by_label(G24, "s22")
    assert qc.element_at(1) == ring.unit(G24)
    # sigma_2 * sigma_2 has no quantum correction in Gr(2,4).
    qc2 = rim_hook_product((2,), (2,), G24)
    assert qc2.terms == ((0, ring.by_label(G24, "s22")),)


def test_rim_hook_rejects_bad_partitions():
    with pytest.raises(ValueError):
        rim_hook_product((3,), (1,), G24)
    with pytest.raises(ValueError):
        rim_hook_product((1, 1), (1,), P2)


def test_rim_hook_coefficients_nonnegative():
    for space in (G24, G13, ring.grassmannian(2, 5)):
        k, n = space.params
        parts = ring.rectangle_partitions(k, n - k)
        for lam, mu in combinations_with_replacement(parts, 2):
            qc = rim_hook_product(lam, mu, space)
            for _, elem in qc.terms:
                assert all(c > 0 for _, c in elem.coeffs)


def _hook_removals(nu, n):
    """Removable n-rim hooks of nu as (height, smaller partition) pairs.

    Encoded on first-column hook lengths: subtracting n from one of them
    (staying nonnegative and distinct) removes one border strip whose height
    is the number of values jumped over, plus one.
    """
    length = len(nu)
    betas = [nu[i] + (length - 1 - i) for i in range(length)]
    for b in betas:
        nb = b - n
        if nb < 0 or nb in betas:
            continue
        ht = sum(1 for c in betas if nb < c < b) + 1
        news = sorted((set(betas) - {b}) | {nb}, reverse=True)
        parts = tuple(news[j] - (length - 1 - j) for j in range(length))
        yield ht, tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _reference_rim_reduce(nu, rows, cols, n):
    """The rim-hook rule by search: remove n-rim hooks from nu in every order
    until it fits in the rows x cols box, each hook of height ht with sign
    (-1)^(rows - ht).  Returns (sign, hook count, reduced partition), or None
    when every order dead-ends; all orders must agree."""
    if len(nu) > rows:
        return None
    if ring.in_box(nu, rows, cols):
        return (1, 0, nu)
    outcomes = set()
    for ht, smaller in _hook_removals(nu, n):
        sub = _reference_rim_reduce(smaller, rows, cols, n)
        if sub is None:
            outcomes.add(None)
        else:
            sign, count, core = sub
            outcomes.add((sign * (-1) ** (rows - ht), count + 1, core))
    assert len(outcomes) <= 1, (nu, rows, cols, outcomes)
    return outcomes.pop() if outcomes else None


def test_rim_reduce_matches_the_removal_order_search():
    # Every shape with at most rows + 1 rows and first part <= 2 * cols, in
    # every box with n = rows + cols <= 8: the abacus closed form equals the
    # search over removal orders.
    checked = 0
    for n in range(2, 9):
        for rows in range(1, n):
            cols = n - rows
            for nu in ring.rectangle_partitions(rows + 1, 2 * cols):
                got = quantum._rim_reduce(nu, rows, n)
                assert got == _reference_rim_reduce(nu, rows, cols, n), (nu, rows, n)
                checked += got is not None and got[1] > 0
    assert checked > 1000
    assert quantum._rim_reduce((), 0, 0) == (1, 0, ())


def test_quantum_associativity_gr24():
    lifts = [
        quantum_lift(ring.basis_element(G24, b.index)) for b in ring.basis(G24)
    ]
    for a in lifts:
        for b in lifts:
            for c in lifts:
                assert star(star(a, b), c) == star(a, star(b, c))


@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_quantum_associativity_and_commutativity(k, n):
    space = ring.grassmannian(k, n)
    lifts = [
        quantum_lift(ring.basis_element(space, b.index)) for b in ring.basis(space)
    ]
    for a in lifts:
        for b in lifts:
            ab = star(a, b)
            assert ab == star(b, a)
            for c in lifts:
                assert star(ab, c) == star(a, star(b, c))


def _cli_json(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err.strip()


def test_ring_quantum_table_grassmannian(capsys):
    products, summary = _cli_json(capsys, ["ring", "--space", "gr:2:4", "--quantum"])
    assert summary == "quantum products on gr:2:4"
    assert products["s1 * s1"] == {"s2": "1", "s11": "1"}
    assert products["s1 * s21"] == {"s22": "1", "q^1*1": "1"}
    assert products["s22 * s22"] == {"q^2*1": "1"}


@pytest.mark.parametrize(
    "space, n", [("pt", 0), ("pn:1", 1), ("pn:2", 2), ("pn:3", 3), ("pn:4", 4)]
)
def test_ring_quantum_table_projective(capsys, space, n):
    # h^a * h^b = q^((a+b) div (n+1)) h^((a+b) mod (n+1)) on P^n; the point
    # is n = 0, with the single product 1 * 1 = 1.
    products, _ = _cli_json(capsys, ["ring", "--space", space, "--quantum"])
    label = ["1", "h"] + [f"h^{i}" for i in range(2, n + 1)]
    expected = {}
    for a, b in combinations_with_replacement(range(n + 1), 2):
        power, rest = divmod(a + b, n + 1)
        expected[f"{label[a]} * {label[b]}"] = {
            (f"q^{power}*" if power else "") + label[rest]: "1"
        }
    assert products == expected


def test_grassmannian_point_power_formula():
    # The point class squares to a pure power of q in the self-complementary
    # cases and to q times the reduced rectangle otherwise.
    g36 = ring.grassmannian(3, 6)
    rho = (3, 3, 3)
    qc = rim_hook_product(rho, rho, g36)
    assert qc.terms == ((3, ring.unit(g36)),)
    g25 = ring.grassmannian(2, 5)
    qc25 = rim_hook_product((3, 3), (3, 3), g25)
    assert qc25.terms == ((2, ring.by_label(g25, "s11")),)


def test_rc_certificate_examples():
    w = rc_certificate(P1, 2, 1)
    assert w is not None and w.value == 1 and w.query.degree == 1
    w2 = rc_certificate(P2, 2, 1)
    assert w2 is not None and w2.value == 1
    w3 = rc_certificate(G24, 3, 2)
    assert w3 is not None and w3.query.degree == 2 and w3.value == 1
    assert rc_certificate(ring.point_space(), 1, 3) is None


def _uncapped_multisets(space, budget):
    """The certificate search's enumerator before its length cap: every
    multiset of basis classes of degree >= 4 with sum(deg - 2) == budget,
    built in full, then sorted shortest first."""
    pool = [bc for bc in ring.basis(space) if bc.real_degree >= 4]
    found = []

    def grow(start, remaining, acc):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            step = pool[i].real_degree - 2
            if step <= remaining:
                acc.append(pool[i].index)
                grow(i, remaining - step, acc)
                acc.pop()

    grow(0, budget, [])
    found.sort(key=lambda t: (len(t), t))
    return found


def _uncapped_certificate(space, k_points, max_degree):
    """rc_certificate over the uncapped enumerator, trying every multiset and
    skipping the ones the oracle refuses."""
    points = (ring.point_class(space),) * k_points
    for degree in range(1, max_degree + 1):
        budget = virtual_dimension(space, degree, k_points) - 2 * space.complex_dimension * k_points
        if budget < 0:
            continue
        for extras in _uncapped_multisets(space, budget):
            insertions = points + tuple(ring.basis_element(space, i) for i in extras)
            try:
                value = gw_invariant(space, degree, insertions)
            except UnsupportedQuery:
                continue
            if value != 0:
                return degree, insertions, value
    return None


CERTIFICATE_SPACES = (
    [ring.point_space()]
    + [ring.projective_space(n) for n in range(1, 6)]
    + [ring.grassmannian(k, n) for n in range(2, 7) for k in range(1, n)]
)


@pytest.mark.parametrize("space", CERTIFICATE_SPACES, ids=str)
def test_rc_certificate_cap_keeps_the_first_witness(space):
    # The search stops at the longest multiset the oracle evaluates; the
    # uncapped search skips every longer one as refused, so both find the
    # same first witness, or none.
    for k_points, max_degree in product(range(4), range(1, 4)):
        witness = rc_certificate(space, k_points, max_degree)
        found = witness and (witness.query.degree, witness.query.insertions, witness.value)
        assert found == _uncapped_certificate(space, k_points, max_degree), (
            k_points,
            max_degree,
        )


@pytest.mark.parametrize("space", CERTIFICATE_SPACES, ids=str)
def test_extra_multisets_are_the_uncapped_list_cut_by_length(space):
    for budget in range(17):
        uncapped = _uncapped_multisets(space, budget)
        for cap in (None, 0, 1, 2, 3):
            capped = list(quantum._extra_multisets(space, budget, cap))
            assert capped == [m for m in uncapped if cap is None or len(m) <= cap]


def test_nonzero_invariant_search():
    assert quantum._certificate_in_degree(P1, 1, 0) is not None
    assert quantum._certificate_in_degree(P1, 2, 0) is None
    assert quantum._certificate_in_degree(P2, 1, 0) is not None


# ---------------------------------------------------------------------------
# Properties of gw_invariant on generated dimension-matched queries.

PROPERTY_SPACES = (
    P1,
    ring.projective_space(3),
    ring.projective_space(4),
    ring.grassmannian(2, 5),
    ring.grassmannian(3, 6),
)


@st.composite
def homogeneous_classes(draw, space, complex_degree):
    """A nonzero class of one degree with small integer coefficients."""
    indices = [bc.index for bc in ring.basis(space) if bc.real_degree == 2 * complex_degree]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(indices), max_size=len(indices)))
    if not any(coeffs):
        coeffs[draw(st.sampled_from(range(len(indices))))] = 1
    return ring.element(space, dict(zip(indices, coeffs)))


@st.composite
def gw_queries(draw):
    """(space, degree, insertions), the insertion degrees meeting the
    dimension rule whenever they can."""
    space = draw(st.sampled_from(PROPERTY_SPACES))
    degree = draw(st.integers(0, 2))
    count = draw(st.integers(1, 5))
    dim = space.complex_dimension
    remaining = virtual_dimension(space, degree, count) // 2
    insertions = []
    for left in range(count, 0, -1):
        lo = max(0, remaining - (left - 1) * dim)
        hi = min(dim, remaining)
        part = draw(st.integers(lo, hi) if lo <= hi else st.integers(0, dim))
        insertions.append(draw(homogeneous_classes(space, part)))
        remaining -= part
    return space, degree, insertions


def _gw_or_refusal(space, degree, insertions):
    try:
        return gw_invariant(space, degree, insertions)
    except UnsupportedQuery:
        return "unsupported"


@settings(max_examples=80, deadline=None)
@given(gw_queries(), st.randoms(use_true_random=False))
def test_gw_invariant_symmetric_in_insertions(query, rng):
    space, degree, insertions = query
    shuffled = list(insertions)
    rng.shuffle(shuffled)
    value = _gw_or_refusal(space, degree, insertions)
    assume(value != "unsupported")
    assert _gw_or_refusal(space, degree, shuffled) == value


@settings(max_examples=80, deadline=None)
@given(gw_queries(), st.integers(0, 5))
def test_gw_invariant_divisor_axiom(query, position):
    space, degree, insertions = query
    assume(degree > 0 or len(insertions) >= 3)
    with_divisor = list(insertions)
    with_divisor.insert(position, ring.generator_class(space))
    value = _gw_or_refusal(space, degree, insertions)
    assume(value != "unsupported")
    assert _gw_or_refusal(space, degree, with_divisor) == degree * value
