"""Ring tests: bases, cup products, pairing nondegeneracy, and the transfer
map's projection formula.  tests/test_schubert_oracles.py checks every cup
product with n <= 7 against an independent quantum Pieri-Giambelli oracle."""

import gc
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from gwcalc import quantum, ring
from helpers import (
    box_pairs,
    check_lr_expansion,
    check_shape_enumerator,
    contains,
    is_row_or_column,
    lr_expansion_reference,
    lr_shapes,
)


SMALL_GRASSMANNIANS = [ring.grassmannian(2, 4), ring.grassmannian(1, 3), ring.grassmannian(2, 5)]


def test_projective_basis():
    p2 = ring.projective_space(2)
    assert [(b.label, b.real_degree) for b in ring.basis(p2)] == [
        ("1", 0),
        ("h", 2),
        ("h^2", 4),
    ]
    assert p2.complex_dimension == 2


def test_point_basis():
    pt = ring.point_space()
    assert len(ring.basis(pt)) == 1
    assert pt.complex_dimension == 0


def test_grassmannian_basis_is_rectangle():
    g = ring.grassmannian(2, 4)
    labels = [b.label for b in ring.basis(g)]
    assert labels == ["1", "s1", "s2", "s11", "s21", "s22"]
    assert g.complex_dimension == 4
    # Every box up to 6 x 6 lists each of its partitions once, sorted by
    # size then lex-descending; the reference filters all tuples of parts.
    for rows, cols in product(range(7), repeat=2):
        expected = sorted(
            (
                p
                for length in range(rows + 1)
                for p in product(range(cols, 0, -1), repeat=length)
                if all(a >= b for a, b in zip(p, p[1:]))
            ),
            key=lambda p: (sum(p), tuple(-x for x in p)),
        )
        assert ring.rectangle_partitions(rows, cols) == tuple(expected)


@pytest.mark.parametrize("bad", [("pn", 0), ("gr", 0, 3), ("gr", 3, 3)])
def test_invalid_space_parameters(bad):
    with pytest.raises(ValueError):
        if bad[0] == "pn":
            ring.projective_space(bad[1])
        else:
            ring.grassmannian(bad[1], bad[2])


def test_make_space_descriptors():
    assert ring.make_space("pt").kind == ring.POINT
    assert ring.make_space("pn:3") == ring.projective_space(3)
    assert ring.make_space("p2") == ring.projective_space(2)
    assert ring.make_space("gr:2:4") == ring.grassmannian(2, 4)
    with pytest.raises(ValueError):
        ring.make_space("torus")


def test_cup_projective():
    p2 = ring.projective_space(2)
    h = ring.by_label(p2, "h")
    assert ring.cup(h, h) == ring.by_label(p2, "h^2")
    assert ring.cup(ring.cup(h, h), h).is_zero()


def test_cup_space_mismatch():
    # cup is memoised, and lru_cache keeps no exceptions: a repeat raises too.
    a, b = ring.unit(ring.projective_space(1)), ring.unit(ring.projective_space(2))
    for _ in range(2):
        with pytest.raises(ValueError, match="space mismatch"):
            ring.cup(a, b)


def test_cup_is_memoised():
    g = ring.grassmannian(2, 4)
    s1, s2 = ring.by_label(g, "s1"), ring.by_label(g, "s2")
    assert ring.cup(s1, s2) is ring.cup(s1, s2)


def test_cup_of_elements_built_by_different_routes_is_one_object():
    g = ring.grassmannian(2, 4)
    s1 = ring.by_label(g, "s1")
    direct = ring.element(g, {1: 2, 2: 1})
    built = 2 * s1 + ring.by_label(g, "s2")
    assert built is direct
    assert ring.cup(built, s1) is ring.cup(direct, s1)
    assert ring.cup(s1, built) is ring.cup(s1, direct)
    # A value built around the constructors is equal but not shared; the
    # memo finds the same entry through field-wise equality.
    unshared = ring.RingElement(g, direct.coeffs)
    assert unshared is not direct
    assert ring.cup(unshared, s1) is ring.cup(direct, s1)


def test_cup_grassmannian_example():
    g = ring.grassmannian(2, 4)
    s1 = ring.by_label(g, "s1")
    assert ring.cup(s1, s1) == ring.by_label(g, "s2") + ring.by_label(g, "s11")


def test_element_str_writes_coefficients_other_than_one():
    g = ring.grassmannian(3, 6)
    s21 = ring.by_label(g, "s21")
    assert str(ring.cup(s21, s21)) == "s33 + 2*s321 + s222"
    assert str(Fraction(3, 2) * s21 - ring.unit(g)) == "-1*1 + 3/2*s21"
    assert str(ring.zero(g)) == "0"


@pytest.mark.parametrize("space", SMALL_GRASSMANNIANS)
def test_cup_commutative_associative(space):
    elems = [ring.basis_element(space, b.index) for b in ring.basis(space)]
    for a, b in combinations_with_replacement(elems, 2):
        assert ring.cup(a, b) == ring.cup(b, a)
    for a, b, c in combinations_with_replacement(elems, 3):
        assert ring.cup(ring.cup(a, b), c) == ring.cup(a, ring.cup(b, c))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projective_ring_is_the_grassmannian_of_lines(n):
    # P^n is Gr(1, n+1): under h^i <-> s_i the monomial ring and the
    # Schubert ring have the same products and the same dual basis.
    pn, gr = ring.projective_space(n), ring.grassmannian(1, n + 1)
    schubert = {"1": "1", "h": "s1"}
    schubert.update({f"h^{i}": f"s{i}" for i in range(2, n + 1)})
    gr_index = {bc.label: bc.index for bc in ring.basis(gr)}
    assert sorted(schubert.values()) == sorted(gr_index)

    def as_schubert(a):
        return {schubert[label]: c for label, c in ring.element_to_json(a).items()}

    for a, b in product(ring.basis(pn), repeat=2):
        mono = ring.cup(ring.basis_element(pn, a.index), ring.basis_element(pn, b.index))
        schub = ring.cup(
            ring.basis_element(gr, gr_index[schubert[a.label]]),
            ring.basis_element(gr, gr_index[schubert[b.label]]),
        )
        assert as_schubert(mono) == ring.element_to_json(schub), (a.label, b.label)
    gr_duals = ring.dual_basis(gr)
    for bc, dual in zip(ring.basis(pn), ring.dual_basis(pn)):
        assert schubert[dual.label] == gr_duals[gr_index[schubert[bc.label]]].label


def power_label(m):
    return "1" if m == 0 else "h" if m == 1 else f"h^{m}"


@pytest.mark.parametrize("n", range(1, 8))
def test_projective_cup_closed_form(n):
    # Independent of the box: h^i h^j = h^(i+j), or 0 past the top degree.
    pn = ring.projective_space(n)
    for i, j in product(range(n + 1), repeat=2):
        got = ring.cup(ring.by_label(pn, power_label(i)), ring.by_label(pn, power_label(j)))
        want = {power_label(i + j): "1"} if i + j <= n else {}
        assert ring.element_to_json(got) == want, (i, j)


def test_integrate():
    p2 = ring.projective_space(2)
    assert ring.integrate(ring.by_label(p2, "h^2")) == 1
    assert ring.integrate(ring.by_label(p2, "h")) == 0
    g = ring.grassmannian(2, 4)
    s2 = ring.by_label(g, "s2")
    assert ring.integrate(ring.cup(s2, s2)) == 1


@pytest.mark.parametrize(
    "space",
    [ring.point_space(), ring.projective_space(1), ring.projective_space(2)]
    + SMALL_GRASSMANNIANS,
)
def test_pairing_nondegenerate_by_degree(space):
    # Build the degree-d x degree-(2 dim - d) pairing matrix and row-reduce.
    bas = ring.basis(space)
    top = 2 * space.complex_dimension
    for d in sorted({b.real_degree for b in bas}):
        rows = [b for b in bas if b.real_degree == d]
        cols = [b for b in bas if b.real_degree == top - d]
        assert len(rows) == len(cols)
        matrix = [
            [
                ring.integrate(
                    ring.cup(
                        ring.basis_element(space, r.index),
                        ring.basis_element(space, c.index),
                    )
                )
                for c in cols
            ]
            for r in rows
        ]
        assert _rank(matrix) == len(rows)


def _rank(matrix):
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "space",
    [ring.point_space(), ring.projective_space(2)]
    + SMALL_GRASSMANNIANS
    + [ring.projective_space(n) for n in (1, 3, 4)],
)
def test_dual_basis_involution(space):
    # The closed-form duals against the full pairing matrix: each basis
    # class pairs to 1 with its dual and to 0 with every other class.
    duals = ring.dual_basis(space)
    bas = ring.basis(space)
    for bc in bas:
        assert duals[duals[bc.index].index].index == bc.index
        for other in bas:
            pairing = ring.integrate(
                ring.cup(
                    ring.basis_element(space, bc.index),
                    ring.basis_element(space, other.index),
                )
            )
            assert pairing == (1 if other.index == duals[bc.index].index else 0)


def test_dual_basis_examples():
    p2 = ring.projective_space(2)
    duals = ring.dual_basis(p2)
    assert [d.label for d in duals] == ["h^2", "h", "1"]
    g = ring.grassmannian(2, 4)
    table = {b.label: d.label for b, d in zip(ring.basis(g), ring.dual_basis(g))}
    assert table["s1"] == "s21"
    assert table["s2"] == "s2"
    assert table["s11"] == "s11"
    pt = ring.point_space()
    assert ring.dual_basis(pt)[0].label == "1"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shriek_projection_formula(n):
    div = ring.hyperplane_divisor(n)
    ambient, z = div.ambient, div.divisor
    for beta_bc in ring.basis(z):
        beta = ring.basis_element(z, beta_bc.index)
        image = ring.shriek_pushforward(div, beta)
        assert image.homogeneous_degree() == beta_bc.real_degree + 2
        for alpha_bc in ring.basis(ambient):
            alpha = ring.basis_element(ambient, alpha_bc.index)
            lhs = ring.integrate(ring.cup(image, alpha))
            rhs = ring.integrate(ring.cup(beta, ring.restrict(div, alpha)))
            assert lhs == rhs


def test_shriek_examples():
    div = ring.hyperplane_divisor(2)
    z = div.divisor
    assert ring.shriek_pushforward(div, ring.unit(z)) == ring.by_label(div.ambient, "h")
    assert ring.shriek_pushforward(div, ring.point_class(z)) == ring.by_label(
        div.ambient, "h^2"
    )
    assert ring.shriek_pushforward(div, ring.zero(z)).is_zero()


def test_restriction_is_ring_map():
    div = ring.hyperplane_divisor(2)
    for a in ring.basis(div.ambient):
        for b in ring.basis(div.ambient):
            ea = ring.basis_element(div.ambient, a.index)
            eb = ring.basis_element(div.ambient, b.index)
            assert ring.restrict(div, ring.cup(ea, eb)) == ring.cup(
                ring.restrict(div, ea), ring.restrict(div, eb)
            )


def test_divisor_pairing_consistency():
    # int_X [Z] cup alpha = int_Z alpha|_Z on complementary degrees.
    div = ring.hyperplane_divisor(2)
    for bc in ring.basis(div.ambient):
        alpha = ring.basis_element(div.ambient, bc.index)
        assert ring.integrate(ring.cup(div.divisor_class, alpha)) == ring.integrate(
            ring.restrict(div, alpha)
        )


def test_element_arithmetic_and_serialisation():
    g = ring.grassmannian(2, 4)
    a = ring.by_label(g, "s2") + Fraction(3, 2) * ring.by_label(g, "s11")
    data = ring.element_to_json(a)
    assert data == {"s2": "1", "s11": "3/2"}
    assert (a - a).is_zero()
    assert a.homogeneous_degree() == 4
    mixed = a + ring.unit(g)
    assert mixed.homogeneous_degree() is None


def test_lr_expansion_symmetric():
    assert ring.lr_expansion((2, 1), (2, 2)) == ring.lr_expansion((2, 2), (2, 1))
    # A classical multiplicity: s_21 * s_21 contains s_321 twice.
    table = dict(ring.lr_expansion((2, 1), (2, 1)))
    assert table[(3, 2, 1)] == 2


def test_lr_expansion_matches_reference_on_every_box_up_to_n6():
    # The reference counts tableaux on every shape containing the first
    # factor; the engine's enumerator yields no shape that misses the
    # second one either.
    assert check_lr_expansion(box_pairs(6)) == 352


def _seeded_4x4_pairs() -> list:
    parts = ring.rectangle_partitions(4, 4)
    return random.Random(4).sample(list(combinations_with_replacement(parts, 2)), 20)


def test_lr_expansion_matches_reference_on_seeded_4x4_pairs():
    assert check_lr_expansion(_seeded_4x4_pairs()) == 20


def test_lr_shapes_are_exactly_those_containing_both_factors(monkeypatch):
    # The floored enumerator against the floorless one filtered by
    # containment, then the shapes lr_expansion hands to the tableau count
    # on every pair with no row or column factor (the others take Pieri's
    # rule and count no tableaux).
    pairs = box_pairs(6) + _seeded_4x4_pairs()
    assert check_shape_enumerator(pairs) == 320 + 20
    seen = []

    def spy(nu, inner, content):
        seen.append(nu)
        return 0

    monkeypatch.setattr(ring, "_count_lr_tableaux", spy)
    counted = [
        (lam, mu) for lam, mu in pairs
        if not (is_row_or_column(lam) or is_row_or_column(mu))
    ]
    assert len(counted) == 165 + 15
    for lam, mu in counted:
        for a, b in ((lam, mu), (mu, lam)):
            seen.clear()
            ring.lr_expansion.__wrapped__(a, b)
            assert seen == lr_shapes(a, b)[1], (a, b)


def test_row_and_column_products_take_pieri_without_a_tableau_search(monkeypatch):
    # Every pair with a row or column factor that fits a box with n <= 7,
    # in both orders, and every cup on P^1..P^6, whose classes are all rows:
    # neither the shape enumerator nor the tableau count runs, and each
    # expansion equals the tableau-counting reference.
    pairs = [
        (lam, mu) for lam, mu in box_pairs(7)
        if is_row_or_column(lam) or is_row_or_column(mu)
    ]
    spaces = [ring.projective_space(n) for n in range(1, 7)]
    for space in spaces:
        ring.basis(space)  # the box enumeration runs before the spies
    calls = []
    monkeypatch.setattr(ring, "_count_lr_tableaux", lambda *args: calls.append(args))
    monkeypatch.setattr(ring, "_partitions_exact", lambda *args: calls.append(args))
    monkeypatch.setattr(ring, "lr_expansion", ring.lr_expansion.__wrapped__)
    got = {
        (a, b): ring.lr_expansion(a, b)
        for lam, mu in pairs
        for a, b in ((lam, mu), (mu, lam))
    }
    cups = {
        (space, i, j): ring.element_to_json(
            ring.cup.__wrapped__(
                ring.basis_element(space, i), ring.basis_element(space, j)
            )
        )
        for space in spaces
        for i, j in product(range(space.box[1] + 1), repeat=2)
    }
    assert calls == []
    monkeypatch.undo()
    assert len(pairs) == 459 and len(cups) == 139
    for (a, b), expansion in got.items():
        assert expansion == lr_expansion_reference(a, b), (a, b)
    for (space, i, j), value in cups.items():
        want = {power_label(i + j): "1"} if i + j <= space.box[1] else {}
        assert value == want, (space, i, j)


@pytest.mark.parametrize("n", range(1, 9))
def test_floorless_enumerator_is_every_partition_of_the_box(n):
    for rows in range(n + 1):
        cols = n - rows
        # Weakly decreasing rows, zeros dropped, by size then lex-descending.
        shapes = {
            tuple(p for p in parts if p)
            for parts in combinations_with_replacement(range(cols, -1, -1), rows)
        }
        expected = sorted(shapes, key=lambda p: (sum(p), [-x for x in p]))
        floorless = [
            p for size in range(rows * cols + 1)
            for p in ring._partitions_exact(size, cols, rows, ())
        ]
        assert floorless == expected
        assert list(ring.rectangle_partitions(rows, cols)) == expected


def test_lr_tableaux_counted_only_on_shapes_containing_both_factors(monkeypatch):
    lam, mu = (4, 3, 3, 2), (4, 4, 3, 3)
    seen = []
    count = ring._count_lr_tableaux

    def spy(nu, inner, content):
        seen.append(nu)
        return count(nu, inner, content)

    monkeypatch.setattr(ring, "_count_lr_tableaux", spy)
    # The uncached expansion, so every tableau count of this product runs.
    monkeypatch.setattr(quantum, "lr_expansion", ring.lr_expansion.__wrapped__)
    # mu contains lam, so each order drops a different half of the check.
    for a, b in ((lam, mu), (mu, lam)):
        seen.clear()
        quantum.rim_hook_product(a, b, ring.grassmannian(4, 8))
        assert all(contains(nu, lam) and contains(nu, mu) for nu in seen)
        # 428 shapes contain lam; the 65 of them that miss mu are never counted.
        assert len(seen) == 363
    assert len(ring.lr_expansion(lam, mu)) == 275


def test_lr_tableau_count_leaves_no_cycle_for_the_collector():
    # Each count must be freed by reference counting alone: with the
    # collector off, repeated calls leave nothing for gc.collect().
    gc.collect()
    gc.disable()
    try:
        counts = [ring._count_lr_tableaux((3, 2, 1), (2, 1), (2, 1)) for _ in range(10)]
        # A row and a column product, through the strip enumerator.
        rows = [ring.lr_expansion.__wrapped__((2, 1), (2,)) for _ in range(10)]
        columns = [ring.lr_expansion.__wrapped__((2, 1), (1, 1)) for _ in range(10)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert counts == [2] * 10
    # s21 s2 = s41 + s32 + s311 + s221 and s21 s11 = s32 + s311 + s221 + s2111.
    assert rows == [(((2, 2, 1), 1), ((3, 1, 1), 1), ((3, 2), 1), ((4, 1), 1))] * 10
    assert columns == [
        (((2, 1, 1, 1), 1), ((2, 2, 1), 1), ((3, 1, 1), 1), ((3, 2), 1))
    ] * 10
