"""Ring tests: bases, cup products against an independent Pieri oracle,
pairing nondegeneracy, and the transfer map's projection formula."""

import gc
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from gwcalc import ring


def pieri_multiply(space, parts, r):
    """Independent oracle: multiply a Schubert class by the r-th special
    class, adding horizontal strips of size r inside the rectangle."""
    k, n = space.params
    cols = n - k
    padded = list(parts) + [0] * (k - len(parts))
    results = []

    def grow(row, remaining, acc):
        if row == k:
            if remaining == 0:
                results.append(tuple(p for p in acc if p))
            return
        cap = cols if row == 0 else acc[row - 1]
        floor = padded[row]
        upper = padded[row - 1] if row > 0 else cols
        for new in range(floor, min(cap, upper) + 1):
            if new - floor <= remaining:
                grow(row + 1, remaining - (new - floor), acc + [new])

    grow(0, r, [])
    out = ring.zero(space)
    for nu in results:
        out = out + ring.basis_element(space, ring.partition_index(space, nu))
    return out


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


@pytest.mark.parametrize("space", SMALL_GRASSMANNIANS)
def test_cup_matches_pieri_oracle(space):
    k, n = space.params
    for bc in ring.basis(space):
        lam = ring.basis_partition(space, bc.index)
        for r in range(1, n - k + 1):
            via_cup = ring.cup(
                ring.basis_element(space, bc.index),
                ring.basis_element(space, ring.partition_index(space, (r,))),
            )
            assert via_cup == pieri_multiply(space, lam, r), (lam, r)


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
    assert ring.element_from_json(g, data) == a
    assert (a - a).is_zero()
    assert a.homogeneous_degree() == 4
    mixed = a + ring.unit(g)
    assert mixed.homogeneous_degree() is None


def test_lr_expansion_symmetric():
    assert ring.lr_expansion((2, 1), (2, 2)) == ring.lr_expansion((2, 2), (2, 1))
    # A classical multiplicity: s_21 * s_21 contains s_321 twice.
    table = dict(ring.lr_expansion((2, 1), (2, 1)))
    assert table[(3, 2, 1)] == 2


def test_lr_tableau_count_leaves_no_cycle_for_the_collector():
    # Each count must be freed by reference counting alone: with the
    # collector off, repeated calls leave nothing for gc.collect().
    gc.collect()
    gc.disable()
    try:
        counts = [ring._count_lr_tableaux((3, 2, 1), (2, 1), (2, 1)) for _ in range(10)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert counts == [2] * 10
