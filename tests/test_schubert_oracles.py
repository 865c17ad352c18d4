"""Independent oracles for the Schubert layer: the duality Gr(k,n) = Gr(n-k,n)
and the Seidel classes, checked on every box with n <= 7 (n = rows + cols).

Neither shares code with the Littlewood-Richardson expansion or the rim-hook
reduction: duality swaps rows for columns, so a row bound that is off by one
shows as a mismatch, and each Seidel class sends a Schubert class to a
single q^e times a Schubert class, which pins signs and q-degrees.
"""

import pytest

from gwcalc import ring
from gwcalc.quantum import rim_hook_product

MAX_N = 7

# Every box as (space, rows, cols), written out here rather than read from
# the space: P^m is 1 x m and Gr(k, n) is k x (n-k).
BOXES = [(ring.projective_space(m), 1, m) for m in range(1, MAX_N)] + [
    (ring.grassmannian(k, n), k, n - k) for n in range(2, MAX_N + 1) for k in range(1, n)
]


def conjugate(parts):
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0] if parts else 0))


def product_by_shape(space, lam, mu):
    """rim_hook_product as {(q power, partition): coefficient}."""
    return {
        (e, ring.basis_partition(space, i)): c
        for e, elem in rim_hook_product(lam, mu, space).terms
        for i, c in elem.coeffs
    }


@pytest.mark.parametrize("n", range(2, MAX_N + 1))
def test_duality_conjugates_every_quantum_product(n):
    # Gr(k,n) = Gr(n-k,n) sends s_lam to s_lam' (the conjugate) and keeps q
    # (Fulton, Young Tableaux, section 9.4): every ordered product agrees.
    for k in range(1, n // 2 + 1):
        space, dual = ring.grassmannian(k, n), ring.grassmannian(n - k, n)
        shapes = ring.rectangle_partitions(k, n - k)
        for lam in shapes:
            for mu in shapes:
                left = product_by_shape(space, lam, mu)
                right = product_by_shape(dual, conjugate(lam), conjugate(mu))
                assert {(e, conjugate(nu)): c for (e, nu), c in left.items()} == right, (
                    space, lam, mu,
                )


def subset(parts, rows):
    """The partition as the rows-subset {parts[i] + rows - 1 - i} of 0..n-1."""
    padded = list(parts) + [0] * (rows - len(parts))
    return {p + rows - 1 - i for i, p in enumerate(padded)}


def from_subset(values, rows):
    ordered = sorted(values, reverse=True)
    return tuple(p for p in (s - (rows - 1 - i) for i, s in enumerate(ordered)) if p)


@pytest.mark.parametrize("space, rows, cols", BOXES, ids=[str(b[0]) for b in BOXES])
def test_seidel_classes_rotate_every_class(space, rows, cols):
    # The full column s_(1^rows) shifts the subset of a class by +1 mod n
    # and the full row s_(cols) by -1 mod n; a value that wraps round costs
    # one q (Seidel, GAFA 7 (1997); Postnikov, Duke Math. J. 128 (2005)).
    n = rows + cols
    column, row = (1,) * rows, (cols,)
    for lam in ring.rectangle_partitions(rows, cols):
        values = subset(lam, rows)
        up = from_subset({(v + 1) % n for v in values}, rows)
        down = from_subset({(v - 1) % n for v in values}, rows)
        assert product_by_shape(space, column, lam) == {(int(n - 1 in values), up): 1}, lam
        assert product_by_shape(space, row, lam) == {(int(0 not in values), down): 1}, lam
