"""Independent oracles for the Schubert layer, checked on every box with
n <= 7 (n = rows + cols):

- quantum Pieri and Giambelli, an LR-free product of any two classes,
  against every product ``rim_hook_product`` and ``cup`` give;
- the duality Gr(k,n) = Gr(n-k,n);
- the Seidel classes.

None shares code with the Littlewood-Richardson expansion, the rim-hook
reduction or the cup product.  Pieri-Giambelli builds each product from
special classes alone.  Duality swaps rows for columns, so a row bound that
is off by one shows as a mismatch.  Each Seidel class sends a Schubert class
to a single q^e times a Schubert class, which pins signs and q-degrees.

For a pair with a row or column factor the engine's expansion is Pieri's
rule as well (on the conjugates for a column), so on those pairs the oracle
and the engine share the rule, though not the code: the oracle's ``pieri``
reads the strips in the box through its own ``between``, the engine's grow
the unbounded shape.  The tableau-counting reference in ``tests/helpers.py``
stays their independent check there (``tests/test_ring.py``).
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

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


# ---------------------------------------------------------------------------
# Quantum Pieri and Giambelli (Bertram, Adv. Math. 128 (1997); Buch,
# Compositio 137 (2003)).  Products are {(q power, partition): coefficient}.


def between(lower, upper, total):
    """Every tuple nu with lower[i] <= nu[i] <= upper[i] and sum total."""
    if not lower:
        if total == 0:
            yield ()
        return
    for v in range(lower[0], min(upper[0], total) + 1):
        for rest in between(lower[1:], upper[1:], total - v):
            yield (v,) + rest


def pieri(p, lam, rows, cols):
    """sigma_p * sigma_lam.  Classical terms: the horizontal p-strips on lam
    that stay in the box.  q-terms: nu with lam_i - 1 >= nu_i >= lam_{i+1} - 1
    and |nu| = |lam| + p - n."""
    padded = list(lam) + [0] * (rows - len(lam))
    size = sum(lam) + p
    classical = between(padded, [cols] + padded[:-1], size)
    quantum = between(
        [max(x - 1, 0) for x in padded[1:] + [0]], [x - 1 for x in padded], size - rows - cols
    )
    return [(0, nu) for nu in classical] + [(1, nu) for nu in quantum]


@lru_cache(maxsize=None)
def specials_times(specials, mu, rows, cols):
    """sigma_{a_1} * ... * sigma_{a_r} * sigma_mu for a sorted tuple of a_i,
    which is all the memo keys on, since special classes commute."""
    if not specials:
        return {(0, mu): 1}
    out = Counter()
    for (e, nu), c in specials_times(specials[1:], mu, rows, cols).items():
        for f, rho in pieri(specials[0], nu, rows, cols):
            out[e + f, tuple(x for x in rho if x)] += c
    return {key: c for key, c in out.items() if c}


def pieri_giambelli_product(lam, mu, rows, cols):
    """sigma_lam * sigma_mu, with sigma_lam = det(sigma_{lam_i + j - i}) and
    sigma_0 = 1, sigma_m = 0 for m < 0 or m > cols."""
    out = Counter()
    for perm in permutations(range(len(lam))):
        entries = [lam[i] + perm[i] - i for i in range(len(lam))]
        if any(a < 0 or a > cols for a in entries):
            continue
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        specials = tuple(sorted(a for a in entries if a))
        for key, c in specials_times(specials, mu, rows, cols).items():
            out[key] += (-1) ** inversions * c
    return {key: c for key, c in out.items() if c}


def cup_by_shape(space, lam, mu):
    product = ring.cup(
        ring.basis_element(space, ring.partition_index(space, lam)),
        ring.basis_element(space, ring.partition_index(space, mu)),
    )
    return {ring.basis_partition(space, i): c for i, c in product.coeffs}


def assert_products_agree(space, rows, cols, pairs):
    for lam, mu in pairs:
        want = pieri_giambelli_product(lam, mu, rows, cols)
        assert product_by_shape(space, lam, mu) == want, (space, lam, mu)
        classical = {nu: c for (e, nu), c in want.items() if e == 0}
        assert cup_by_shape(space, lam, mu) == classical, (space, lam, mu)


@pytest.mark.parametrize("space, rows, cols", BOXES, ids=[str(b[0]) for b in BOXES])
def test_pieri_giambelli_gives_every_product(space, rows, cols):
    shapes = ring.rectangle_partitions(rows, cols)
    assert_products_agree(space, rows, cols, combinations_with_replacement(shapes, 2))


def test_pieri_giambelli_on_sampled_gr_4_8_pairs():
    pairs = list(combinations_with_replacement(ring.rectangle_partitions(4, 4), 2))
    sample = random.Random(48).sample(pairs, 150)
    assert_products_agree(ring.grassmannian(4, 8), 4, 4, sample)


def test_pieri_giambelli_examples():
    # Classical Pieri on Gr(2,4), and the q-term of sigma_1 * sigma_21.
    assert pieri_giambelli_product((1,), (1,), 2, 2) == {(0, (2,)): 1, (0, (1, 1)): 1}
    assert pieri_giambelli_product((1,), (2, 1), 2, 2) == {(0, (2, 2)): 1, (1, ()): 1}
    # s21 * s21 on Gr(3,6): a coefficient 2, and the determinant's signed
    # terms leave one q.
    assert pieri_giambelli_product((2, 1), (2, 1), 3, 3) == {
        (0, (3, 3)): 1, (0, (3, 2, 1)): 2, (0, (2, 2, 2)): 1, (1, ()): 1,
    }


# ---------------------------------------------------------------------------
# Duality and the Seidel classes.


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
