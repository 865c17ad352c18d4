"""Constructors the tests share and the engine itself never calls: the quantum
product extended to q-polynomials, weighted partitions from plain tuples,
the zero section of P(L + O) as a divisor known only by its normal bundle,
the comparison walk's entries as a list, and the Littlewood-Richardson
expansion with only the inner-shape filter, as a reference for the engine's
(checked on every box with n <= 6 in the suite, n <= 8 in CI)."""

from itertools import combinations_with_replacement

from gwcalc import degeneration, ring
from gwcalc.partitions import WeightedPartition, weighted_pair, weighted_partition
from gwcalc.quantum import QuantumClass, quantum_class, rim_hook_product
from gwcalc.relative import BundleSpec
from gwcalc.ring import (
    POINT,
    DivisorDescriptor,
    RingElement,
    Space,
    basis_partition,
    generator_class,
    zero,
)


def quantum_lift(a: RingElement) -> QuantumClass:
    return quantum_class(a.space, {0: a})


def star(x: QuantumClass, y: QuantumClass) -> QuantumClass:
    """Bilinear extension of the quantum product to q-polynomials."""
    if x.space != y.space:
        raise ValueError("space mismatch")
    space = x.space
    acc: dict[int, RingElement] = {}
    for e1, a in x.terms:
        for i, ca in a.coeffs:
            la = basis_partition(space, i)
            for e2, b in y.terms:
                for j, cb in b.coeffs:
                    lb = basis_partition(space, j)
                    for e3, elem in rim_hook_product(la, lb, space).terms:
                        key = e1 + e2 + e3
                        bump = (ca * cb) * elem
                        acc[key] = acc.get(key, zero(space)) + bump
    return quantum_class(space, acc)


def pairs_of(space: Space, data) -> WeightedPartition:
    """Build a partition from (multiplicity, element) tuples."""
    return weighted_partition(space, (weighted_pair(m, w) for m, w in data))


def zero_section_divisor(bundle: BundleSpec) -> DivisorDescriptor:
    """The zero section of P(L + O) as a divisor known only through its
    normal bundle (no ambient cohomology model)."""
    base = bundle.base
    if base.kind == POINT:
        normal = zero(base)
    else:
        normal = bundle.c1_l * generator_class(base)
    return DivisorDescriptor(
        ambient=None,
        divisor=base,
        restriction=None,
        transfer=None,
        divisor_class=None,
        normal_c1=normal,
    )


def comparison_partitions(z_space: Space, betas, weight: int) -> list:
    """Weighted partitions appearing in the comparison identity, as
    (mu, blocks) pairs in the order of the engine's lattice walk.

    One entry per set partition of the insertion indices into at most
    ``weight`` blocks: each block contributes a transverse pair weighted by
    the cup product of its classes, and the remaining tangency is filled
    with unit-weighted pairs.  Partitions with a vanishing block product are
    dropped.  Entries repeat when distinct set partitions produce equal
    weighted partitions; the multiplicity is part of the identity.
    """
    return [
        (mu, blocks)
        for blocks, _, _, mu in degeneration._comparison_lattice(
            z_space, tuple(betas), weight
        )
    ]


def lr_expansion_reference(lam, mu):
    """The Littlewood-Richardson expansion with only the lam-in-nu filter:
    a tableau count on every shape of the right size that contains lam."""
    lam, mu = tuple(lam), tuple(mu)
    if not mu:
        return ((lam, 1),)
    if not lam:
        return ((mu, 1),)
    out = []
    for nu in ring._partitions_exact(
        sum(lam) + sum(mu), lam[0] + mu[0], len(lam) + len(mu)
    ):
        if not ring._contains(nu, lam):
            continue
        c = ring._count_lr_tableaux(nu, lam, mu)
        if c:
            out.append((nu, c))
    return tuple(sorted(out))


def box_pairs(max_n: int) -> list:
    """Every unordered pair of partitions that fit together in a rows x cols
    box with rows + cols <= max_n, each pair once, sorted."""
    pairs = set()
    for n in range(2, max_n + 1):
        for rows in range(1, n):
            parts = ring.rectangle_partitions(rows, n - rows)
            pairs.update(combinations_with_replacement(parts, 2))
    return sorted(pairs)


def check_lr_expansion(pairs) -> int:
    """Assert that ring.lr_expansion equals the reference on each pair, in
    both argument orders; returns the number of pairs checked."""
    for lam, mu in pairs:
        for a, b in ((lam, mu), (mu, lam)):
            if ring.lr_expansion(a, b) != lr_expansion_reference(a, b):
                raise AssertionError(f"lr_expansion{(a, b)} differs from the reference")
    return len(pairs)
