"""Weighted partitions: size and lexicographic comparisons, automorphism
counts, the gluing factor, the order on keys, and what that order says about
the comparison lattice's coarsenings."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from gwcalc import degeneration, ring
from gwcalc.partitions import (
    InvariantKey,
    Ordering,
    WeightedPair,
    aut_order,
    deg,
    delta_factor,
    empty_partition,
    key_compare,
    lex_compare,
    order_key,
    parse_partition,
    partition_to_text,
    size_compare,
    total_weight,
    weighted_partition,
)

from helpers import pairs_of

P1 = ring.projective_space(1)
P2 = ring.projective_space(2)
ONE = ring.unit(P1)
PT = ring.point_class(P1)


def pair(m, w):
    return WeightedPair(m, w)


def test_size_compare_examples():
    assert size_compare(pair(2, ONE), pair(1, PT)) is Ordering.GREATER
    assert size_compare(pair(1, PT), pair(1, ONE)) is Ordering.GREATER
    assert size_compare(pair(1, PT), pair(1, PT)) is Ordering.EQUAL


def test_size_compare_sees_only_degree():
    h = ring.by_label(P2, "h")
    other = 2 * h
    assert size_compare(WeightedPair(1, h), WeightedPair(1, other)) is Ordering.EQUAL


def test_weighted_pair_validation():
    with pytest.raises(ValueError):
        WeightedPair(0, PT)
    with pytest.raises(ValueError):
        WeightedPair(1, ring.zero(P1))
    with pytest.raises(ValueError):
        WeightedPair(1, ONE + PT)


def test_lex_compare_examples():
    mu = pairs_of(P1, [(2, ONE)])
    nu = pairs_of(P1, [(1, PT), (1, ONE)])
    assert lex_compare(mu, nu) is Ordering.GREATER
    a = pairs_of(P1, [(1, PT), (1, ONE)])
    b = pairs_of(P1, [(1, ONE), (1, PT)])
    assert a == b
    assert lex_compare(a, b) is Ordering.EQUAL
    h = ring.by_label(P2, "h")
    longer = pairs_of(P2, [(1, h), (1, h)])
    shorter = pairs_of(P2, [(1, h)])
    assert lex_compare(longer, shorter) is Ordering.GREATER
    assert lex_compare(shorter, longer) is Ordering.LESS


def test_deg_examples():
    assert deg(pairs_of(P1, [(1, PT), (1, ONE)])) == 2
    assert deg(empty_partition(P1)) == 0
    h = ring.by_label(P2, "h")
    h2 = ring.by_label(P2, "h^2")
    assert deg(pairs_of(P2, [(2, h), (1, h2)])) == 6


def test_aut_and_delta_examples():
    two_pts = pairs_of(P1, [(1, PT), (1, PT)])
    assert aut_order(two_pts) == 2
    assert delta_factor(two_pts) == 2
    single = pairs_of(P1, [(2, ONE)])
    assert aut_order(single) == 1
    assert delta_factor(single) == 2
    distinct = pairs_of(P1, [(1, ONE), (1, PT)])
    assert aut_order(distinct) == 1
    assert delta_factor(distinct) == 1
    # c equal pairs have c! automorphisms, not c: the two differ from c = 3.
    three_pts = pairs_of(P1, [(1, PT)] * 3)
    assert aut_order(three_pts) == 6
    assert delta_factor(three_pts) == 6
    mixed = pairs_of(P1, [(1, PT)] * 3 + [(2, ONE)] * 2)
    assert aut_order(mixed) == 12
    assert delta_factor(mixed) == 48


def test_total_weight():
    assert total_weight(pairs_of(P1, [(2, ONE), (1, PT)])) == 3
    assert total_weight(empty_partition(P1)) == 0


def test_key_compare_clauses():
    mu = pairs_of(P1, [(2, ONE)])
    lo = InvariantKey(1, (), mu)
    hi = InvariantKey(2, (), mu)
    assert key_compare(lo, hi) is Ordering.LESS
    assert key_compare(hi, lo) is Ordering.GREATER

    fewer = InvariantKey(1, (PT,), mu)
    more = InvariantKey(1, (PT, PT), mu)
    assert key_compare(fewer, more) is Ordering.LESS

    # Larger partition degree means a smaller key.
    heavy = InvariantKey(1, (), pairs_of(P1, [(1, PT), (1, ONE)]))
    light = InvariantKey(1, (), pairs_of(P1, [(2, ONE)]))
    assert key_compare(heavy, light) is Ordering.LESS
    assert key_compare(light, heavy) is Ordering.GREATER


def test_key_compare_lex_tiebreak():
    # Same degree sum: {(2,1)} vs {(1,1),(1,1)}; the lex-greater one is smaller.
    a = InvariantKey(1, (), pairs_of(P1, [(2, ONE)]))
    b = InvariantKey(1, (), pairs_of(P1, [(1, ONE), (1, ONE)]))
    assert key_compare(a, b) is Ordering.LESS
    assert key_compare(b, a) is Ordering.GREATER


def all_partitions_up_to(space, max_weight):
    """Every weighted partition over the basis with total weight <= bound."""
    pool = [
        ring.basis_element(space, bc.index) for bc in ring.basis(space)
    ]
    acc = [[]]
    out = []

    def grow(current, remaining, start_m):
        out.append(weighted_partition(space, [WeightedPair(m, w) for m, w in current]))
        for m in range(1, remaining + 1):
            for w in pool:
                current.append((m, w))
                grow(current, remaining - m, m)
                current.pop()

    grow([], max_weight, 1)
    seen = set()
    unique = []
    for mu in out:
        if mu not in seen:
            seen.add(mu)
            unique.append(mu)
    return unique


def test_partial_order_axioms_small():
    partitions_pool = all_partitions_up_to(P1, 2)
    keys = [
        InvariantKey(d, (PT,) * c, mu)
        for d in (0, 1)
        for c in (0, 1)
        for mu in partitions_pool
    ]
    less = set()
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            cmp = key_compare(a, b)
            if i == j:
                assert cmp is Ordering.EQUAL
            if cmp is Ordering.LESS:
                less.add((i, j))
                assert key_compare(b, a) is Ordering.GREATER
    successors = {}
    for i, j in less:
        successors.setdefault(j, []).append(i)
    # Transitivity: a < b and b < c implies a < c.
    for b, c in less:
        for a in successors.get(b, ()):
            assert (a, c) in less


def _reference_size(p, q):
    if p.multiplicity != q.multiplicity:
        return Ordering.GREATER if p.multiplicity > q.multiplicity else Ordering.LESS
    dp, dq = p.weight.homogeneous_degree(), q.weight.homogeneous_degree()
    if dp != dq:
        return Ordering.GREATER if dp > dq else Ordering.LESS
    return Ordering.EQUAL


def _reference_lex(mu, nu):
    for p, q in zip(mu.pairs, nu.pairs):
        cmp = _reference_size(p, q)
        if cmp is not Ordering.EQUAL:
            return cmp
    if len(mu.pairs) != len(nu.pairs):
        return Ordering.GREATER if len(mu.pairs) > len(nu.pairs) else Ordering.LESS
    return Ordering.EQUAL


def _reference_key(a, b):
    """The order on keys, one clause at a time."""
    if a.degree != b.degree:
        return Ordering.LESS if a.degree < b.degree else Ordering.GREATER
    na, nb = len(a.insertions), len(b.insertions)
    if na != nb:
        return Ordering.LESS if na < nb else Ordering.GREATER
    da, db = deg(a.partition), deg(b.partition)
    if da != db:
        return Ordering.LESS if da > db else Ordering.GREATER
    flipped = {Ordering.LESS: Ordering.GREATER, Ordering.GREATER: Ordering.LESS}
    lex = _reference_lex(a.partition, b.partition)
    return flipped.get(lex, Ordering.EQUAL)


@pytest.mark.parametrize("space", [P1, P2], ids=["P1", "P2"])
def test_order_matches_clause_by_clause_reference(space):
    # The pools hold partitions of equal degree where one extends the other,
    # such as (1,1) and (1,1)+(1,1): only order_key's closing (0, 0) orders them.
    pool = all_partitions_up_to(space, 3)
    sizes = {p for mu in pool for p in mu.pairs}
    for p in sizes:
        for q in sizes:
            assert size_compare(p, q) is _reference_size(p, q), (p, q)
    for mu in pool:
        for nu in pool:
            assert lex_compare(mu, nu) is _reference_lex(mu, nu), (mu, nu)
    point = ring.point_class(space)
    keys = [
        InvariantKey(d, (point,) * c, mu) for d in (0, 1) for c in (0, 1) for mu in pool
    ]
    for a in keys:
        for b in keys:
            assert key_compare(a, b) is _reference_key(a, b), (a, b)


@pytest.mark.parametrize(
    "n, distinct, same",
    [(1, 0, 180), (2, 0, 410), (3, 156, 794), (4, 573, 1280)],
    ids=["p1-pt", "p2-line", "p2-in-p3", "p3-in-p4"],
)
def test_order_on_the_comparison_lattice(n, distinct, same):
    # P^(n-1) in P^n at degrees 1-3, with 1-5 transfers drawn with
    # repetition from the basis of Z.  A strict coarsening in the walk
    # whose weighted partition differs is strictly smaller in the paper's
    # order; but most coarsenings share their partition, so the solver's
    # unknowns, one per set partition, are finer than the order's keys.
    z = ring.hyperplane_divisor(n).divisor
    classes = [ring.basis_element(z, bc.index) for bc in ring.basis(z)]
    counts = {"distinct": 0, "same": 0}
    for degree in range(1, 4):
        for size in range(1, 6):
            for betas in combinations_with_replacement(classes, size):
                walk = list(degeneration._comparison_lattice(z, betas, degree))
                mu_of = {masks: mu for _, masks, _, mu in walk}
                for _, masks, _, mu in walk:
                    for count in range(1, len(masks)):
                        for groups in degeneration._index_partitions(len(masks), count):
                            coarser = tuple(sum(masks[g] for g in group) for group in groups)
                            nu = mu_of.get(coarser)
                            if nu is None:
                                continue  # a vanishing block product: not in the walk
                            if nu == mu:
                                counts["same"] += 1
                            else:
                                counts["distinct"] += 1
                                fine = order_key(InvariantKey(degree, (), mu))
                                assert order_key(InvariantKey(degree, (), nu)) < fine
    assert counts == {"distinct": distinct, "same": same}


def test_comparisons_refuse_mixed_spaces():
    mu = pairs_of(P1, [(1, ONE)])
    nu = pairs_of(P2, [(1, ring.unit(P2))])
    with pytest.raises(ValueError, match="partitions over different spaces"):
        lex_compare(mu, nu)
    with pytest.raises(ValueError, match="keys over different divisor spaces"):
        key_compare(InvariantKey(1, (), mu), InvariantKey(1, (), nu))


@st.composite
def partitions_strategy(draw):
    space = draw(st.sampled_from([P1, P2]))
    pool = [ring.basis_element(space, bc.index) for bc in ring.basis(space)]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.sampled_from(pool)), min_size=0, max_size=4
        )
    )
    return weighted_partition(space, [WeightedPair(m, w) for m, w in pairs])


@given(partitions_strategy())
def test_canonical_sort_idempotent(mu):
    assert weighted_partition(mu.space, mu.pairs) == mu
    assert delta_factor(mu) >= 1


@given(partitions_strategy(), partitions_strategy())
def test_lex_antisymmetric_preorder(mu, nu):
    if mu.space != nu.space:
        return
    a = lex_compare(mu, nu)
    b = lex_compare(nu, mu)
    flipped = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
    }
    assert b is flipped[a]


@given(partitions_strategy(), partitions_strategy(), partitions_strategy())
def test_lex_transitive(a, b, c):
    if not (a.space == b.space == c.space):
        return
    if lex_compare(a, b) is Ordering.LESS and lex_compare(b, c) is Ordering.LESS:
        assert lex_compare(a, c) is Ordering.LESS


def test_delta_of_distinct_unit_pairs_is_one():
    h = ring.by_label(P2, "h")
    h2 = ring.by_label(P2, "h^2")
    one = ring.unit(P2)
    mu = pairs_of(P2, [(1, one), (1, h), (1, h2)])
    assert delta_factor(mu) == 1


def test_parse_and_serialise():
    mu = parse_partition(P1, "(2,1)+(1,pt)")
    assert total_weight(mu) == 3
    assert partition_to_text(mu) == "(2,1)+(1,h)"
    assert parse_partition(P1, "") == empty_partition(P1)
    with pytest.raises(ValueError):
        parse_partition(P1, "2,1")
