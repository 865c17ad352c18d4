"""Cohomology-weighted partitions and the order on relative data.

A weighted partition is a multiset of (multiplicity, class) pairs over a
divisor's cohomology; it records tangency orders together with the classes
constraining the contact points.  This module supplies the size and
lexicographic comparisons, automorphism counts, the gluing factor, and the
paper's order on invariant keys as one sort key; no computation in the
package reads that order, and the tests check it directly.

The constructors hand out one shared object per value, as ``ring.element``
does: ``weighted_pair`` keeps one pair per (multiplicity, weight) and
``weighted_partition`` one partition per (space, canonically sorted shared
pairs).  Weights are shared ring elements, so each key is found by identity,
and the lattice solver's table of partitions is read by identity too.  A
value is validated when it is first built; a refused one is never stored,
so it is refused again on every call.  Equality, hashing, repr and pickling
stay field-wise, so a pair or partition built around the constructors
still compares equal.
"""

from __future__ import annotations

import enum
from math import factorial, prod

from .ring import RingElement, Space, basis, by_label, parse_integer
from .value import Value


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _compare(a, b) -> Ordering:
    return Ordering((a > b) - (a < b))


class WeightedPair(Value):
    """A tangency multiplicity together with its cohomology weight.

    The weight's real degree, found while validating, is kept in a slot
    outside the fields: equality, hash, repr and pickling see only
    (multiplicity, weight).
    """

    __slots__ = ("multiplicity", "weight", "weight_degree")
    multiplicity: int
    weight: RingElement

    def __init__(self, multiplicity: int, weight: RingElement):
        if multiplicity < 1:
            raise ValueError("tangency multiplicity must be positive")
        if weight.is_zero():
            raise ValueError("weight class must be nonzero")
        degree = weight.homogeneous_degree()
        if degree is None:
            raise ValueError("weight class must be homogeneous")
        super().__init__(multiplicity, weight)
        _put_degree(self, degree)


_put_degree = WeightedPair.weight_degree.__set__


# The shared pair of each (multiplicity, weight); like ring's element table,
# it lives as long as the process.
_pairs: dict[tuple, WeightedPair] = {}


def weighted_pair(multiplicity: int, weight: RingElement) -> WeightedPair:
    """The one shared pair of this multiplicity and weight."""
    key = (multiplicity, weight)
    found = _pairs.get(key)
    if found is None:
        found = _pairs.setdefault(key, WeightedPair(multiplicity, weight))
    return found


def _size(pair: WeightedPair) -> tuple[int, int]:
    return (pair.multiplicity, pair.weight_degree)


def size_compare(p: WeightedPair, q: WeightedPair) -> Ordering:
    """Order pairs by multiplicity, then by weight degree.

    Distinct classes of equal degree compare EQUAL in size; the comparison
    deliberately sees only (m, deg).
    """
    return _compare(_size(p), _size(q))


def _canonical_key(pair: WeightedPair) -> tuple:
    # Sorting key: decreasing size first, then a stable textual tiebreak so
    # equal multisets always produce identical tuples.
    return (
        -pair.multiplicity,
        -pair.weight_degree,
        tuple(pair.weight.coeffs),
    )


class WeightedPartition(Value):
    """Canonically sorted multiset of weighted pairs over a divisor space."""

    space: Space
    pairs: tuple[WeightedPair, ...]


# The shared partition of each (space, canonically sorted shared pairs).
_partitions: dict[tuple, WeightedPartition] = {}


def weighted_partition(space: Space, pairs) -> WeightedPartition:
    """The one shared partition of these pairs, in any order, over space."""
    pairs = tuple(sorted(pairs, key=_canonical_key))
    found = _partitions.get((space, pairs))
    if found is None:
        for p in pairs:
            if p.weight.space != space:
                raise ValueError("weight lives on the wrong space")
        # Stored under the shared pairs, so pairs built around weighted_pair
        # never end up in a key that later lookups compare field by field.
        pairs = tuple(weighted_pair(p.multiplicity, p.weight) for p in pairs)
        found = _partitions.setdefault(
            (space, pairs), WeightedPartition(space, pairs)
        )
    return found


def total_weight(mu: WeightedPartition) -> int:
    return sum(p.multiplicity for p in mu.pairs)


def deg(mu: WeightedPartition) -> int:
    """Sum of the real degrees of the weights."""
    return sum(p.weight_degree for p in mu.pairs)


def aut_order(mu: WeightedPartition) -> int:
    """Order of the symmetry group of the weighted multiset."""
    counts: dict[tuple, int] = {}
    for p in mu.pairs:
        key = (p.multiplicity, p.weight.coeffs)
        counts[key] = counts.get(key, 0) + 1
    return prod(factorial(c) for c in counts.values())


def delta_factor(mu: WeightedPartition) -> int:
    """Gluing multiplicity: product of tangencies times the weighted
    automorphism count."""
    return prod(p.multiplicity for p in mu.pairs) * aut_order(mu)


def lex_compare(mu: WeightedPartition, nu: WeightedPartition) -> Ordering:
    """Lexicographic comparison of size-sorted partitions.

    The first position where the sizes differ decides; if one partition
    runs out while the other still has pairs, the longer one is GREATER.
    Note this is a total preorder: partitions can compare EQUAL without
    being equal, because size ignores the actual weight classes.
    """
    if mu.space != nu.space:
        raise ValueError("partitions over different spaces")
    return _compare([_size(p) for p in mu.pairs], [_size(p) for p in nu.pairs])


class InvariantKey(Value):
    """Index of a relative invariant: curve degree, absolute insertions,
    and the weighted partition of tangency conditions (genus zero)."""

    degree: int
    insertions: tuple[RingElement, ...]
    partition: WeightedPartition


def order_key(key: InvariantKey) -> tuple:
    """Sort key of the order on invariant keys.

    A key is smaller when its curve degree is smaller; ties are broken by
    fewer absolute insertions, then by *larger* partition degree, then by
    *lexicographically greater* partition.  Negating each size reverses
    the lexicographic clause; the closing (0, 0) sorts above every negated
    size, so a partition that extends another sorts first.  With rank-one
    curve classes and genus zero this is a total preorder.
    """
    mu = key.partition
    reversed_lex = tuple((-m, -d) for m, d in map(_size, mu.pairs)) + ((0, 0),)
    return (key.degree, len(key.insertions), -deg(mu), reversed_lex)


def key_compare(a: InvariantKey, b: InvariantKey) -> Ordering:
    """Compare invariant keys by ``order_key``."""
    if a.partition.space != b.partition.space:
        raise ValueError("keys over different divisor spaces")
    return _compare(order_key(a), order_key(b))


# ---------------------------------------------------------------------------
# Text and JSON forms: "(2,1)+(1,pt)" and [{"m": 2, "label": "1"}, ...].


def weight_label(w: RingElement) -> str:
    bas = basis(w.space)
    bits = []
    for i, c in w.coeffs:
        bits.append(bas[i].label if c == 1 else f"{c}*{bas[i].label}")
    return "+".join(bits) if bits else "0"


def parse_partition(space: Space, text: str) -> WeightedPartition:
    text = text.strip()
    if text in ("", "empty", "()"):
        return weighted_partition(space, ())
    pairs = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m_text, comma, label = chunk[1:-1].partition(",")
        if not (chunk.startswith("(") and chunk.endswith(")") and comma):
            raise ValueError(f"bad partition chunk {chunk!r}")
        try:
            m = parse_integer(m_text)
        except ValueError:
            raise ValueError(f"bad multiplicity {m_text!r} in {chunk!r}") from None
        pairs.append(weighted_pair(m, by_label(space, label.strip())))
    return weighted_partition(space, pairs)


def partition_to_text(mu: WeightedPartition) -> str:
    if not mu.pairs:
        return "empty"
    return "+".join(f"({p.multiplicity},{weight_label(p.weight)})" for p in mu.pairs)


def empty_partition(space: Space) -> WeightedPartition:
    return weighted_partition(space, ())
