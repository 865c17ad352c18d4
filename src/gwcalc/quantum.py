"""Absolute genus-zero Gromov-Witten oracle for the testbed spaces.

The oracle is deliberately partial: it evaluates exactly the queries it can
reduce by the dimension rule, the fundamental-class and divisor axioms, the
plane-curve recursion for P^2, and three-point quantum structure constants
by the rim-hook rule in the box of the space (Bertram, Ciocan-Fontanine and
Fulton, J. Algebra 219 (1999)).  Anything else raises UnsupportedQuery
rather than returning a wrong number.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product as _cartesian

from .errors import InternalError, UnsupportedQuery
from .ring import (
    PROJECTIVE,
    Partition,
    RingElement,
    Space,
    basis,
    basis_element,
    basis_partition,
    cup,
    dual_basis,
    element,
    integrate,
    lr_expansion,
    partition_index,
    point_class,
    zero,
)
from .value import Value


def chern_generator(space: Space) -> int:
    """First Chern number of the tangent bundle on the curve generator."""
    rows, cols = space.box
    return rows + cols


def virtual_dimension(space: Space, degree: int, k: int) -> int:
    """Expected real dimension of the genus-zero k-pointed moduli space."""
    n = space.complex_dimension
    return 2 * chern_generator(space) * degree + 2 * (n - 3) + 2 * k


# ---------------------------------------------------------------------------
# Rational plane curves: the associativity recursion for N_d.


@lru_cache(maxsize=None)
def _nd(d: int) -> int:
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += (
            _nd(d1)
            * _nd(d2)
            * d1 * d1 * d2
            * (
                d2 * math.comb(3 * d - 4, 3 * d1 - 2)
                - d1 * math.comb(3 * d - 4, 3 * d1 - 1)
            )
        )
    return total


def wdvv_nd(d: int) -> Fraction:
    """Count of degree-d rational plane curves through 3d-1 general points."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    # Fill the cache upward, so each _nd call recurses only one level.
    for smaller in range(1, d):
        _nd(smaller)
    return Fraction(_nd(d))


# ---------------------------------------------------------------------------
# Quantum products by rim-hook reduction.


class QuantumClass(Value):
    """A polynomial in q with cohomology-class coefficients."""

    space: Space
    terms: tuple[tuple[int, RingElement], ...]

    def element_at(self, power: int) -> RingElement:
        for e, elem in self.terms:
            if e == power:
                return elem
        return zero(self.space)

    def coefficient(self, power: int, index: int) -> Fraction:
        return self.element_at(power).coefficient(index)


def quantum_class(space: Space, parts: dict[int, RingElement]) -> QuantumClass:
    cleaned = tuple(
        (e, elem) for e, elem in sorted(parts.items()) if not elem.is_zero()
    )
    return QuantumClass(space, cleaned)


@lru_cache(maxsize=None)
def _rim_reduce(nu: Partition, rows: int, n: int):
    """Reduce nu by n-rim hooks to the rows x (n - rows) box, on the abacus.

    Place rows beads at b_i = nu_i + rows - 1 - i, nu padded with zeros.
    Removing an n-rim hook of height ht moves one bead from b to b - n past
    ht - 1 others, with sign (-1)^(rows - ht).  So the reduction dies when
    nu has more than rows rows or two residues b_i mod n coincide, and
    otherwise takes sum(b_i // n) hooks to the shape whose beads are the
    residues, with the sign of sorting them times (-1)^((rows - 1) * count).

    Returns (sign, hook count, reduced partition) or None.
    """
    if len(nu) > rows:
        return None
    padded = nu + (0,) * (rows - len(nu))
    beads = [p + rows - 1 - i for i, p in enumerate(padded)]
    residues = [b % n for b in beads]
    if len(set(residues)) < rows:
        return None
    count = sum(b // n for b in beads)
    inversions = sum(residues[i] < residues[j] for j in range(rows) for i in range(j))
    ordered = sorted(residues, reverse=True)
    core = tuple(r - (rows - 1 - j) for j, r in enumerate(ordered) if r > rows - 1 - j)
    return (-1) ** (inversions + (rows - 1) * count), count, core


def rim_hook_product(lam: Partition, mu: Partition, space: Space) -> QuantumClass:
    """Quantum product of two Schubert classes of a rows x cols box.

    Classical Littlewood-Richardson expansion first, then each shape with at
    most rows rows is reduced by n-rim hooks with signs, n = rows + cols;
    shapes with more rows die.  A factor outside the box's basis is refused;
    a reduced shape of the wrong degree, or a negative or fractional
    coefficient (each is a curve count), is an internal error.
    """
    lam, mu = tuple(lam), tuple(mu)
    partition_index(space, lam)
    partition_index(space, mu)
    rows, cols = space.box
    n = rows + cols
    total = sum(lam) + sum(mu)
    acc: dict[int, dict[int, Fraction]] = {}
    for nu, c in lr_expansion(lam, mu):
        reduced = _rim_reduce(nu, rows, n)
        if reduced is None:
            continue
        sign, count, core = reduced
        if sum(core) + n * count != total:
            raise InternalError("graded leak")
        level = acc.setdefault(count, {})
        idx = partition_index(space, core)
        level[idx] = level.get(idx, Fraction(0)) + sign * c
    for e, coeffs in acc.items():
        if any(value < 0 or value.denominator != 1 for value in coeffs.values()):
            raise InternalError(f"negative or fractional quantum coefficient at q^{e}")
    return quantum_class(space, {e: element(space, c) for e, c in acc.items()})


# ---------------------------------------------------------------------------
# The absolute oracle.


class AbsoluteQuery(Value):
    space: Space
    degree: int
    insertions: tuple[RingElement, ...]


class Witness(Value):
    query: AbsoluteQuery
    value: Fraction


def gw_invariant(space: Space, degree: int, insertions) -> Fraction:
    """Genus-zero invariant with the given curve degree and insertions.

    Returns 0 whenever the total insertion degree misses the virtual
    dimension.  Queries outside the supported reductions raise
    UnsupportedQuery.
    """
    return _gw_invariant(space, degree, tuple(insertions))


@lru_cache(maxsize=None)
def _gw_invariant(space: Space, degree: int, insertions: tuple) -> Fraction:
    # Memoised on the insertion tuple as given; a refusal raises again on
    # every call, because lru_cache keeps no exceptions.
    if degree < 0:
        raise ValueError("curve degree must be nonnegative")
    for ins in insertions:
        if ins.space != space:
            raise ValueError("insertion lives on the wrong space")
    if any(ins.is_zero() for ins in insertions):
        return Fraction(0)
    degs = []
    for ins in insertions:
        d = ins.homogeneous_degree()
        if d is None:
            raise ValueError("insertions must be homogeneous")
        degs.append(d)
    if sum(degs) != virtual_dimension(space, degree, len(insertions)):
        return Fraction(0)
    total = Fraction(0)
    for combo in _cartesian(*(ins.coeffs for ins in insertions)):
        coeff = Fraction(1)
        idxs = []
        for i, c in combo:
            coeff *= c
            idxs.append(i)
        total += coeff * _gw_basis(space, degree, tuple(sorted(idxs)))
    return total


@lru_cache(maxsize=None)
def _gw_basis(space: Space, degree: int, idxs: tuple[int, ...]) -> Fraction:
    bas = basis(space)
    if degree == 0:
        if len(idxs) != 3:
            return Fraction(0)
        a, b, c = (basis_element(space, i) for i in idxs)
        return integrate(cup(cup(a, b), c))
    # Every class of the point has degree 0, so the point ends here too.
    if any(bas[i].real_degree == 0 for i in idxs):
        return Fraction(0)
    factor = Fraction(1)
    rest = []
    for i in idxs:
        if bas[i].real_degree == 2:
            factor *= degree
        else:
            rest.append(i)
    if _non_divisor_limit(space) is None:  # P^2: N_d takes any number of points
        if len(rest) != 3 * degree - 1:
            raise InternalError("dimension rule should force this")
        return factor * wdvv_nd(degree)
    parts = [basis_partition(space, i) for i in rest]
    return _structure_constant_value(space, degree, parts, factor)


def _non_divisor_limit(space: Space) -> int | None:
    """The most insertions of real degree above 2 that the oracle evaluates
    in positive curve degree: any number on P^2, through the N_d recursion,
    and three elsewhere, the three points of a structure constant."""
    if space.kind == PROJECTIVE and space.params[0] == 2:
        return None
    return 3


def _structure_constant_value(space, degree, parts, factor) -> Fraction:
    if len(parts) > _non_divisor_limit(space):
        raise UnsupportedQuery(
            "more than three non-divisor insertions on a Grassmannian: "
            f"{parts} at degree {degree}"
        )
    padded = list(parts)
    while len(padded) < 3:
        padded.append((1,))
        factor /= degree
    # The three-point invariant: the coefficient of the third class's dual
    # in the quantum product of the first two.
    la, lb, lc = padded
    qc = rim_hook_product(la, lb, space)
    dual = dual_basis(space)[partition_index(space, lc)]
    return factor * qc.coefficient(degree, dual.index)


# ---------------------------------------------------------------------------
# Certificate search for point-constrained nonzero invariants.


def _extra_multisets(space: Space, budget: int, max_length: int | None):
    """Multisets of basis classes of degree >= 4 with sum(deg - 2) == budget,
    as ascending index tuples, lazily: shortest first, lexicographic within
    one length, and none longer than max_length (None: no cap)."""
    pool = [(bc.index, bc.real_degree - 2) for bc in basis(space) if bc.real_degree >= 4]
    longest = budget // pool[0][1] if pool else 0
    if max_length is not None:
        longest = min(longest, max_length)
    for length in range(longest + 1):
        for combo in combinations_with_replacement(pool, length):
            if sum(step for _, step in combo) == budget:
                yield tuple(index for index, _ in combo)


def _certificate_in_degree(space: Space, degree: int, k_points: int) -> Witness | None:
    """A nonzero invariant in the given degree with exactly k point
    insertions plus basis classes of degree >= 4, if one is evaluable."""
    # What the point classes leave of the virtual dimension; an extra class
    # of real degree e takes e - 2 of it, since it adds a marked point.
    n = space.complex_dimension
    budget = virtual_dimension(space, degree, k_points) - 2 * n * k_points
    if budget < 0:
        return None
    pt = point_class(space)
    # Longer multisets exceed what the oracle evaluates, so it would refuse
    # every one of them; the point classes count toward that limit too.
    limit = _non_divisor_limit(space)
    if limit is not None and pt.homogeneous_degree() > 2:
        limit -= k_points
    points = (pt,) * k_points
    for extras in _extra_multisets(space, budget, limit):
        insertions = points + tuple(basis_element(space, i) for i in extras)
        try:
            value = gw_invariant(space, degree, insertions)
        except UnsupportedQuery:
            continue
        if value != 0:
            return Witness(AbsoluteQuery(space, degree, insertions), value)
    return None


def rc_certificate(space: Space, k_points: int, max_degree: int) -> Witness | None:
    """Search for a nonzero invariant with at least k point insertions.

    Degree-2 insertions only rescale a nonzero invariant, so the search may
    restrict to insertions of degree >= 4 on top of the point classes; the
    dimension rule then pins the admissible multisets exactly.
    """
    if k_points < 0:
        raise ValueError("k_points must be nonnegative")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    for degree in range(1, max_degree + 1):
        witness = _certificate_in_degree(space, degree, k_points)
        if witness is not None:
            return witness
    return None
