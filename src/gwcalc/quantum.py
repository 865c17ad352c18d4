"""Absolute genus-zero Gromov-Witten oracle for the testbed spaces.

The oracle is deliberately partial: it evaluates exactly the queries it can
reduce by the dimension rule, the fundamental-class and divisor axioms, the
plane-curve recursion for P^2, and three-point quantum structure constants
for Grassmannians (rim-hook rule).  Anything else raises UnsupportedQuery
rather than returning a wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian

from .errors import UnsupportedQuery
from .ring import (
    GRASSMANNIAN,
    POINT,
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
    in_box,
    integrate,
    lr_expansion,
    partition_index,
    point_class,
    zero,
)


def chern_generator(space: Space) -> int:
    """First Chern number of the tangent bundle on the curve generator."""
    if space.kind == POINT:
        return 0
    if space.kind == PROJECTIVE:
        return space.params[0] + 1
    return space.params[1]


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
    return Fraction(_nd(d))


# ---------------------------------------------------------------------------
# Quantum products by rim-hook reduction.


@dataclass(frozen=True)
class QuantumClass:
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


def quantum_lift(a: RingElement) -> QuantumClass:
    return quantum_class(a.space, {0: a})


def _hook_removals(nu: Partition, n: int):
    """Removable n-rim hooks of nu as (height, smaller partition) pairs.

    Encoded on first-column hook lengths: subtracting n from one of them
    (staying nonnegative and distinct) removes one border strip whose height
    is the number of values jumped over, plus one.
    """
    length = len(nu)
    if length == 0:
        return
    betas = [nu[i] + (length - 1 - i) for i in range(length)]
    taken = set(betas)
    for i, b in enumerate(betas):
        nb = b - n
        if nb < 0 or nb in taken:
            continue
        ht = sum(1 for c in betas if nb < c < b) + 1
        news = sorted((set(betas) - {b}) | {nb}, reverse=True)
        parts = tuple(news[j] - (length - 1 - j) for j in range(length))
        yield ht, tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def _rim_reduce(nu: Partition, rows: int, cols: int, n: int):
    """Remove n-rim hooks from nu until it fits in the rows x cols box.

    Returns (sign, hook count, reduced partition) or None when the process
    dead-ends.  Every removal order must agree, since the reduced shape is
    the unique n-core relative to the box; a disagreement is an internal
    error.
    """
    if in_box(nu, rows, cols):
        return (1, 0, nu)
    outcomes = set()
    for ht, smaller in _hook_removals(nu, n):
        sub = _rim_reduce(smaller, rows, cols, n)
        if sub is None:
            outcomes.add(None)
        else:
            sign, count, core = sub
            outcomes.add((sign * (-1) ** (rows - ht), count + 1, core))
    if not outcomes:
        return None
    if len(outcomes) != 1:
        raise RuntimeError(f"inconsistent rim-hook reduction of {nu}")
    return outcomes.pop()


def rim_hook_product(lam: Partition, mu: Partition, space: Space) -> QuantumClass:
    """Quantum product of two Schubert classes.

    Classical Littlewood-Richardson expansion first, then each shape with at
    most k rows is reduced by n-rim hooks with signs; shapes with more rows
    die.  Surviving coefficients are honest curve counts, so a negative or
    fractional one is an internal error.
    """
    if space.kind != GRASSMANNIAN:
        raise ValueError("rim-hook products are a Grassmannian operation")
    k, n = space.params
    cols = n - k
    lam, mu = tuple(lam), tuple(mu)
    for parts in (lam, mu):
        if not in_box(parts, k, cols) or list(parts) != sorted(parts, reverse=True) or any(
            p < 1 for p in parts
        ):
            raise ValueError(f"partition {parts} does not fit in {k}x{cols}")
    acc: dict[int, dict[int, Fraction]] = {}
    for nu, c in lr_expansion(lam, mu):
        if len(nu) > k:
            continue
        reduced = _rim_reduce(nu, k, cols, n)
        if reduced is None:
            continue
        sign, count, core = reduced
        level = acc.setdefault(count, {})
        idx = partition_index(space, core)
        level[idx] = level.get(idx, Fraction(0)) + sign * c
    parts_out: dict[int, RingElement] = {}
    for e, coeffs in acc.items():
        for idx, value in coeffs.items():
            if value < 0 or value.denominator != 1:
                raise RuntimeError(
                    f"negative or fractional quantum coefficient at q^{e}"
                )
        parts_out[e] = element(space, coeffs)
    out = quantum_class(space, parts_out)
    total = 2 * (sum(lam) + sum(mu))
    for e, elem in out.terms:
        for i, _ in elem.coeffs:
            if basis(space)[i].real_degree + 2 * e * n != total:
                raise RuntimeError("graded leak")
    return out


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


def _three_point(space: Space, la, lb, lc, degree: int) -> Fraction:
    """Genus-zero three-point invariant from the quantum product."""
    qc = rim_hook_product(tuple(la), tuple(lb), space)
    dual = dual_basis(space)[partition_index(space, tuple(lc))]
    return qc.coefficient(degree, dual.index)


# ---------------------------------------------------------------------------
# The absolute oracle.


@dataclass(frozen=True)
class AbsoluteQuery:
    space: Space
    degree: int
    insertions: tuple[RingElement, ...]


@dataclass(frozen=True)
class Witness:
    query: AbsoluteQuery
    value: Fraction


def gw_invariant(space: Space, degree: int, insertions) -> Fraction:
    """Genus-zero invariant with the given curve degree and insertions.

    Returns 0 whenever the total insertion degree misses the virtual
    dimension.  Queries outside the supported reductions raise
    UnsupportedQuery.
    """
    if degree < 0:
        raise ValueError("curve degree must be nonnegative")
    insertions = tuple(insertions)
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
    for combo in _cartesian(*(ins.terms() for ins in insertions)):
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
    if space.kind == POINT:
        return Fraction(0)
    if any(bas[i].real_degree == 0 for i in idxs):
        return Fraction(0)
    factor = Fraction(1)
    rest = []
    for i in idxs:
        if bas[i].real_degree == 2:
            factor *= degree
        else:
            rest.append(i)
    if space.kind == PROJECTIVE and space.params[0] == 2:
        if len(rest) != 3 * degree - 1:
            raise RuntimeError("dimension rule should force this")
        return factor * wdvv_nd(degree)
    if space.kind == PROJECTIVE:
        # Treat P^n (n != 2) through its rank-one Schubert ring Gr(1, n+1);
        # P^2 takes the N_d recursion, because Gr(1,3) refuses more than
        # three point insertions.
        parts = [(bas[i].real_degree // 2,) for i in rest]
        return _structure_constant_value(
            _as_one_row_space(space), degree, parts, factor
        )
    parts = [basis_partition(space, i) for i in rest]
    return _structure_constant_value(space, degree, parts, factor)


@lru_cache(maxsize=None)
def _as_one_row_space(space: Space) -> Space:
    from .ring import grassmannian

    return grassmannian(1, space.params[0] + 1)


def _structure_constant_value(space, degree, parts, factor) -> Fraction:
    if len(parts) > 3:
        raise UnsupportedQuery(
            "more than three non-divisor insertions on a Grassmannian: "
            f"{parts} at degree {degree}"
        )
    padded = list(parts)
    while len(padded) < 3:
        padded.append((1,))
        factor /= degree
    return factor * _three_point(space, *padded, degree)


# ---------------------------------------------------------------------------
# Certificate search for point-constrained nonzero invariants.


def _extra_multisets(space: Space, budget: int):
    """Multisets of basis classes of degree >= 4 with sum(deg - 2) == budget,
    shortest first."""
    pool = [bc for bc in basis(space) if bc.real_degree >= 4]
    found: list[tuple[int, ...]] = []

    def grow(start: int, remaining: int, acc: list[int]) -> None:
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


def _certificate_in_degree(space: Space, degree: int, k_points: int) -> Witness | None:
    """A nonzero invariant in the given degree with exactly k point
    insertions plus basis classes of degree >= 4, if one is evaluable."""
    # What the point classes leave of the virtual dimension; an extra class
    # of real degree e takes e - 2 of it, since it adds a marked point.
    n = space.complex_dimension
    budget = virtual_dimension(space, degree, k_points) - 2 * n * k_points
    if budget < 0:
        return None
    points = (point_class(space),) * k_points
    for extras in _extra_multisets(space, budget):
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
    for degree in range(1, max_degree + 1):
        witness = _certificate_in_degree(space, degree, k_points)
        if witness is not None:
            return witness
    return None


def nonzero_invariant_in_degree(space: Space, degree: int) -> Witness | None:
    """A nonzero genus-zero invariant in the given curve degree, if the
    bounded search finds one (used to detect stably effective classes)."""
    return _certificate_in_degree(space, degree, 0)
