"""Relative invariants of projectivised line bundles (Y, D).

Y is the fiberwise completion P(L + O) of a line bundle L over a small base
Z, with zero section Z_0 and infinity section D.  For fiber classes the
genus-zero relative invariants relative to D reduce to integrals over Z, and
outside a single exceptional shape they vanish; for section classes with no
tangency conditions they reduce to absolute invariants of Z.  This module
implements those closed forms, the vanishing criteria, and the minimal
normal Chern number used as a positivity threshold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import Inapplicable, UnsupportedQuery
from .partitions import WeightedPartition, empty_partition, total_weight
from .quantum import gw_invariant, rc_certificate
from .ring import (
    POINT,
    DivisorDescriptor,
    RingElement,
    Space,
    cup,
    cup_all,
    integrate,
    normal_degree,
)
from .value import Value


class BundleSpec(Value):
    """P(L + O) over a base, determined by the degree of L on the curve
    generator of the base (irrelevant for a point base)."""

    base: Space
    c1_l: int

    @property
    def curve_positive(self) -> bool:
        """Whether L pairs nonnegatively with every curve class of the base."""
        return self.base.kind == POINT or self.c1_l >= 0

    def divisor_pairing(self, section_degree: int) -> int:
        """Intersection of the zero section with a section-pushed curve class."""
        return self.c1_l * section_degree


class Pullback(Value):
    """Insertion pulled back from the base."""

    cls: RingElement


class ZeroSection(Value):
    """Insertion supported on the zero section (a transfer of a base class),
    optionally twisted by a cotangent-line power."""

    cls: RingElement
    psi_power: int = 0


RelInsertion = Pullback | ZeroSection


class FiberClass(Value):
    s: int


class SectionClass(Value):
    degree: int


class RelQuery(Value):
    bundle: BundleSpec
    curve: FiberClass | SectionClass
    insertions: tuple[RelInsertion, ...]
    partition: WeightedPartition


def _validate_insertions(bundle: BundleSpec, insertions) -> tuple[RelInsertion, ...]:
    out = []
    for ins in insertions:
        if ins.cls.space != bundle.base:
            raise ValueError("insertion class must live on the bundle base")
        if ins.cls.homogeneous_degree() is None:
            raise ValueError("insertion classes must be homogeneous")
        if isinstance(ins, ZeroSection) and ins.psi_power < 0:
            raise ValueError("cotangent power must be nonnegative")
        out.append(ins)
    return tuple(out)


def make_fiber_query(
    bundle: BundleSpec, s: int, insertions, partition: WeightedPartition
) -> RelQuery:
    if s < 1:
        raise ValueError("fiber degree must be positive")
    if partition.space != bundle.base:
        raise ValueError("partition weighted by the wrong space")
    if total_weight(partition) != s:
        raise ValueError(
            f"tangency multiplicities sum to {total_weight(partition)}, need {s}"
        )
    return RelQuery(bundle, FiberClass(s), _validate_insertions(bundle, insertions), partition)


def make_section_query(bundle: BundleSpec, degree: int, insertions) -> RelQuery:
    if degree < 0:
        raise ValueError("section degree must be nonnegative")
    return RelQuery(
        bundle,
        SectionClass(degree),
        _validate_insertions(bundle, insertions),
        empty_partition(bundle.base),
    )


def _counts(query: RelQuery) -> tuple[int, int, int, int]:
    """(zero-section count, pullback count, tangency count, descendent total)."""
    l = sum(1 for i in query.insertions if isinstance(i, ZeroSection))
    q = sum(1 for i in query.insertions if isinstance(i, Pullback))
    k = len(query.partition.pairs)
    d = sum(
        1 + i.psi_power for i in query.insertions if isinstance(i, ZeroSection)
    )
    return l, q, k, d


def zstar(query: RelQuery) -> int:
    """Pairing of the zero-section class with the query's curve class."""
    if isinstance(query.curve, FiberClass):
        return query.curve.s
    return query.bundle.divisor_pairing(query.curve.degree)


def _single_transverse_tangency(
    query: RelQuery, l: int, q: int, k: int, d: int
) -> bool:
    """A descendent-free fiber line with one tangency point and no pulled-back
    insertions, given the query's ``_counts``."""
    fiber = isinstance(query.curve, FiberClass)
    return fiber and d == l and query.curve.s == 1 and k == 1 and q == 0


def _vanishing_reason(query: RelQuery) -> str | None:
    """Why the invariant is forced to vanish, or None if these criteria do
    not decide it.

    For descendent-free fiber classes, the only shape that survives the
    fibered dimension count is a single transverse tangency point with no
    pulled-back insertions.  Otherwise, if the zero-section pairing
    dominates the descendent total and the query either has a non-fiber
    class or at least three special insertions, every integrand is pulled
    back from a strictly smaller base moduli space.  When both apply, the
    shape is the reason given.
    """
    if not query.bundle.curve_positive:
        raise Inapplicable(
            "vanishing criteria need the bundle to pair nonnegatively with curves"
        )
    l, q, k, d = _counts(query)
    fiber = isinstance(query.curve, FiberClass)
    if fiber and d == l and not _single_transverse_tangency(query, l, q, k, d):
        return "fiber-class query outside the single transverse-tangency shape"
    if zstar(query) >= d and (not fiber or k + l + q >= 3):
        return "dimension pushdown to the base moduli space"
    return None


def fiber_two_point(
    s: int, d: int, beta_zero: RingElement, beta_infinity: RingElement
) -> Fraction:
    """Two-point fiber-class invariant: a zero-section insertion with d-1
    cotangent twists against a single tangency point of full order s.

    Over a point base with unit classes this is the line relative to one
    point: a degree-s cover fully ramified over it."""
    if s < 1:
        raise ValueError("fiber degree s must be positive")
    if d < 1:
        raise ValueError("descendent index d must be positive")
    if d != s:
        return Fraction(0)
    return Fraction(1, math.factorial(s)) * integrate(cup(beta_zero, beta_infinity))


def fiber_one_relative(betas, gamma: RingElement) -> Fraction:
    """Fiber-class invariant with one transverse tangency point: the
    zero-section insertions and the tangency weight multiply out on the base."""
    return integrate(cup_all(gamma.space, list(betas) + [gamma]))


def relative_invariant_with_reason(query: RelQuery) -> tuple[Fraction, str | None]:
    """Evaluate a relative invariant by closed form.

    Returns (value, reason) where reason is set when the value is zero by a
    vanishing criterion rather than by arithmetic.  Shapes with no closed
    form and no vanishing argument raise UnsupportedQuery.
    """
    bundle = query.bundle
    l, q, k, d = _counts(query)
    fiber = isinstance(query.curve, FiberClass)
    if _single_transverse_tangency(query, l, q, k, d):
        betas = [i.cls for i in query.insertions]
        return fiber_one_relative(betas, query.partition.pairs[0].weight), None
    if fiber and d != l and l == 1 and q == 0 and k == 1:
        (ins,) = query.insertions
        weight = query.partition.pairs[0].weight
        return fiber_two_point(query.curve.s, ins.psi_power + 1, ins.cls, weight), None
    # Section classes: only the tangency-free divisor reduction is known.
    if not fiber and k == 0 and d == l == zstar(query) + 1:
        pullbacks = [i.cls for i in query.insertions if isinstance(i, Pullback)]
        betas = [i.cls for i in query.insertions if isinstance(i, ZeroSection)]
        return empty_partition_divisor(bundle, query.curve.degree, pullbacks, betas), None
    # Every other descendent-free fiber shape vanishes; a bundle negative on
    # curves is refused here with Inapplicable.
    reason = _vanishing_reason(query)
    if reason is None:
        kind = "fiber" if fiber else "section"
        raise UnsupportedQuery(f"no closed form for {kind} query {query}")
    return Fraction(0), reason


def relative_invariant(query: RelQuery) -> Fraction:
    return relative_invariant_with_reason(query)[0]


def empty_partition_divisor(
    bundle: BundleSpec, degree: int, pullbacks, betas
) -> Fraction:
    """Tangency-free invariant of (Y, D) for a section-pushed class: equal to
    the base invariant with the zero-section insertions restricted.

    Needs exactly one more zero-section insertion than the zero section's
    pairing with the class; otherwise both sides are dimensionally mismatched.
    """
    if not bundle.curve_positive:
        raise Inapplicable("divisor reduction needs a nonnegative bundle")
    pullbacks = tuple(pullbacks)
    betas = tuple(betas)
    w = bundle.divisor_pairing(degree)
    if len(betas) != w + 1:
        raise ValueError(
            f"needs exactly {w + 1} zero-section insertions, got {len(betas)}"
        )
    if any(b.is_zero() for b in betas) or any(p.is_zero() for p in pullbacks):
        return Fraction(0)
    return gw_invariant(bundle.base, degree, pullbacks + betas)


# ---------------------------------------------------------------------------
# Positivity thresholds.

# The highest curve degree min_normal_chern searches for a nonzero invariant.
MIN_CHERN_SEARCH_DEGREE = 3


def min_normal_chern(divisor: DivisorDescriptor):
    """Minimal positive pairing of the normal bundle against a curve class of
    the divisor that carries some nonzero genus-zero invariant.

    Returns math.inf when no such class exists up to degree
    MIN_CHERN_SEARCH_DEGREE (for instance a point divisor, which has no curve
    classes at all).  It depends on the divisor alone, so the search runs
    once per divisor per process; a refusal is never memoised.
    """
    return _min_normal_chern(divisor)


# The memo sits behind the public name, as gw_invariant's does: the traced
# benchmark wraps min_normal_chern and reads lru_cache statistics only from
# ring, quantum and degeneration.
@lru_cache(maxsize=None)
def _min_normal_chern(divisor: DivisorDescriptor):
    # The pairing nd * degree grows with the degree, so the least degree
    # carrying a nonzero invariant gives the minimum.
    nd = normal_degree(divisor)
    if nd <= 0:
        return math.inf
    witness = rc_certificate(divisor.divisor, 0, MIN_CHERN_SEARCH_DEGREE)
    return math.inf if witness is None else nd * witness.query.degree
