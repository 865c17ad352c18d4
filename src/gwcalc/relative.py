"""Relative invariants of projectivised line bundles (Y, D).

Y is the fiberwise completion P(L + O) of a line bundle L over a small base
Z, with zero section Z_0 and infinity section D.  For fiber classes the
genus-zero relative invariants relative to D reduce to integrals over Z, and
outside a single exceptional shape they vanish; for section classes with no
tangency conditions they reduce to absolute invariants of Z.  This module
implements those closed forms, the vanishing predicate, and the minimal
normal Chern number used as a positivity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Inapplicable, UnsupportedQuery
from .partitions import WeightedPartition, empty_partition, total_weight
from .quantum import gw_invariant, nonzero_invariant_in_degree
from .ring import (
    POINT,
    DivisorDescriptor,
    RingElement,
    Space,
    cup,
    cup_all,
    generator_class,
    integrate,
    normal_degree,
    zero,
)


@dataclass(frozen=True)
class BundleSpec:
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


@dataclass(frozen=True)
class Pullback:
    """Insertion pulled back from the base."""

    cls: RingElement


@dataclass(frozen=True)
class ZeroSection:
    """Insertion supported on the zero section (a transfer of a base class),
    optionally twisted by a cotangent-line power."""

    cls: RingElement
    psi_power: int = 0


RelInsertion = Pullback | ZeroSection


@dataclass(frozen=True)
class FiberClass:
    s: int


@dataclass(frozen=True)
class SectionClass:
    degree: int


@dataclass(frozen=True)
class RelQuery:
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


def fiber_vanishing(query: RelQuery) -> bool:
    """True when the invariant is forced to vanish by dimension pushdown.

    Two mechanisms apply.  If the zero-section pairing dominates the
    descendent total and the query either has a non-fiber class or at least
    three special insertions, every integrand is pulled back from a
    strictly smaller base moduli space.  For descendent-free fiber classes,
    the only shape that survives the fibered dimension count is a single
    transverse tangency point with no pulled-back insertions.

    False means "not decided by these criteria", never "nonzero".
    """
    if not query.bundle.curve_positive:
        raise Inapplicable(
            "vanishing criteria need the bundle to pair nonnegatively with curves"
        )
    l, q, k, d = _counts(query)
    if zstar(query) >= d:
        if isinstance(query.curve, SectionClass) or k + l + q >= 3:
            return True
    if isinstance(query.curve, FiberClass) and d == l:
        s = query.curve.s
        if not (s == 1 and k == 1 and q == 0):
            return True
    return False


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
    if isinstance(query.curve, FiberClass):
        s = query.curve.s
        descendent_free = d == l
        if descendent_free:
            if s == 1 and k == 1 and q == 0:
                betas = [i.cls for i in query.insertions]
                gamma = query.partition.pairs[0].weight
                return fiber_one_relative(betas, gamma), None
            # fiber_vanishing refuses a bundle negative on curves with
            # Inapplicable; otherwise every other descendent-free shape vanishes.
            if not fiber_vanishing(query):
                raise RuntimeError("fiber query escaped the vanishing criteria")
            return Fraction(0), (
                "fiber-class query outside the single transverse-tangency shape"
            )
        if l == 1 and q == 0 and k == 1:
            (ins,) = [i for i in query.insertions if isinstance(i, ZeroSection)]
            pair = query.partition.pairs[0]
            return (
                fiber_two_point(s, ins.psi_power + 1, ins.cls, pair.weight),
                None,
            )
        if fiber_vanishing(query):
            return Fraction(0), "dimension pushdown to the base moduli space"
        raise UnsupportedQuery(f"no closed form for fiber query {query}")
    # Section classes: only the tangency-free divisor reduction is known.
    if k == 0 and d == l:
        w = bundle.divisor_pairing(query.curve.degree)
        if l == w + 1:
            pullbacks = [i.cls for i in query.insertions if isinstance(i, Pullback)]
            betas = [i.cls for i in query.insertions if isinstance(i, ZeroSection)]
            return empty_partition_divisor(bundle, query.curve.degree, pullbacks, betas), None
    if fiber_vanishing(query):
        return Fraction(0), "dimension pushdown to the base moduli space"
    raise UnsupportedQuery(f"no closed form for section query {query}")


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
        divisor_class=None,
        normal_c1=normal,
    )


def min_normal_chern(divisor: DivisorDescriptor, search_bound: int = 3):
    """Minimal positive pairing of the normal bundle against a curve class of
    the divisor that carries some nonzero genus-zero invariant.

    Returns math.inf when no such class exists within the search bound (for
    instance a point divisor, which has no curve classes at all).
    """
    z = divisor.divisor
    if z.kind == POINT:
        return math.inf
    nd = normal_degree(divisor)
    best = math.inf
    for degree in range(1, search_bound + 1):
        value = nd * degree
        if value <= 0 or value >= best:
            continue
        if nonzero_invariant_in_degree(z, degree) is not None:
            best = value
    return best
