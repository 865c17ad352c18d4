"""Relative-invariant tests: the ramified two-point table, fiber closed
forms, the vanishing predicate and its consistency with the closed forms,
the tangency-free divisor reduction, and normal Chern minima."""

import math
from fractions import Fraction
from itertools import product

import pytest

from gwcalc import relative, ring
from gwcalc.degeneration import testbed_cut as named_testbed, verify_comparison
from gwcalc.errors import Inapplicable, UnsupportedQuery
from gwcalc.partitions import WeightedPair, weighted_partition
from gwcalc.relative import (
    BundleSpec,
    Pullback,
    ZeroSection,
    _vanishing_reason,
    empty_partition_divisor,
    fiber_one_relative,
    fiber_two_point,
    make_fiber_query,
    make_section_query,
    min_normal_chern,
    relative_invariant,
    relative_invariant_with_reason,
    zstar,
)

from helpers import pairs_of, zero_section_divisor

PT_SPACE = ring.point_space()
P1 = ring.projective_space(1)
P2 = ring.projective_space(2)


def fiber_vanishing(query) -> bool:
    """True when the invariant is forced to vanish by dimension pushdown or
    by the single transverse-tangency shape; False means "not decided by
    these criteria", never "nonzero"."""
    return _vanishing_reason(query) is not None


def _two_point(s: int, d: int) -> Fraction:
    """The line relative to a point, as a fiber over a point base."""
    return fiber_two_point(s, d, ring.unit(PT_SPACE), ring.unit(PT_SPACE))


def test_rel_p1_two_point_table():
    for s in range(1, 7):
        for d in range(1, 7):
            value = _two_point(s, d)
            if d == s:
                assert value == Fraction(1, math.factorial(s))
            else:
                assert value == 0
    with pytest.raises(ValueError):
        _two_point(0, 1)


def test_rel_p1_two_point_examples():
    assert _two_point(1, 1) == 1
    assert _two_point(3, 3) == Fraction(1, 6)
    assert _two_point(2, 1) == 0


def test_fiber_two_point_examples():
    one = ring.unit(P1)
    pt = ring.point_class(P1)
    assert fiber_two_point(1, 1, one, pt) == 1
    h = ring.by_label(P2, "h")
    assert fiber_two_point(2, 2, h, h) == Fraction(1, 2)
    assert fiber_two_point(2, 1, h, h) == 0
    with pytest.raises(ValueError):
        fiber_two_point(1, 0, one, pt)


def test_fiber_one_relative_examples():
    assert fiber_one_relative([ring.point_class(P1)], ring.unit(P1)) == 1
    h = ring.by_label(P2, "h")
    assert fiber_one_relative([h, h], ring.unit(P2)) == 1
    assert fiber_one_relative([ring.zero(P1)], ring.unit(P1)) == 0


def test_vanishing_examples():
    bundle = BundleSpec(P1, 1)
    pt = ring.point_class(P1)
    # Double fiber with two zero-section insertions: forced zero.
    q = make_fiber_query(
        bundle, 2, [ZeroSection(pt), ZeroSection(pt)], pairs_of(P1, [(2, pt)])
    )
    assert fiber_vanishing(q) is True
    # The single transverse-tangency exception is not decided.
    q2 = make_fiber_query(bundle, 1, [ZeroSection(pt)], pairs_of(P1, [(1, ring.unit(P1))]))
    assert fiber_vanishing(q2) is False
    # Section class dominated by the tangency pairing: forced zero.
    q3 = make_section_query(BundleSpec(P1, 2), 1, [ZeroSection(pt)])
    assert zstar(q3) == 2 >= 1
    assert fiber_vanishing(q3) is True


def test_vanishing_needs_nonnegative_bundle():
    bundle = BundleSpec(P1, -1)
    q = make_fiber_query(bundle, 1, [], pairs_of(P1, [(1, ring.unit(P1))]))
    with pytest.raises(Inapplicable):
        fiber_vanishing(q)


def _basis_elements(space):
    return [ring.basis_element(space, bc.index) for bc in ring.basis(space)]


def _partitions_of_weight(space, s):
    """All tangency partitions of total weight s over the basis."""
    pool = _basis_elements(space)
    out = []

    def grow(acc, remaining, max_m):
        if remaining == 0:
            out.append(weighted_partition(space, [WeightedPair(m, w) for m, w in acc]))
            return
        for m in range(1, min(remaining, max_m) + 1):
            for w in pool:
                grow(acc + [(m, w)], remaining - m, m)

    grow([], s, s)
    return sorted(set(out), key=lambda mu: tuple(str(mu.pairs)))


def test_vanishing_consistent_with_closed_forms():
    """Exhaustive consistency over small bases: whenever the predicate says
    zero, the closed-form values are zero; in the exceptional shape, the
    evaluator returns the base integral."""
    for base, c1 in ((PT_SPACE, 0), (P1, 1), (P2, 1)):
        bundle = BundleSpec(base, c1)
        elements = _basis_elements(base)
        for s in range(1, 4):
            for mu in _partitions_of_weight(base, s):
                for n_zs in range(0, 3):
                    for zs in product(elements, repeat=n_zs):
                        for n_pb in range(0, 2):
                            for pb in product(elements, repeat=n_pb):
                                ins = [ZeroSection(b) for b in zs]
                                ins += [Pullback(a) for a in pb]
                                query = make_fiber_query(bundle, s, ins, mu)
                                vanishes = fiber_vanishing(query)
                                value, reason = relative_invariant_with_reason(query)
                                if vanishes:
                                    assert value == 0 and reason is not None
                                else:
                                    assert s == 1 and len(mu.pairs) == 1 and n_pb == 0
                                    gamma = mu.pairs[0].weight
                                    assert value == fiber_one_relative(list(zs), gamma)


def test_two_point_closed_form_vanishing_consistency():
    """Descendent two-point shapes with mismatched twist vanish by formula;
    the predicate only claims the descendent-free cases."""
    for base in (PT_SPACE, P1, P2):
        bundle = BundleSpec(base, 1 if base.kind != ring.POINT else 0)
        elements = _basis_elements(base)
        for s in range(2, 4):
            for beta0 in elements:
                for beta_inf in elements:
                    q = make_fiber_query(
                        bundle,
                        s,
                        [ZeroSection(beta0, psi_power=0)],
                        pairs_of(base, [(s, beta_inf)]),
                    )
                    # psi-free two-point shape at s >= 2 is claimed zero...
                    assert fiber_vanishing(q) is True
                    # ...and the closed form with d = 1 != s agrees.
                    assert fiber_two_point(s, 1, beta0, beta_inf) == 0


def test_relative_invariant_two_point_descendent():
    bundle = BundleSpec(PT_SPACE, 0)
    one = ring.unit(PT_SPACE)
    for s in range(1, 5):
        q = make_fiber_query(
            bundle, s, [ZeroSection(one, psi_power=s - 1)], pairs_of(PT_SPACE, [(s, one)])
        )
        assert relative_invariant(q) == Fraction(1, math.factorial(s))


def test_relative_invariant_unsupported_shape():
    bundle = BundleSpec(P1, 1)
    pt = ring.point_class(P1)
    # Two descendent insertions on a fiber class: no closed form, and the
    # descendent total exceeds the tangency pairing, so nothing applies.
    q = make_fiber_query(
        bundle,
        1,
        [ZeroSection(pt, psi_power=3), ZeroSection(pt, psi_power=3)],
        pairs_of(P1, [(1, pt)]),
    )
    with pytest.raises(UnsupportedQuery):
        relative_invariant(q)


def test_empty_partition_divisor_examples():
    bundle = BundleSpec(P1, 1)
    pt = ring.point_class(P1)
    assert empty_partition_divisor(bundle, 1, [], [pt, pt]) == 1
    with pytest.raises(ValueError):
        empty_partition_divisor(bundle, 1, [], [pt])
    assert empty_partition_divisor(bundle, 1, [], [pt, ring.zero(P1)]) == 0


def test_empty_partition_divisor_on_plane_base():
    bundle = BundleSpec(P2, 1)
    pt = ring.point_class(P2)
    h = ring.by_label(P2, "h")
    # Two point insertions match the base oracle's line count.
    assert empty_partition_divisor(bundle, 1, [], [pt, pt]) == 1
    # Degree-2 zero-section classes are dimensionally short: zero.
    assert empty_partition_divisor(bundle, 1, [], [h, h]) == 0


def test_section_query_dispatch():
    bundle = BundleSpec(P1, 1)
    pt = ring.point_class(P1)
    q = make_section_query(bundle, 1, [ZeroSection(pt), ZeroSection(pt)])
    value, reason = relative_invariant_with_reason(q)
    assert value == 1 and reason is None
    # A pullback insertion reaches the base invariant too: the unit kills
    # it (fundamental-class axiom), h multiplies it by the degree.
    for label, expected in (("1", 0), ("h", 1)):
        insertions = [Pullback(ring.by_label(P1, label)), ZeroSection(pt), ZeroSection(pt)]
        q = make_section_query(bundle, 1, insertions)
        assert relative_invariant_with_reason(q) == (expected, None)


def test_min_normal_chern():
    assert min_normal_chern(ring.hyperplane_divisor(1)) == math.inf
    assert min_normal_chern(ring.hyperplane_divisor(2)) == 1
    assert min_normal_chern(zero_section_divisor(BundleSpec(P1, 3))) == 3
    assert min_normal_chern(zero_section_divisor(BundleSpec(P1, 2))) == 2
    # Trivial bundle: no positive pairing exists.
    assert min_normal_chern(zero_section_divisor(BundleSpec(P1, 0))) == math.inf


def test_min_normal_chern_searches_once_per_divisor(monkeypatch):
    # V depends on the divisor alone; every checked solve, right-hand side
    # and lift asks for it, and only the first ask runs the search.
    searched = []
    search = relative.rc_certificate

    def counted(space, k_points, max_degree):
        searched.append((space, k_points, max_degree))
        return search(space, k_points, max_degree)

    monkeypatch.setattr(relative, "rc_certificate", counted)
    relative._min_normal_chern.cache_clear()
    cut = named_testbed("p2-line")
    pt = ring.point_class(cut.divisor.ambient)
    for _ in range(3):
        report = verify_comparison(cut, 1, [pt, pt], [ring.unit(cut.divisor.divisor)])
        assert report.equal is True and report.lhs == 1
    # One certificate search with no point insertions, up to the search
    # degree; on the line it stops at degree 1, so V = 1.
    assert searched == [(P1, 0, 3)]
    # An equal but distinct descriptor is a hit too.
    assert min_normal_chern(ring.hyperplane_divisor(2)) == 1
    assert len(searched) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_normal_chern_memo_matches_the_search(n):
    # P^(n-1) in P^n, the point in P^1 included: the memoised value is the
    # search's, on a cold and on a warm memo.
    memo = relative._min_normal_chern
    memo.cache_clear()
    divisor = ring.hyperplane_divisor(n)
    expected = memo.__wrapped__(divisor)
    assert expected == (math.inf if n == 1 else 1)
    assert min_normal_chern(divisor) == expected
    assert min_normal_chern(ring.hyperplane_divisor(n)) == expected
    assert memo.cache_info().misses == 1
