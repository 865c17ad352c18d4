"""Degeneration tests: comparison partitions, the lattice solver and its
round trip, term enumeration with pruning, and the witness lift."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gwcalc import degeneration, quantum, ring
from gwcalc.degeneration import (
    AmbientInsertion,
    ShriekInsertion,
    absolute_insertions,
    closed_form_oracle,
    comparison_partitions,
    comparison_rhs,
    enumerate_terms,
    make_cut,
    rc_lift,
    set_partitions,
    solve_relative,
    table_oracle,
    testbed_cut as named_testbed,
    verify_comparison,
    _minimal_partition,
)
from gwcalc.errors import HypothesisViolated, Inapplicable
from gwcalc.partitions import (
    WeightedPair,
    deg,
    pairs_of,
    total_weight,
    weighted_partition,
)
from gwcalc.quantum import gw_invariant
from gwcalc.relative import fiber_vanishing

SRC = Path(__file__).resolve().parents[1] / "src"
P1_CUT = named_testbed("p1-pt")
P2_CUT = named_testbed("p2-line")


def _reference_set_partitions(n):
    """Every set partition of range(n): each item joins an existing block or
    opens a new one; then coarsest first, lexicographic among equals."""
    parts = [()]
    for item in range(n):
        parts = [
            p[:j] + (p[j] + (item,),) + p[j + 1 :] for p in parts for j in range(len(p))
        ] + [p + ((item,),) for p in parts]
    return sorted(parts, key=lambda p: (len(p), p))


def test_set_partitions_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203, 877, 4140.
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n, bell in enumerate(bells):
        parts = list(set_partitions(list(range(n))))
        assert len(parts) == bell
        assert parts == _reference_set_partitions(n)
        # Each in canonical form: a tuple of increasing tuples ordered by
        # first item, covering every item once.
        for p in parts:
            assert isinstance(p, tuple)
            assert all(isinstance(b, tuple) and list(b) == sorted(b) for b in p)
            assert [b[0] for b in p] == sorted(b[0] for b in p)
            assert sorted(i for b in p for i in b) == list(range(n))


def test_set_partitions_map_items_in_order():
    # Blocks keep the given order of the items, not their sorted order.
    assert list(set_partitions("ba")) == [(("b", "a"),), (("b",), ("a",))]


def test_comparison_partitions_single_beta():
    z = P2_CUT.divisor.divisor
    beta = ring.unit(z)
    out = comparison_partitions(z, [beta], 1)
    assert len(out) == 1
    mu, blocks = out[0]
    assert blocks == ((0,),)
    assert total_weight(mu) == 1 and len(mu.pairs) == 1


def test_comparison_partitions_annihilating_pair():
    z = P2_CUT.divisor.divisor
    pt = ring.point_class(z)
    out = comparison_partitions(z, [pt, pt], 2)
    # The merged block has weight pt*pt = 0 and is dropped.
    assert len(out) == 1
    mu, blocks = out[0]
    assert blocks == ((0,), (1,))
    assert deg(mu) == 4


def test_comparison_partitions_empty_family():
    z = P2_CUT.divisor.divisor
    out = comparison_partitions(z, [], 2)
    assert len(out) == 1
    mu, blocks = out[0]
    assert blocks == ()
    assert total_weight(mu) == 2
    assert all(p.weight == ring.unit(z) for p in mu.pairs)


def test_comparison_partitions_duplicate_weighted_partitions():
    # Unit insertions: merging and splitting produce the same weighted
    # partition, and both entries must survive (the multiplicity matters).
    z = P2_CUT.divisor.divisor
    one = ring.unit(z)
    out = comparison_partitions(z, [one, one], 2)
    assert len(out) == 2
    assert out[0][0] == out[1][0]


def test_comparison_partitions_weight_error():
    z = P2_CUT.divisor.divisor
    with pytest.raises(ValueError):
        comparison_partitions(z, [ring.unit(z)], 0)


def _reference_partitions(z, betas, weight):
    """The comparison partitions with every block product taken afresh."""
    out = []
    for blocks in _reference_set_partitions(len(betas)):
        if len(blocks) > weight:
            continue
        gammas = [ring.cup_all(z, [betas[i] for i in block]) for block in blocks]
        if any(g.is_zero() for g in gammas):
            continue
        pairs = [WeightedPair(1, g) for g in gammas]
        pairs += [WeightedPair(1, ring.unit(z))] * (weight - len(blocks))
        out.append((weighted_partition(z, pairs), blocks))
    return out


@pytest.mark.parametrize("name", ["p1-pt", "p2-line"])
def test_comparison_partitions_match_reference(name):
    # Same entries, same order, same repeats as the per-block products, for
    # up to six transfers from the basis: {1} on the point, {1, h} on P^1.
    z = named_testbed(name).divisor.divisor
    for betas in _beta_families(z, 6):
        for weight in range(1, 5):
            assert comparison_partitions(z, betas, weight) == (
                _reference_partitions(z, betas, weight)
            ), (name, betas, weight)


def _count_calls(monkeypatch, modules, name):
    """Patch ``name`` in each module with one counting wrapper."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_comparison_walk_multiplies_each_block_once(monkeypatch):
    # Seven transfers have 2^7 - 1 = 127 nonempty blocks, each one cup from
    # its prefix; taking every block's product afresh costs 7 * Bell(7).
    calls = _count_calls(monkeypatch, [ring, degeneration], "cup")
    z = P1_CUT.divisor.divisor
    out = comparison_partitions(z, [ring.unit(z)] * 7, 7)
    assert len(out) == 877
    assert len(calls) <= 2**7 - 1


def test_solver_transfers_each_block_once(monkeypatch):
    calls = _count_calls(monkeypatch, [degeneration], "shriek_pushforward")
    z = P1_CUT.divisor.divisor
    table = solve_relative(P1_CUT, 6, (), [ring.unit(z)] * 6, require_hypothesis=False)
    assert table
    assert len(calls) <= 2**6 - 1


def test_comparison_rhs_reuses_the_solver_walk(monkeypatch):
    # A round trip walks the lattice once: the right-hand side after the
    # solver on the same query multiplies no block again.
    monkeypatch.setattr(degeneration, "_last_walk", (None, ()))
    calls = _count_calls(monkeypatch, [ring, degeneration], "cup")
    z = P1_CUT.divisor.divisor
    alphas = (ring.point_class(P1_CUT.divisor.ambient),)
    betas = (ring.unit(z),) * 5
    table = solve_relative(P1_CUT, 5, alphas, betas, require_hypothesis=False)
    assert calls
    calls.clear()
    comparison_rhs(
        P1_CUT, 5, alphas, betas, table_oracle(table), require_hypothesis=False
    )
    assert calls == []


def test_failed_solve_builds_only_what_it_read(monkeypatch):
    # Outside the hypothesis, two set partitions with one weighted partition
    # solve to different values early in the walk; the solver stops there,
    # and the partial walk is not kept for the next caller.
    monkeypatch.setattr(degeneration, "_last_walk", (None, ()))
    calls = _count_calls(monkeypatch, [degeneration], "weighted_partition")
    z = P2_CUT.divisor.divisor
    alphas = (ring.point_class(P2_CUT.divisor.ambient),) * 8
    betas = (ring.unit(z),) * 7
    with pytest.raises(AssertionError):
        solve_relative(P2_CUT, 3, alphas, betas, require_hypothesis=False)
    assert len(calls) <= 5
    expected = _reference_partitions(z, betas, 3)
    assert len(expected) == 365
    assert comparison_partitions(z, betas, 3) == expected


def test_inconsistent_solve_raises_under_optimisation():
    # The consistency check is an explicit raise, so `python -O` refuses the
    # inconsistent system too instead of returning one of the two values.
    script = (
        "from gwcalc import degeneration, ring\n"
        "cut = degeneration.testbed_cut('p2-line')\n"
        "alphas = [ring.point_class(cut.divisor.ambient)] * 8\n"
        "betas = [ring.unit(cut.divisor.divisor)] * 2\n"
        "print(degeneration.solve_relative(cut, 3, alphas, betas, False))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert "AssertionError: inconsistent relative value for" in proc.stderr


def test_solver_table_is_fresh_per_call():
    z = P2_CUT.divisor.divisor
    pt_x = ring.point_class(P2_CUT.divisor.ambient)
    args = (P2_CUT, 2, (pt_x, pt_x), (ring.point_class(z), ring.point_class(z)))
    first = solve_relative(*args, require_hypothesis=False)
    expected = dict(first)
    for mu in first:
        first[mu] += 1
    first.clear()
    assert solve_relative(*args, require_hypothesis=False) == expected


def test_zero_weight_with_transfers_refused():
    # Degree 0 leaves no tangency for the transferred classes; the walk
    # refuses, so the solver, the right-hand side and verification do too.
    one = ring.unit(P1_CUT.divisor.divisor)
    match = "positive tangency weight required with insertions"
    with pytest.raises(ValueError, match=match):
        solve_relative(P1_CUT, 0, (), (one, one))
    with pytest.raises(ValueError, match=match):
        comparison_rhs(P1_CUT, 0, (), (one, one), lambda *a: Fraction(0))
    with pytest.raises(ValueError, match=match):
        verify_comparison(P2_CUT, 0, (), (ring.unit(P2_CUT.divisor.divisor),))


def test_comparison_rhs_line_point_identity():
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    oracle = closed_form_oracle(P1_CUT)
    for m in range(2, 7):
        alphas = [ring.point_class(x)] * (m - 1)
        total, terms = comparison_rhs(P1_CUT, 1, alphas, [ring.unit(z)], oracle)
        assert total == 1
        assert len(terms) == 1


def test_comparison_rhs_hypothesis_enforced():
    z = P2_CUT.divisor.divisor
    with pytest.raises(HypothesisViolated):
        comparison_rhs(
            P2_CUT, 1, [], [ring.unit(z), ring.unit(z)], lambda *a: Fraction(0)
        )


def _beta_families(z, max_size):
    pool = [ring.basis_element(z, bc.index) for bc in ring.basis(z)]
    for size in range(1, max_size + 1):
        yield from combinations_with_replacement(pool, size)


def _alpha_choices(x):
    pt = ring.point_class(x)
    return [(), (pt,), (pt, pt)]


# Largest number of transferred classes per testbed.  The point divisor has
# one family per size, so p1-pt can afford much deeper lattices.
_ROUND_TRIP_SIZES = {"p1-pt": 6, "p2-line": 3}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP_SIZES))
def test_solver_round_trip(name):
    """Recovered relative invariants re-sum to every absolute value used."""
    cut = named_testbed(name)
    z = cut.divisor.divisor
    x = cut.divisor.ambient
    for betas in _beta_families(z, _ROUND_TRIP_SIZES[name]):
        l = len(betas)
        for alphas in _alpha_choices(x):
            for degree in range(l, l + 2):
                table = solve_relative(
                    cut, degree, alphas, betas, require_hypothesis=False
                )
                rhs, _ = comparison_rhs(
                    cut,
                    degree,
                    alphas,
                    betas,
                    table_oracle(table),
                    require_hypothesis=False,
                )
                lhs = gw_invariant(
                    x,
                    degree,
                    tuple(alphas)
                    + tuple(ring.shriek_pushforward(cut.divisor, b) for b in betas),
                )
                assert rhs == lhs, (name, betas, alphas, degree)


# Most transferred classes inside the hypothesis: none bound the point
# divisor (p1-pt is cut short for time), and the line in the plane has
# minimal normal Chern number 1.
_PROPERTY_TRANSFERS = {"p1-pt": 4, "p2-line": 1}


@st.composite
def _degree_classes(draw, space, complex_degrees):
    """A class of each given complex degree: a small nonzero integer times
    the one basis class of that degree (P^1, P^2, the line and the point
    have one per degree)."""
    out = []
    for d in complex_degrees:
        (index,) = [bc.index for bc in ring.basis(space) if bc.real_degree == 2 * d]
        out.append(draw(st.sampled_from([-2, -1, 1, 2, 3])) * ring.basis_element(space, index))
    return tuple(out)


@st.composite
def round_trip_queries(draw):
    """(cut, degree, alphas, betas) inside the hypothesis, the degrees of
    the alphas meeting the dimension rule whenever they can."""
    name = draw(st.sampled_from(sorted(_PROPERTY_TRANSFERS)))
    cut = named_testbed(name)
    x, z = cut.divisor.ambient, cut.divisor.divisor
    # Fiber lines need positive degree, so degree 0 is outside the identity.
    degree = draw(st.integers(1, 3))
    beta_degrees = draw(
        st.lists(st.integers(0, z.complex_dimension), max_size=_PROPERTY_TRANSFERS[name])
    )
    count = draw(st.integers(0, 3 * degree))
    # Each transfer raises its class's degree by one.
    remaining = quantum.virtual_dimension(x, degree, count + len(beta_degrees)) // 2
    remaining -= sum(beta_degrees) + len(beta_degrees)
    alpha_degrees = []
    for left in range(count, 0, -1):
        lo = max(0, remaining - (left - 1) * x.complex_dimension)
        hi = min(x.complex_dimension, remaining)
        part = draw(st.integers(lo, hi) if lo <= hi else st.integers(0, x.complex_dimension))
        alpha_degrees.append(part)
        remaining -= part
    alphas = draw(_degree_classes(x, alpha_degrees))
    betas = draw(_degree_classes(z, beta_degrees))
    return cut, degree, alphas, betas


@settings(max_examples=60, deadline=None)
@given(round_trip_queries())
def test_comparison_round_trip_property(query):
    cut, degree, alphas, betas = query
    lhs = gw_invariant(
        cut.divisor.ambient,
        degree,
        alphas + tuple(ring.shriek_pushforward(cut.divisor, b) for b in betas),
    )
    table = solve_relative(cut, degree, alphas, betas)
    rhs, _ = comparison_rhs(cut, degree, alphas, betas, table_oracle(table))
    assert rhs == lhs
    if cut.divisor.divisor.kind == ring.POINT:
        # The solver recovers the closed form, an independent oracle.
        closed = closed_form_oracle(cut)
        assert all(value == closed(degree, alphas, mu) for mu, value in table.items())
    report = verify_comparison(cut, degree, alphas, betas)
    assert (report.status, report.lhs, report.equal) == ("ok", lhs, True)


def test_solver_single_beta_is_direct():
    z = P2_CUT.divisor.divisor
    x = P2_CUT.divisor.ambient
    pt_x = ring.point_class(x)
    table = solve_relative(P2_CUT, 1, (pt_x, pt_x), (ring.unit(z),))
    assert list(table.values()) == [Fraction(1)]


def test_solver_values_match_divisor_axiom():
    # Repeated unit classes collide onto one weighted partition; the solver
    # must find consistent values, pinned by the divisor axiom upstairs.
    z = P2_CUT.divisor.divisor
    x = P2_CUT.divisor.ambient
    pt_x = ring.point_class(x)
    one = ring.unit(z)
    table = solve_relative(
        P2_CUT, 2, (pt_x,) * 5, (one, one), require_hypothesis=False
    )
    assert len(table) == 1
    (value,) = table.values()
    assert value == 2


def test_corollary_single_term():
    """When all pairwise products vanish, the sum collapses to one term."""
    z = P2_CUT.divisor.divisor
    pt = ring.point_class(z)
    x = P2_CUT.divisor.ambient
    pt_x = ring.point_class(x)
    table = solve_relative(
        P2_CUT, 2, (pt_x, pt_x), (pt, pt), require_hypothesis=False
    )
    rhs, terms = comparison_rhs(
        P2_CUT,
        2,
        (pt_x, pt_x),
        (pt, pt),
        table_oracle(table),
        require_hypothesis=False,
    )
    assert len(terms) == 1
    mu = terms[0][0]
    assert total_weight(mu) == 2 and deg(mu) == 4


def test_verify_comparison_line_point():
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    for m in range(2, 7):
        report = verify_comparison(
            P1_CUT, 1, [ring.point_class(x)] * (m - 1), [ring.unit(z)]
        )
        assert report.status == "ok"
        assert report.lhs == report.rhs == 1
        assert report.equal is True


def test_verify_comparison_plane_line():
    x = P2_CUT.divisor.ambient
    z = P2_CUT.divisor.divisor
    pt = ring.point_class(x)
    report = verify_comparison(P2_CUT, 1, [pt, pt], [ring.unit(z)])
    assert report.equal is True and report.lhs == 1
    report2 = verify_comparison(P2_CUT, 1, [pt], [ring.point_class(z)])
    assert report2.equal is True and report2.lhs == 1
    # A dimensionally mismatched query verifies trivially: both sides zero.
    report3 = verify_comparison(P2_CUT, 1, [pt], [ring.unit(z)])
    assert report3.equal is True and report3.lhs == 0


def test_verify_comparison_unsupported_is_reported():
    g = ring.grassmannian(2, 4)
    # A cut of the plane cannot absorb Grassmannian classes; simulate an
    # unsupported absolute query via too many transfers at high degree.
    x = P2_CUT.divisor.ambient
    z = P2_CUT.divisor.divisor
    pt_z = ring.point_class(z)
    report = verify_comparison(
        P2_CUT,
        2,
        [ring.point_class(x)] * 2,
        [pt_z, pt_z, pt_z],
        require_hypothesis=False,
    )
    assert report.status in ("ok", "unsupported")


def test_enumerate_terms_line_identity():
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    oracle = closed_form_oracle(P1_CUT)
    for m in range(2, 7):
        insertions = [AmbientInsertion(ring.point_class(x))] * (m - 1)
        insertions.append(ShriekInsertion(ring.unit(z)))
        enum = enumerate_terms(P1_CUT, 1, insertions, oracle)
        assert len(enum.terms) == 1
        term = enum.terms[0]
        assert term.delta == 1
        assert term.value == 1
        # The split rule reassembles the original absolute query.
        split = absolute_insertions(P1_CUT, insertions)
        assert split == tuple([ring.point_class(x)] * m)
        assert enum.total == gw_invariant(x, 1, split)


def test_enumerate_terms_dropped_components_all_vanish():
    """Every dropped record citing a vanishing component must name a query
    the predicate actually kills."""
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    oracle = closed_form_oracle(P1_CUT)
    insertions = [AmbientInsertion(ring.point_class(x))] * 2
    insertions.append(ShriekInsertion(ring.unit(z)))
    enum = enumerate_terms(P1_CUT, 1, insertions, oracle)
    from gwcalc.relative import RelQuery

    for reason, payload in enum.dropped:
        if isinstance(payload, RelQuery):
            assert fiber_vanishing(payload) is True, reason


def test_enumerate_terms_plane_line_single_tail():
    table = solve_relative(P2_CUT, 1, (), (ring.unit(P2_CUT.divisor.divisor),))
    enum = enumerate_terms(
        P2_CUT,
        1,
        [ShriekInsertion(ring.unit(P2_CUT.divisor.divisor))],
        table_oracle(table),
    )
    for term in enum.terms:
        assert len(term.components) == 1
        assert total_weight(term.partition) == 1


def test_enumerate_terms_refuses_excess_transfers():
    z = P2_CUT.divisor.divisor
    with pytest.raises(HypothesisViolated):
        enumerate_terms(
            P2_CUT,
            1,
            [ShriekInsertion(ring.unit(z)), ShriekInsertion(ring.unit(z))],
            lambda *a: Fraction(0),
        )


def test_rc_lift_direct_witness():
    for k in (1, 2):
        result = rc_lift(P2_CUT, 1, (), k, ())
        assert result.stage == "direct"
        assert result.value == 1
        x = P2_CUT.divisor.ambient
        assert result.value == gw_invariant(
            x, 1, [ring.point_class(x), ring.point_class(x)]
        )


def test_rc_lift_pads_for_ambient_classes():
    # The hyperplane class keeps its degree on the plane, so the witness
    # <h|_Z, pt, pt>_1 on the line lifts to <h, pt, pt>_1 = 1 on the plane.
    x = P2_CUT.divisor.ambient
    h = ring.by_label(x, "h")
    result = rc_lift(P2_CUT, 1, (h,), 1, ())
    assert result.stage == "direct"
    assert result.value == 1
    assert result.query.insertions == (h, ring.point_class(x), ring.point_class(x))


def test_rc_lift_rejects_zero_witness():
    # Too many point constraints make the divisor witness vanish.
    with pytest.raises((ValueError, Inapplicable)):
        rc_lift(P2_CUT, 1, (), 3, ())


def test_rc_lift_needs_minimal_class():
    with pytest.raises(Inapplicable):
        rc_lift(P2_CUT, 2, (), 2, ())


def test_minimal_partition_selection():
    z = P2_CUT.divisor.divisor
    pt = ring.point_class(z)
    one = ring.unit(z)
    heavy = pairs_of(z, [(1, pt), (1, one)])
    light = pairs_of(z, [(1, one), (1, one)])
    assert _minimal_partition(1, (), [heavy, light]) == heavy
    mixed = pairs_of(z, [(1, pt), (1, pt)])
    assert _minimal_partition(1, (), [mixed, heavy, light]) == mixed


def test_make_cut_requires_ambient():
    from gwcalc.relative import BundleSpec, zero_section_divisor

    with pytest.raises(ValueError):
        make_cut(zero_section_divisor(BundleSpec(ring.projective_space(1), 1)))


def test_cut_weight():
    from gwcalc.degeneration import divisor_weight

    assert divisor_weight(P2_CUT, 3) == 3
    assert divisor_weight(P1_CUT, 2) == 2
