"""Degeneration tests: comparison partitions, the lattice solver and its
round trip, term enumeration with pruning, and the witness lift."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gwcalc import degeneration, quantum, ring
from gwcalc.degeneration import (
    AmbientInsertion,
    BundleComponent,
    DegenerationTerm,
    ShriekInsertion,
    closed_form_oracle,
    comparison_rhs,
    enumerate_terms,
    make_cut,
    rc_lift,
    set_partitions,
    solve_relative,
    table_oracle,
    testbed_cut as named_testbed,
    verify_comparison,
)
from gwcalc.errors import HypothesisViolated, Inapplicable, UnsupportedQuery
from gwcalc.partitions import (
    WeightedPair,
    aut_order,
    deg,
    delta_factor,
    partition_to_text,
    total_weight,
    weighted_pair,
    weighted_partition,
)
from gwcalc.quantum import gw_invariant
from gwcalc.relative import (
    Pullback,
    ZeroSection,
    _vanishing_reason,
    make_fiber_query,
    relative_invariant,
)

from helpers import comparison_partitions

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


def test_index_partition_rows_are_stirling_rows():
    # Row (n, k) holds the S(n, k) partitions into k blocks; the rows joined
    # in order are set_partitions(range(n)).
    stirling = {(0, 0): 1}
    for n in range(10):
        rows = [degeneration._index_partitions(n, k) for k in range(n + 1)]
        for k, row in enumerate(rows):
            if n:
                stirling[n, k] = k * stirling.get((n - 1, k), 0) + stirling.get(
                    (n - 1, k - 1), 0
                )
            assert len(row) == stirling[n, k], (n, k)
        assert [p for row in rows for p in row] == list(set_partitions(range(n)))


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


# Transfers drawn from the divisor's basis, up to this many: {1} on the
# point, {1, h} on P^1, {1, h, h^2} on P^2 and {1, h, h^2, h^3} on P^3.
_REFERENCE_WALK_SIZES = {"p1-pt": 7, "p2-line": 7, "p2-in-p3": 6, "p3-in-p4": 6}


@pytest.mark.parametrize("name", sorted(_REFERENCE_WALK_SIZES))
def test_comparison_partitions_match_reference(name):
    # Same entries, same order, same repeats as the per-block products.  On
    # P^2 and P^3 partitions into equally many blocks can have different
    # multisets of block products, and on P^3 blocks of h^2 and h^3 vanish
    # in more ways.
    if name.endswith("-in-p3"):
        z = ring.hyperplane_divisor(3).divisor
    elif name.endswith("-in-p4"):
        z = ring.hyperplane_divisor(4).divisor
    else:
        z = named_testbed(name).divisor.divisor
    for betas in _beta_families(z, _REFERENCE_WALK_SIZES[name]):
        for weight in range(1, 5):
            assert comparison_partitions(z, betas, weight) == (
                _reference_partitions(z, betas, weight)
            ), (name, betas, weight)


def test_masked_partition_rows():
    # Each row of the table pairs a partition of range(n) with its blocks'
    # bitmasks, which are disjoint and together cover every item.
    for n in range(10):
        full = (1 << n) - 1
        for count in range(n + 1):
            rows = degeneration._masked_partitions(n, count)
            assert [blocks for blocks, _ in rows] == list(
                degeneration._index_partitions(n, count)
            )
            for blocks, masks in rows:
                assert masks == tuple(sum(1 << i for i in b) for b in blocks)
                union = 0
                for mask in masks:
                    assert mask and not union & mask, (n, blocks)
                    union |= mask
                assert union == full, (n, blocks)


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


def _reference_solve(cut, degree, alphas, betas):
    """solve_relative as a per-partition loop over the test's own walk: one
    absolute query per set partition, unknowns keyed on the blocks, each
    coarsening rebuilt as sorted blocks."""
    z = cut.divisor.divisor
    solved, table = {}, {}
    weight = degeneration.divisor_weight(cut, degree)
    for mu, blocks in _reference_partitions(z, betas, weight):
        insertions = tuple(alphas) + tuple(
            ring.shriek_pushforward(cut.divisor, ring.cup_all(z, [betas[i] for i in b]))
            for b in blocks
        )
        try:
            lhs = gw_invariant(cut.divisor.ambient, degree, insertions)
        except UnsupportedQuery as exc:
            raise UnsupportedQuery(
                f"absolute oracle cannot evaluate the merged query for blocks "
                f"{blocks}: {exc}"
            ) from exc
        coarser_sum = Fraction(0)
        for coarser in _reference_set_partitions(len(blocks))[:-1]:
            merged = tuple(
                tuple(sorted(i for g in group for i in blocks[g])) for group in coarser
            )
            coarser_sum += solved.get(merged, 0)
        solved[blocks] = lhs - coarser_sum
        if mu not in table:
            table[mu] = solved[blocks]
        elif table[mu] != solved[blocks]:
            raise AssertionError(
                f"inconsistent relative value for {partition_to_text(mu)}"
            )
    return table


def _solve_outcome(solve, cut, degree, alphas, betas):
    """The solved table in order, or the type and message of the refusal."""
    try:
        return list(solve(cut, degree, alphas, betas).items())
    except (AssertionError, UnsupportedQuery) as exc:
        return type(exc), str(exc)


def _solver_cells(name):
    if name == "p1-pt":
        pt = ring.point_class(P1_CUT.divisor.ambient)
        one = ring.unit(P1_CUT.divisor.divisor)
        for degree, m, points in product(range(1, 4), range(7), range(3)):
            yield P1_CUT, degree, (pt,) * points, (one,) * m
    elif name == "p2-line":
        # Every multiset of {1, pt}, and up to four transfers also of -1 and
        # 2pt, so that some coarsenings solve to negative values, with as
        # many point alphas as the dimension rule asks for.
        pt = ring.point_class(P2_CUT.divisor.ambient)
        z = P2_CUT.divisor.divisor
        one, pt_z = ring.unit(z), ring.point_class(z)
        signed = (one, pt_z, -one, 2 * pt_z)
        for degree, m in product(range(1, 4), range(8)):
            for betas in combinations_with_replacement(signed[: 4 if m <= 4 else 2], m):
                points = 3 * degree - 1 - sum(b.homogeneous_degree() for b in betas) // 2
                if points >= 0:
                    yield P2_CUT, degree, (pt,) * points, betas
    else:
        cut = make_cut(ring.hyperplane_divisor(3))
        x, z = cut.divisor.ambient, cut.divisor.divisor
        for degree, alphas, betas in _hyperplane_queries(x, z, lambda d: d + 1, 4):
            if degree < 3:
                yield cut, degree, alphas, betas


@pytest.mark.parametrize("name", ["p1-pt", "p2-line", "p2-in-p3"])
def test_solver_matches_the_per_partition_loop(name):
    # One merged query per (mu, block count) and bitmask keys give the
    # same table as one query per partition with sorted block keys, and
    # fail at the same partition with the same message.
    def solve(*args):
        return solve_relative(*args, require_hypothesis=False)

    kinds = set()
    for cell in _solver_cells(name):
        outcome = _solve_outcome(solve, *cell)
        assert outcome == _solve_outcome(_reference_solve, *cell), cell
        kinds.add(outcome[0] if isinstance(outcome, tuple) else "ok")
    assert "ok" in kinds
    failure = {"p1-pt": None, "p2-line": AssertionError, "p2-in-p3": UnsupportedQuery}
    if failure[name]:
        assert failure[name] in kinds


def test_solver_evaluates_each_merged_query_once(monkeypatch):
    # The walk has 243 entries but only two (mu, block count) pairs: two
    # and three blocks both give the weighted partition (1,pt)+(1,pt)+(1,1).
    calls = _count_calls(monkeypatch, [degeneration], "gw_invariant")
    x, z = P2_CUT.divisor.ambient, P2_CUT.divisor.divisor
    pt, one = ring.point_class(z), ring.unit(z)
    betas = (pt, one, one, one, one, pt, one)
    alphas = (ring.point_class(x),) * 6
    table = solve_relative(P2_CUT, 3, alphas, betas, require_hypothesis=False)
    assert list(table.values()) == [12]
    assert len(comparison_partitions(z, betas, 3)) == 243
    assert len(calls) == 2


def test_solver_subtracts_coarsenings_once_per_key(monkeypatch):
    # Eight unit transfers at degree 8: the walk reads all Bell(8) = 4,140
    # set partitions, but every partition into k blocks has the weighted
    # partition of eight unit pairs, so there are eight (mu, block count)
    # keys and the coarsening subtraction runs once for each.
    calls = _count_calls(monkeypatch, [degeneration], "_subtract_coarsenings")
    z = P1_CUT.divisor.divisor
    betas = (ring.unit(z),) * 8
    table = solve_relative(P1_CUT, 8, (), betas, require_hypothesis=False)
    assert len(table) == 1
    assert len(comparison_partitions(z, betas, 8)) == 4140
    assert sorted(len(masks) for _, _, masks in calls) == list(range(1, 9))


def test_walk_builds_each_weighted_partition_once(monkeypatch):
    # One weighted_partition call per multiset of block products, on P^2,
    # where partitions into equally many blocks can differ in that multiset.
    monkeypatch.setattr(degeneration, "_last_walk", (None, ()))
    calls = _count_calls(monkeypatch, [degeneration], "weighted_partition")
    z = ring.hyperplane_divisor(3).divisor
    one, h, pt = (ring.basis_element(z, i) for i in range(3))
    for betas in [(one,) * 6, (pt, one, one, h, one, pt, one), (h, h, one, h)]:
        calls.clear()
        reference = _reference_partitions(z, betas, 3)
        walk = comparison_partitions(z, betas, 3)
        assert walk == reference
        shapes = set()
        for _, blocks in reference:
            products = Counter(ring.cup_all(z, [betas[i] for i in b]) for b in blocks)
            shapes.add(frozenset(products.items()))
        assert len(calls) == len(shapes) < len(walk)


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


def test_comparison_rhs_asks_the_oracle_once_per_partition():
    # One oracle call per distinct weighted partition, and still one term per
    # walk entry, equal to the term the oracle gives that entry directly.
    z1 = P1_CUT.divisor.divisor
    plane_cut = make_cut(ring.hyperplane_divisor(3))
    z2 = plane_cut.divisor.divisor
    cases = [
        (P1_CUT, 8, (ring.unit(z1),) * 8, closed_form_oracle(P1_CUT)),
        (
            plane_cut,
            3,
            tuple(ring.by_label(z2, b) for b in ("h", "h", "h", "1", "1")),
            lambda degree, alphas, mu: Fraction(deg(mu), aut_order(mu)),
        ),
    ]
    distinct = []
    for cut, degree, betas, oracle in cases:
        asked = []

        def counted(degree, alphas, mu, oracle=oracle):
            asked.append(mu)
            return oracle(degree, alphas, mu)

        total, terms = comparison_rhs(
            cut, degree, (), betas, counted, require_hypothesis=False
        )
        weight = degeneration.divisor_weight(cut, degree)
        walk = comparison_partitions(cut.divisor.divisor, betas, weight)
        assert terms == [(mu, blocks, oracle(degree, (), mu)) for mu, blocks in walk]
        assert total == sum(value for _, _, value in terms)
        assert len(asked) == len(set(asked)) == len({mu for mu, _ in walk})
        distinct.append((len(walk), len(asked)))
    assert distinct == [(4140, 1), (36, 2)]


def _signed_oracle(degree, alphas, mu):
    """A relative oracle with values of both signs: each pair adds its
    weight's coefficients, negated in odd complex degree."""
    total = sum(
        (-1) ** (pair.weight.homogeneous_degree() // 2) * c
        for pair in mu.pairs
        for _, c in pair.weight.terms()
    )
    return Fraction(total, aut_order(mu))


@pytest.mark.parametrize("name", ["p1-pt", "p2-line", "p2-in-p3"])
def test_comparison_rhs_total_is_the_sum_of_its_terms(name):
    # The total is summed once per distinct weighted partition, count times
    # value; it must equal the sum over the walk's entries.  The oracles are
    # each solvable cell's table, a signed one and on p1-pt the closed form.
    # On p2-line the betas -1 and 2pt solve to negative values, and the
    # signed oracle gives terms of both signs, which cancel.
    oracles = [_signed_oracle]
    if name == "p1-pt":
        oracles.append(closed_form_oracle(P1_CUT))
    negative = mixed = 0
    for cut, degree, alphas, betas in _solver_cells(name):
        cell_oracles = list(oracles)
        try:
            table = solve_relative(cut, degree, alphas, betas, require_hypothesis=False)
        except (AssertionError, UnsupportedQuery):
            pass
        else:
            cell_oracles.append(table_oracle(table))
        for oracle in cell_oracles:
            total, terms = comparison_rhs(
                cut, degree, alphas, betas, oracle, require_hypothesis=False
            )
            values = [value for _, _, value in terms]
            assert total == sum(values, Fraction(0)), (name, degree, alphas, betas)
            negative += min(values, default=0) < 0
            mixed += min(values, default=0) < 0 < max(values, default=0)
    if name != "p1-pt":
        assert negative and mixed, (negative, mixed)


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
_ROUND_TRIP_SIZES = {"p1-pt": 8, "p2-line": 3}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP_SIZES))
def test_solver_round_trip(name):
    """Recovered relative invariants re-sum to every absolute value used,
    and on the point divisor equal the closed form, an independent oracle."""
    cut = named_testbed(name)
    z = cut.divisor.divisor
    x = cut.divisor.ambient
    closed = closed_form_oracle(cut) if z.kind == ring.POINT else None
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
                if closed:
                    for mu, value in table.items():
                        assert value == closed(degree, alphas, mu), (betas, alphas, mu)


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


def _raised(x, beta):
    """The transfer of a class of P^(n-1) into P^n, written out: h^i goes to
    h^(i+1), independently of the divisor's transfer table."""
    return sum(
        (c * ring.basis_element(x, i + 1) for i, c in beta.terms()), ring.zero(x)
    )


def _basis_families(space, max_size):
    pool = [ring.basis_element(space, bc.index) for bc in ring.basis(space)]
    for size in range(max_size + 1):
        yield from combinations_with_replacement(pool, size)


def _hyperplane_queries(x, z, max_transfers, max_alphas):
    """Dimension-matched (degree, alphas, betas) on P^(n-1) in P^n, degrees
    1-3, with at most ``max_transfers(degree)`` transferred basis classes."""
    for degree in range(1, 4):
        for betas in _beta_families(z, max_transfers(degree)):
            for alphas in _basis_families(x, max_alphas):
                classes = alphas + tuple(_raised(x, b) for b in betas)
                real = sum(c.homogeneous_degree() for c in classes)
                if real == quantum.virtual_dimension(x, degree, len(classes)):
                    yield degree, alphas, betas


@pytest.mark.parametrize("n", [3, 4])
def test_hyperplane_round_trip(n):
    """Formal round trips on P^(n-1) in P^n with no more transfers than the
    tangency weight re-sum to the absolute value of the written-out
    transfers."""
    cut = make_cut(ring.hyperplane_divisor(n))
    x, z = cut.divisor.ambient, cut.divisor.divisor
    nonzero = 0
    for degree, alphas, betas in _hyperplane_queries(x, z, lambda d: d, 4):
        try:
            lhs = gw_invariant(x, degree, alphas + tuple(_raised(x, b) for b in betas))
            table = solve_relative(cut, degree, alphas, betas, require_hypothesis=False)
            rhs, _ = comparison_rhs(
                cut, degree, alphas, betas, table_oracle(table), require_hypothesis=False
            )
        except UnsupportedQuery:
            continue
        assert rhs == lhs, (n, degree, alphas, betas)
        nonzero += lhs != 0
    assert nonzero


@pytest.mark.parametrize("n", [3, 4])
def test_hyperplane_verify_comparison_one_transfer(n):
    """Inside the hypothesis on P^(n-1) in P^n, both sides agree and equal
    the absolute value of the written-out transfer."""
    cut = make_cut(ring.hyperplane_divisor(n))
    x, z = cut.divisor.ambient, cut.divisor.divisor
    nonzero = 0
    for degree, alphas, betas in _hyperplane_queries(x, z, lambda d: 1, 3):
        report = verify_comparison(cut, degree, alphas, betas)
        if report.status == "unsupported":
            continue
        lhs = gw_invariant(x, degree, alphas + (_raised(x, betas[0]),))
        assert (report.status, report.lhs, report.equal) == ("ok", lhs, True)
        nonzero += lhs != 0
    assert nonzero


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="formal mode reads no equation of a partition into more blocks "
    "than the weight, so this round trip gives rhs 0 against lhs 1 and "
    "raises nothing",
)
def test_formal_round_trip_past_the_weight():
    pt = ring.point_class(P2_CUT.divisor.divisor)
    betas = (pt, pt)
    lhs = gw_invariant(
        P2_CUT.divisor.ambient,
        1,
        tuple(ring.shriek_pushforward(P2_CUT.divisor, b) for b in betas),
    )
    table = solve_relative(P2_CUT, 1, (), betas, require_hypothesis=False)
    rhs, _ = comparison_rhs(
        P2_CUT, 1, (), betas, table_oracle(table), require_hypothesis=False
    )
    assert rhs == lhs


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
    # Inside the hypothesis (one transfer, V = 1) on P^2 in P^3, four h^2
    # insertions are more than the absolute oracle reduces on P^3.
    cut = make_cut(ring.hyperplane_divisor(3))
    h2 = ring.by_label(cut.divisor.ambient, "h^2")
    report = verify_comparison(cut, 1, (h2,) * 4, (ring.unit(cut.divisor.divisor),))
    assert (report.status, report.lhs, report.rhs, report.equal, report.terms) == (
        "unsupported",
        None,
        None,
        None,
        (),
    )
    assert "more than three non-divisor insertions" in report.detail


def test_closed_form_oracle_refuses_degree_zero():
    # There are no degree-0 fiber lines; the oracle refuses the query
    # instead of failing on it, in verification and in term enumeration.
    x = P1_CUT.divisor.ambient
    report = verify_comparison(P1_CUT, 0, (ring.unit(x),) * 2, ())
    assert (report.status, report.lhs, report.rhs) == ("unsupported", 0, None)
    assert "positive degree" in report.detail
    oracle = closed_form_oracle(P1_CUT)
    with pytest.raises(UnsupportedQuery, match="positive degree"):
        enumerate_terms(P1_CUT, 0, [AmbientInsertion(ring.unit(x))] * 2, oracle)


def absolute_insertions(cut, insertions):
    """The absolute insertions a split family came from: an ambient class as
    itself, a transferred class as its transfer."""
    return tuple(
        ins.cls
        if isinstance(ins, AmbientInsertion)
        else ring.shriek_pushforward(cut.divisor, ins.beta)
        for ins in insertions
    )


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
            assert _vanishing_reason(payload) is not None, reason


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


def _reference_enumeration(cut, degree, insertions, oracle):
    """enumerate_terms as a walk that reads every set partition of the
    transfers and records each one past the tangency weight on its own."""
    z = cut.divisor.divisor
    shrieks = [i.beta for i in insertions if isinstance(i, ShriekInsertion)]
    ambients = tuple(i.cls for i in insertions if isinstance(i, AmbientInsertion))
    weight = degeneration.divisor_weight(cut, degree)
    point = len(ring.basis(z)) - 1
    duals = ring.dual_basis(z)
    dropped, terms, total = [], [], Fraction(0)
    if ambients:
        unit_pair = [weighted_pair(1, ring.unit(z))]
        sample = make_fiber_query(
            cut.bundle, 1, [Pullback(ring.unit(z))], weighted_partition(z, unit_pair)
        )
        dropped.append(
            (
                "bundle-side components with pulled-back insertions vanish, so "
                "every ambient insertion stays on the X side",
                sample,
            )
        )
    if weight >= 2:
        heavy_pair = [weighted_pair(2, ring.point_class(z))]
        heavy = make_fiber_query(cut.bundle, 2, [], weighted_partition(z, heavy_pair))
        dropped.append(
            (
                "components of fiber degree two or more (or with several "
                "tangency points) vanish",
                heavy,
            )
        )
    for blocks in _reference_set_partitions(len(shrieks)):
        if len(blocks) > weight:
            reason = "more components than the total tangency weight allows"
            dropped.append((reason, blocks))
            continue
        empties = weight - len(blocks)
        choices = [range(point + 1)] * len(blocks) + [[point]] * empties
        for assignment in product(*choices):
            components = []
            for block, widx in zip(blocks + ((),) * empties, assignment):
                betas = tuple(shrieks[i] for i in block)
                gamma = ring.basis_element(z, widx)
                query = make_fiber_query(
                    cut.bundle,
                    1,
                    [ZeroSection(b) for b in betas],
                    weighted_partition(z, [weighted_pair(1, gamma)]),
                )
                v = relative_invariant(query)
                if v == 0:
                    dropped.append(("component integral vanishes", query))
                    break
                components.append(BundleComponent(betas, gamma, v))
            else:
                mu = weighted_partition(
                    z, [weighted_pair(1, c.tangency_weight) for c in components]
                )
                mu_dual = weighted_partition(
                    z,
                    [
                        weighted_pair(1, ring.basis_element(z, duals[w].index))
                        for w in assignment
                    ],
                )
                x_value = oracle(degree, ambients, mu_dual)
                value = x_value
                for c in components:
                    value *= c.value
                term = DegenerationTerm(
                    degree=degree,
                    x_insertions=ambients,
                    x_partition=mu_dual,
                    partition=mu,
                    components=tuple(components),
                    delta=delta_factor(mu),
                    x_value=x_value,
                    value=value,
                )
                if value == 0:
                    dropped.append(("X-side relative invariant vanishes", term))
                else:
                    terms.append(term)
                    total += value
    return tuple(terms), tuple(dropped), total


def test_enumerate_terms_matches_the_full_walk():
    # The over-weight tail comes from the partition table, after the kept
    # partitions' records and in the walk's order.
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    oracle = closed_form_oracle(P1_CUT)
    for degree in (1, 2):
        for points in range(4):
            for m in range(9):
                insertions = [AmbientInsertion(ring.point_class(x))] * points
                insertions += [ShriekInsertion(ring.unit(z))] * m
                enum = enumerate_terms(P1_CUT, degree, insertions, oracle)
                reference = _reference_enumeration(P1_CUT, degree, insertions, oracle)
                assert (enum.terms, enum.dropped, enum.total) == reference, (
                    degree,
                    points,
                    m,
                )


def test_enumerate_terms_records_every_over_weight_partition():
    # 2 + 10 insertions: Bell(10) - 1 = 115,974 over-weight partitions, plus
    # the ambient-insertion record.
    x = P1_CUT.divisor.ambient
    z = P1_CUT.divisor.divisor
    insertions = [AmbientInsertion(ring.point_class(x))] * 2
    insertions += [ShriekInsertion(ring.unit(z))] * 10
    enum = enumerate_terms(P1_CUT, 1, insertions, closed_form_oracle(P1_CUT))
    assert len(enum.terms) == 1
    assert enum.total == 1
    assert len(enum.dropped) == 115975


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


def test_lift_on_hyperplanes_is_the_divisor_witness():
    """On P^(n-1) in P^n every lift that passes its preconditions transfers
    the padded witness directly and has the witness's value; none is
    refused for a vanishing ambient query."""
    for n in range(2, 6):
        cut = make_cut(ring.hyperplane_divisor(n))
        x, z = cut.divisor.ambient, cut.divisor.divisor
        lifted = 0
        for degree, k, alphas, betas in product(
            (1, 2), range(4), _basis_families(x, 2), _basis_families(z, 2)
        ):
            try:
                result = rc_lift(cut, degree, alphas, k, betas)
            except (Inapplicable, UnsupportedQuery, ValueError) as exc:
                assert "vanishes although" not in str(exc), (n, degree, k, alphas, betas)
                continue
            padded = betas + (ring.generator_class(z),) * (degree + 1 - k - len(betas))
            witness = (
                tuple(ring.restrict(cut.divisor, a) for a in alphas)
                + (ring.point_class(z),) * k
                + padded
            )
            assert result.stage == "direct"
            assert result.query.insertions == (
                alphas + (ring.point_class(x),) * k + tuple(_raised(x, b) for b in padded)
            )
            assert result.value == gw_invariant(z, degree, witness) != 0
            lifted += 1
        assert lifted, n


def test_rc_lift_refuses_a_vanishing_ambient_query():
    # The line in the plane with an all-zero transfer table: the witness
    # <pt, h>_1 on the line is 1, but the ambient query <pt, 0>_1 vanishes.
    d = ring.hyperplane_divisor(2)
    broken = ring.DivisorDescriptor(
        ambient=d.ambient,
        divisor=d.divisor,
        restriction=d.restriction,
        transfer=(ring.zero(d.ambient),) * len(d.transfer),
        divisor_class=d.divisor_class,
        normal_c1=d.normal_c1,
    )
    with pytest.raises(Inapplicable, match="vanishes although the divisor witness"):
        rc_lift(make_cut(broken), 1, (), 1, ())


def test_make_cut_requires_ambient():
    from gwcalc.relative import BundleSpec
    from helpers import zero_section_divisor

    with pytest.raises(ValueError):
        make_cut(zero_section_divisor(BundleSpec(ring.projective_space(1), 1)))


def test_cut_weight():
    from gwcalc.degeneration import divisor_weight

    assert divisor_weight(P2_CUT, 3) == 3
    assert divisor_weight(P1_CUT, 2) == 2
