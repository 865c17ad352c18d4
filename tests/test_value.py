"""Value semantics of the immutable types: construction, equality, hashing,
repr and immutability, and an import that needs no dataclass machinery."""

import copy
import os
import pickle
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gwcalc import degeneration, partitions, ring
from gwcalc.degeneration import (
    AmbientInsertion,
    ComparisonReport,
    DegenerationTerm,
    ShriekInsertion,
    closed_form_oracle,
    comparison_rhs,
    enumerate_terms,
    solve_relative,
    table_oracle,
)
from gwcalc.degeneration import testbed_cut as named_cut
from gwcalc.partitions import (
    InvariantKey,
    WeightedPair,
    WeightedPartition,
    empty_partition,
    pairs_of,
    parse_partition,
    weighted_pair,
    weighted_partition,
)
from gwcalc.quantum import gw_invariant
from gwcalc.relative import FiberClass, SectionClass, ZeroSection
from gwcalc.value import Value

SRC = Path(__file__).resolve().parents[1] / "src"
P1 = ring.projective_space(1)
G24 = ring.grassmannian(2, 4)


def test_equal_values_hash_equal_before_and_after_caching():
    # Built around the shared constructors, so the two are distinct objects.
    a = ring.RingElement(ring.Space("projective", (1,)), ((0, Fraction(1, 3)), (1, Fraction(2))))
    b = ring.RingElement(ring.Space("projective", (1,)), ((0, Fraction(2, 6)), (1, Fraction(2))))
    assert a is not b and a.space is not b.space
    # The first pass computes and stores each hash, the second reads it back.
    assert a == b and hash(a) == hash(b)
    assert a == b and hash(a) == hash(b)
    c = ring.element(P1, {0: Fraction(1, 3), 1: 2})
    assert hash(c) == hash(a)
    assert {a: "value"}[ring.element(P1, {0: Fraction(1, 3), 1: 2})] == "value"
    assert a != ring.element(P1, {0: Fraction(1, 3), 1: 3})


def test_equality_is_within_one_class():
    assert FiberClass(1) != SectionClass(1)
    assert not FiberClass(1) == SectionClass(1)
    assert FiberClass(1) == FiberClass(1)
    c = ring.unit(P1)
    assert AmbientInsertion(c) != ShriekInsertion(c)
    assert AmbientInsertion(c) == AmbientInsertion(ring.unit(P1))
    assert FiberClass(1) != (1,)


def test_keyword_construction_and_defaults():
    assert ring.Space("projective") == ring.Space(kind="projective", params=())
    assert ring.Space("projective").params == ()
    pt = ring.point_class(P1)
    assert ZeroSection(pt).psi_power == 0
    assert ZeroSection(pt, 2) == ZeroSection(cls=pt, psi_power=2)
    key = InvariantKey(1, (), empty_partition(P1))
    assert key == InvariantKey(degree=1, insertions=(), partition=empty_partition(P1))
    assert ComparisonReport("ok", 1, 1, True, ()).detail == ""
    divisor = ring.hyperplane_divisor(2)
    assert divisor.ambient == ring.projective_space(2)
    assert divisor.normal_c1 == ring.basis_element(ring.projective_space(1), 1)
    cut = named_cut("p1-pt")
    insertions = [AmbientInsertion(ring.point_class(P1))] * 2
    insertions.append(ShriekInsertion(ring.unit(ring.point_space())))
    (term,) = enumerate_terms(cut, 1, insertions, closed_form_oracle(cut)).terms
    names = ("degree", "x_insertions", "x_partition", "partition", "components")
    names += ("delta", "x_value", "value")
    rebuilt = DegenerationTerm(**{name: getattr(term, name) for name in names})
    assert rebuilt == term


def test_construction_checks_its_fields():
    with pytest.raises(TypeError, match="missing fields kind"):
        ring.Space()
    with pytest.raises(TypeError, match="takes 2 fields, got 3"):
        ring.Space("point", (), 1)
    with pytest.raises(TypeError, match="unexpected or repeated field 'kind'"):
        ring.Space("point", kind="point")
    with pytest.raises(TypeError, match="unexpected or repeated field 'rank'"):
        ring.Space("point", rank=1)


def test_repr_names_every_field():
    assert repr(G24) == "Space(kind='grassmannian', params=(2, 4))"
    assert repr(ZeroSection(ring.unit(ring.point_space()))) == (
        "ZeroSection(cls=RingElement(space=Space(kind='point', params=()), "
        "coeffs=((0, Fraction(1, 1)),)), psi_power=0)"
    )


def test_assignment_and_deletion_are_refused():
    with pytest.raises(AttributeError):
        G24.kind = "projective"
    with pytest.raises(AttributeError):
        G24.rank = 3
    with pytest.raises(AttributeError):
        del G24.params
    assert G24 == ring.grassmannian(2, 4)


def test_weighted_pair_validation():
    one = ring.unit(P1)
    with pytest.raises(ValueError, match="multiplicity must be positive"):
        WeightedPair(0, one)
    with pytest.raises(ValueError, match="must be nonzero"):
        WeightedPair(1, ring.zero(P1))
    with pytest.raises(ValueError, match="must be homogeneous"):
        WeightedPair(1, one + ring.point_class(P1))
    assert WeightedPair(2, one).weight_degree == 0


def test_copy_and_pickle_round_trip():
    pt = ring.point_class(G24)
    for value in (G24, pt, ZeroSection(pt, 1)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)


def test_constructors_share_one_object_per_value():
    assert ring.make_space("gr:2:4") is ring.grassmannian(2, 4)
    assert ring.make_space("p2") is ring.make_space("pn:2") is ring.projective_space(2)
    assert ring.make_space("point") is ring.point_space()
    for z in (ring.point_space(), P1, ring.projective_space(3), G24):
        pt = ring.by_label(z, "pt")
        assert ring.cup(ring.unit(z), pt) is ring.point_class(z)
        assert ring.zero(z) is ring.element(z, {0: 0}) is pt - pt
    half = Fraction(1, 2)
    assert ring.element(G24, {0: 1, 2: half, 5: -1}) is ring.element(G24, {5: -1, 0: 1, 2: half})
    divisor = ring.hyperplane_divisor(2)
    h = ring.generator_class(divisor.divisor)
    assert ring.restrict(divisor, ring.by_label(divisor.ambient, "h")) is h
    assert ring.shriek_pushforward(divisor, h) is ring.by_label(divisor.ambient, "h^2")


def test_pairs_in_any_order_share_one_partition():
    z = ring.projective_space(2)
    one, h, pt = (ring.by_label(z, label) for label in ("1", "h", "pt"))
    pairs = [weighted_pair(2, h), weighted_pair(1, pt), weighted_pair(1, one), weighted_pair(1, pt)]
    assert weighted_pair(2, h) is pairs[0] and pairs[1] is pairs[3]
    shared = weighted_partition(z, pairs)
    for order in (pairs[::-1], pairs[1:] + pairs[:1], iter(pairs)):
        assert weighted_partition(z, order) is shared
    assert shared.pairs == tuple(sorted(pairs, key=partitions._canonical_key))
    assert empty_partition(z) is weighted_partition(z, ()) is parse_partition(z, "empty")


def test_every_route_to_a_partition_gives_the_shared_object():
    z = ring.projective_space(1)
    one, pt = ring.unit(z), ring.point_class(z)
    shared = weighted_partition(z, [weighted_pair(1, pt), weighted_pair(2, one)])
    assert pairs_of(z, [(2, one), (1, pt)]) is shared
    assert parse_partition(z, "(1,pt)+(2,1)") is shared
    # Built around weighted_pair, the pairs still lead to the shared
    # partition, and the shared partition keeps the shared pairs.
    assert weighted_partition(z, [WeightedPair(2, one), WeightedPair(1, pt)]) is shared
    assert all(p is weighted_pair(p.multiplicity, p.weight) for p in shared.pairs)
    # The solver's keys are the walk's partitions, and every other route
    # reaches them too; the labels "2*1" and "6*1" do not parse back.
    cut = named_cut("p2-line")
    x = cut.divisor.ambient
    for n_points, betas, parsed in ((3, [pt, one, one], 1), (5, [2 * one, 3 * one], 0)):
        alphas = [ring.point_class(x)] * n_points
        walk = degeneration.comparison_partitions(z, betas, 2)
        table = solve_relative(cut, 2, alphas, betas, require_hypothesis=False)
        assert len(table) == 2 - parsed
        for mu in table:
            assert pairs_of(z, [(p.multiplicity, p.weight) for p in mu.pairs]) is mu
            assert any(walk_mu is mu for walk_mu, _ in walk)
            if parsed:
                assert parse_partition(z, partitions.partition_to_text(mu)) is mu


def test_refused_pairs_and_partitions_are_refused_on_every_call():
    z = ring.projective_space(1)
    one = ring.unit(z)
    # The same pair over its own space is stored first; over z it is refused.
    elsewhere = weighted_pair(1, ring.unit(ring.projective_space(2)))
    assert weighted_partition(ring.projective_space(2), [elsewhere]).pairs == (elsewhere,)
    refused = [
        ("multiplicity must be positive", lambda: weighted_pair(0, one)),
        ("multiplicity must be positive", lambda: pairs_of(z, [(0, one)])),
        ("must be nonzero", lambda: weighted_pair(1, ring.zero(z))),
        ("must be homogeneous", lambda: weighted_pair(1, one + ring.point_class(z))),
        ("wrong space", lambda: weighted_partition(z, [elsewhere])),
        ("wrong space", lambda: pairs_of(z, [(1, one), (1, elsewhere.weight)])),
    ]
    for message, build in refused:
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                build()


def test_pair_and_partition_twins_compare_equal_and_key_dicts():
    z = ring.projective_space(2)
    h = ring.generator_class(z)
    pair = weighted_pair(2, h)
    mu = pairs_of(z, [(2, h), (1, ring.point_class(z))])
    direct_pair = WeightedPair(2, ring.RingElement(ring.Space("projective", (2,)), ((1, Fraction(1)),)))
    direct_mu = WeightedPartition(
        ring.Space("projective", (2,)), tuple(WeightedPair(p.multiplicity, p.weight) for p in mu.pairs)
    )
    for value, direct in ((pair, direct_pair), (mu, direct_mu)):
        twins = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)), direct]
        for twin in twins:
            assert twin == value and value == twin and hash(twin) == hash(value)
            assert {value: "value"}[twin] == "value"
            assert {twin: "value"}[value] == "value"
            assert repr(twin) == repr(value)
    assert direct_pair.weight_degree == pair.weight_degree == 2


def test_threads_racing_on_new_partitions_share_one_object(monkeypatch):
    # As for ring elements: every multiplicity is new to the process, the
    # threads meet before each one, and building a pair or a partition
    # sleeps, so they race to store each entry and must all get the stored
    # object back.
    build_pair, build_partition = partitions.WeightedPair, partitions.WeightedPartition

    def slow_pair(*fields):
        time.sleep(0.001)
        return build_pair(*fields)

    def slow_partition(*fields):
        time.sleep(0.001)
        return build_partition(*fields)

    monkeypatch.setattr(partitions, "WeightedPair", slow_pair)
    monkeypatch.setattr(partitions, "WeightedPartition", slow_partition)
    z = ring.grassmannian(3, 6)
    weight = ring.point_class(z)
    multiplicities = range(7919, 7919 + 40)
    results = [[] for _ in range(6)]
    step = threading.Barrier(len(results))

    def build(slot):
        for m in multiplicities:
            step.wait(timeout=30)
            results[slot].append(weighted_partition(z, [weighted_pair(m, weight)]))

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    first = results[0]
    assert len(first) == len(multiplicities)
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))
        assert all(a.pairs[0] is b.pairs[0] for a, b in zip(first, other))


def test_values_built_around_the_constructors_compare_equal():
    shared = ring.element(G24, {1: 2, 3: Fraction(1, 3)})
    assert ring.element(G24, {3: Fraction(2, 6), 1: 2}) is shared
    direct = ring.RingElement(
        ring.Space("grassmannian", (2, 4)), ((1, Fraction(2)), (3, Fraction(1, 3)))
    )
    unpickled = pickle.loads(pickle.dumps(shared))
    for twin in (direct, unpickled):
        assert twin is not shared
        assert twin == shared and shared == twin and hash(twin) == hash(shared)
        assert {shared: "value"}[twin] == "value"
    assert direct.space == G24 and hash(direct.space) == hash(G24)


def test_threads_racing_on_new_elements_share_one_object(monkeypatch):
    # Every coefficient is new to the process, the threads meet before each
    # one, and building an element sleeps, so they all miss the table and
    # race to store the entry; each must still hand back the stored object.
    build_element = ring.RingElement

    def slow_build(*fields):
        time.sleep(0.001)
        return build_element(*fields)

    monkeypatch.setattr(ring, "RingElement", slow_build)
    space = ring.grassmannian(3, 6)
    coefficients = [Fraction(k, 7919) for k in range(1, 60)]
    results = [[] for _ in range(6)]
    step = threading.Barrier(len(results))

    def build(slot):
        for q in coefficients:
            step.wait(timeout=30)
            results[slot].append(ring.element(space, {1: q, 2: 1}))

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    first = results[0]
    assert len(first) == len(coefficients)
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))


def test_repeated_round_trip_compares_no_distinct_ring_values(monkeypatch):
    # A second identical formal round trip finds every memo entry keyed on
    # spaces and ring elements by identity, never field by field.
    cut = named_cut("p2-line")
    x, z = cut.divisor.ambient, cut.divisor.divisor

    def round_trip():
        alphas = [ring.by_label(x, "pt")] * 4
        betas = [ring.by_label(z, b) for b in ("1", "pt", "1", "1")]
        table = solve_relative(cut, 2, alphas, betas, require_hypothesis=False)
        oracle = table_oracle(table)
        rhs, _ = comparison_rhs(cut, 2, alphas, betas, oracle, require_hypothesis=False)
        shrieks = [ring.shriek_pushforward(cut.divisor, b) for b in betas]
        return gw_invariant(x, 2, alphas + shrieks), rhs

    first = round_trip()
    assert first[0] == first[1]
    distinct = {}
    field_wise = Value.__eq__

    def counting_eq(self, other):
        if other is not self:
            name = type(self).__name__
            distinct[name] = distinct.get(name, 0) + 1
        return field_wise(self, other)

    monkeypatch.setattr(Value, "__eq__", counting_eq)
    assert round_trip() == first
    monkeypatch.undo()
    assert distinct.get("RingElement", 0) == distinct.get("Space", 0) == 0, distinct


def test_first_round_trip_compares_no_distinct_partitions(monkeypatch):
    # Even a first round trip, which walks the lattice afresh, finds every
    # weighted partition in the solver's table and the oracle by identity.
    monkeypatch.setattr(degeneration, "_last_walk", (None, ()))
    cut = named_cut("p2-line")
    x, z = cut.divisor.ambient, cut.divisor.divisor
    alphas = [ring.by_label(x, "pt")] * 6
    betas = [ring.by_label(z, b) for b in ("pt", "1", "1", "pt", "1", "1", "1")]
    distinct = {}
    field_wise = Value.__eq__

    def counting_eq(self, other):
        if other is not self:
            name = type(self).__name__
            distinct[name] = distinct.get(name, 0) + 1
        return field_wise(self, other)

    monkeypatch.setattr(Value, "__eq__", counting_eq)
    table = solve_relative(cut, 3, alphas, betas, require_hypothesis=False)
    oracle = table_oracle(table)
    rhs, terms = comparison_rhs(cut, 3, alphas, betas, oracle, require_hypothesis=False)
    monkeypatch.undo()
    shrieks = [ring.shriek_pushforward(cut.divisor, b) for b in betas]
    assert rhs == gw_invariant(x, 3, alphas + shrieks) == 2916
    assert len(terms) > 100
    assert distinct.get("WeightedPair", 0) == distinct.get("WeightedPartition", 0) == 0, distinct


def test_every_value_type_is_slotted():
    from gwcalc import degeneration, partitions, quantum, relative

    classes = [
        obj
        for mod in (ring, partitions, quantum, relative, degeneration)
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Value) and obj.__module__ == mod.__name__
    ]
    assert len(classes) == 24
    assert all("__dict__" not in dir(cls) for cls in classes)


def test_import_leaves_out_dataclasses_and_inspect():
    code = (
        "import sys; import gwcalc.cli, gwcalc.degeneration; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
