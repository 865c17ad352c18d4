"""Value semantics of the immutable types: construction, equality, hashing,
repr and immutability, and an import that needs no dataclass machinery."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gwcalc import ring
from gwcalc.degeneration import (
    AmbientInsertion,
    ComparisonReport,
    DegenerationTerm,
    ShriekInsertion,
    closed_form_oracle,
    enumerate_terms,
)
from gwcalc.degeneration import testbed_cut as named_cut
from gwcalc.partitions import InvariantKey, WeightedPair, empty_partition
from gwcalc.relative import FiberClass, SectionClass, ZeroSection
from gwcalc.value import Value

SRC = Path(__file__).resolve().parents[1] / "src"
P1 = ring.projective_space(1)
G24 = ring.grassmannian(2, 4)


def test_equal_values_hash_equal_before_and_after_caching():
    a = ring.element(P1, {0: Fraction(1, 3), 1: 2})
    b = ring.element(ring.make_space("p1"), {1: 2, 0: Fraction(2, 6)})
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
