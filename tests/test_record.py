"""The package's value types on the Record base: their fields, construction,
equality, hashing, repr and immutability.  The field lists are the ones the
same types had as frozen dataclasses, and a dataclass built from each list
is the oracle for the repr and the hash."""
import dataclasses
import pickle
from typing import ClassVar

import pytest

from mckay_slodowy.characters import Character, Decomposed
from mckay_slodowy.chebyshev import (
    ChebyshevPoly,
    ClosedFormReport,
    ExponentData,
    IdentityFailure,
    SpectrumReport,
)
from mckay_slodowy.groups import normal_pair
from mckay_slodowy.mckay import (
    Basis,
    Edge,
    FusionData,
    InductionBasis,
    NullVectorReport,
    RepresentationGraph,
    RestrictionBasis,
    fusion_matrices,
    null_vector_check,
)
from mckay_slodowy.poincare import MultiplicityVector, RelationReport
from mckay_slodowy.record import Record
from mckay_slodowy.verify import CheckResult

FIELDS = {
    Character: ("base", "label", "irreducible"),
    Decomposed: ("function", "multiplicities", "table"),
    ChebyshevPoly: ("kind", "n", "poly"),
    IdentityFailure: ("identity", "n", "detail"),
    ClosedFormReport: ("family", "n", "series", "numerator", "denominator"),
    ExponentData: (
        "type_label", "exponents", "coxeter", "finite_type", "finite_exponents", "finite_coxeter",
    ),
    SpectrumReport: (
        "pair_name", "affine_type", "finite_type", "affine_eigenvalues", "chi_v_values",
        "affine_cos_values", "affine_cos_asserted", "affine_cos_matches", "finite_eigenvalues",
        "finite_cos_values", "finite_cos_matches",
    ),
    Basis: ("pair", "members", "mult_vectors", "origins", "labels"),
    RestrictionBasis: ("pair", "members", "mult_vectors", "origins", "labels"),
    InductionBasis: ("pair", "members", "mult_vectors", "origins", "labels"),
    FusionData: ("pair", "V", "A", "B", "rbasis", "ibasis"),
    Edge: ("i", "j", "multiplicity", "arrow_to"),
    RepresentationGraph: ("side", "node_labels", "degrees", "edges", "dynkin_type"),
    NullVectorReport: ("variant", "alpha_A", "alpha_B", "kernel_dims", "annihilations"),
    MultiplicityVector: ("k", "values"),
    RelationReport: ("pair_name", "kind", "relations"),
    CheckResult: ("name", "ok", "detail"),
}
DEFAULTS = {
    Character: {"irreducible": False},
    ExponentData: {"finite_type": None, "finite_exponents": None, "finite_coxeter": None},
    CheckResult: {"detail": ""},
}
# the types that compare and hash by the whole tuple of fields
BY_VALUE = [cls for cls in FIELDS if cls not in (FusionData, NullVectorReport)]


def _values(cls, offset=0):
    return tuple(f"{field}-{offset}" for field in FIELDS[cls])


def _oracle(cls):
    """A frozen dataclass with the same name and fields."""
    return dataclasses.make_dataclass(cls.__qualname__, FIELDS[cls], frozen=True)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert issubclass(cls, Record)
    assert cls._fields == FIELDS[cls]


def test_classvar_annotations_are_not_fields():
    assert RestrictionBasis.verb == "restrict" and InductionBasis.verb == "induce"
    assert "verb" not in Basis._fields and "origin_group" not in Basis._fields


def test_a_subclass_appends_its_fields_to_its_base():
    # evaluated annotations here, strings in the package's modules
    class Point(Record):
        x: int
        y: int = 0
        dimension: ClassVar[int] = 2

    class Point3(Point):
        z: int = 0

    assert Point._fields == ("x", "y") and Point3._fields == ("x", "y", "z")
    assert Point3(1) == Point3(1, 0, 0) == Point3(x=1, z=0)
    assert Point3(1, z=5).z == 5 and Point3(1) != Point(1, 0)
    assert repr(Point3(1)) == (
        "test_a_subclass_appends_its_fields_to_its_base.<locals>.Point3(x=1, y=0, z=0)"
    )


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    mixed = cls(*values[:1], **dict(zip(cls._fields[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert tuple(getattr(record, field) for field in cls._fields) == values


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda cls: cls.__name__)
def test_class_attribute_defaults(cls):
    required = len(cls._fields) - len(DEFAULTS[cls])
    record = cls(*_values(cls)[:required])
    for field, default in DEFAULTS[cls].items():
        assert getattr(record, field) == default
        assert getattr(cls, field) == default
        assert getattr(cls(*_values(cls)[:required], **{field: "given"}), field) == "given"


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_type_error(cls):
    values = _values(cls)
    with pytest.raises(TypeError):
        cls(*values, "one too many")
    with pytest.raises(TypeError):
        cls(*values[: len(values) - len(DEFAULTS.get(cls, ())) - 1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda cls: cls.__name__)
def test_equality_and_hash_by_the_tuple_of_fields(cls):
    a, b, c = cls(*_values(cls)), cls(*_values(cls)), cls(*_values(cls, 1))
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c
    assert hash(a) == hash(_values(cls)) == hash(_oracle(cls)(*_values(cls)))
    assert a != _values(cls) and a != _oracle(cls)(*_values(cls))


def test_equality_compares_the_class():
    values = _values(Basis)
    restriction, induction = RestrictionBasis(*values), InductionBasis(*values)
    assert restriction != induction and induction != restriction
    assert restriction != Basis(*values)
    assert len({restriction, induction, Basis(*values)}) == 3


def test_null_vector_report_leaves_the_annihilations_out_of_its_hash():
    report = null_vector_check(fusion_matrices(normal_pair("E6^2")))
    fields = {field: getattr(report, field) for field in report._fields}
    flipped = {key: not flag for key, flag in report.annihilations.items()}
    other = NullVectorReport(**{**fields, "annihilations": flipped})
    assert hash(other) == hash(report) and other != report
    assert NullVectorReport(**fields) == report and {report: 1}[NullVectorReport(**fields)] == 1


def test_fusion_data_compares_and_hashes_by_identity():
    values = _values(FusionData)
    a, b = FusionData(*values), FusionData(*values)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_no_assignment_or_deletion(cls):
    record = cls(*_values(cls))
    for name in (cls._fields[0], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert getattr(record, cls._fields[0]) == _values(cls)[0]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls):
    values = _values(cls)
    assert repr(cls(*values)) == repr(_oracle(cls)(*values))


def test_repr_of_real_records():
    assert repr(CheckResult("E6^2 frobenius", True)) == (
        "CheckResult(name='E6^2 frobenius', ok=True, detail='')"
    )
    assert repr(Edge(0, 1, 2, None)) == "Edge(i=0, j=1, multiplicity=2, arrow_to=None)"


def test_a_record_survives_pickling():
    record = ExponentData("E_6^(2)", (1, 5, 7, 11), 12, "F_4")
    assert pickle.loads(pickle.dumps(record)) == record
