"""The package's immutable records on their shared slotted base: equality
and hashing by value within a class and never across classes, the repr a
frozen dataclass printed, no assignment or deletion of a field, copy and
pickle, keyword construction, the ValueError of each bad argument, and
integer fields that store a plain int or refuse a value by name."""

import copy
import dataclasses
import operator
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.exact import FieldDescriptor, Frozen
from noethercheck.galois import Check, Verdict, verdict
from noethercheck.groups import Catalog, GroupFacts, Metacyclic, PermGens, group_facts
from noethercheck.localfields import DiagonalForm, Place
from noethercheck.oracles import Subgroup, UnitSubgroup2n, build_group
from noethercheck.quadforms import IsotropyOutcome

C3 = build_group(PermGens.from_cycles("(1 2 3)"))
S3 = build_group(PermGens.from_cycles("(1 2)", "(1 2 3)"))
RECORD_CLASSES = {
    FieldDescriptor, Check, Verdict, PermGens, Metacyclic, Catalog, Subgroup, Place,
    DiagonalForm, IsotropyOutcome, UnitSubgroup2n, GroupFacts,
}


def _triples():
    """(a, a2, b) per record class: a and a2 built apart and equal, b not.
    A Verdict with a witness holds a dict and so has no hash, as before;
    the equal pair here has none."""
    return [
        (FieldDescriptor(8), FieldDescriptor(2), FieldDescriptor(-1)),
        (FieldDescriptor(), FieldDescriptor(None), FieldDescriptor(3)),
        (Check("x", "pass", "ok"), Check("x", "pass", "ok"), Check("x", "fail", "ok")),
        (
            verdict(Catalog("C8"), FieldDescriptor(-1)),
            verdict(Catalog("C8"), FieldDescriptor(-1)),
            verdict(Catalog("Q16")),
        ),
        (
            PermGens.from_cycles("(1 2)", "(1 2 3)"),
            PermGens(3, ((1, 0, 2), (1, 2, 0))),
            PermGens.from_cycles("(1 2 3)"),
        ),
        (Metacyclic(8, 2, 4, 7), Metacyclic(8, 2, 4, 7), Metacyclic(8, 2, 0, 7)),
        (Catalog("Q16"), Catalog("Q16"), Catalog("SL2_7")),
        (Subgroup(C3, frozenset({0})), Subgroup(C3, frozenset({0})), Subgroup(C3, frozenset({0, 1, 2}))),
        (Place(3), Place(3), Place(None)),
        (DiagonalForm.of(1, 2), DiagonalForm((Fraction(1), Fraction(2))), DiagonalForm.of(2, 1)),
        (IsotropyOutcome("isotropic"), IsotropyOutcome("isotropic"), IsotropyOutcome("anisotropic")),
        (
            UnitSubgroup2n(3, frozenset({1, 7})),
            UnitSubgroup2n(3, frozenset({7, 1})),
            UnitSubgroup2n(3, frozenset({1, 3})),
        ),
        (group_facts(Catalog("Q16")), GroupFacts(16, (2, 2), 16, True), group_facts(Catalog("C8"))),
    ]


def _values(record):
    return tuple(getattr(record, name) for name in record.__slots__)


def test_every_record_class_is_covered():
    assert {type(a) for a, _, _ in _triples()} == RECORD_CLASSES
    assert all(issubclass(cls, Frozen) for cls in RECORD_CLASSES)


def test_equality_and_hash_by_value_within_a_class():
    for a, a2, b in _triples():
        assert a is not a2
        assert a == a2 and not a != a2, a
        assert hash(a) == hash(a2), a
        assert a != b and not a == b, a
        assert len({a, a2}) == 1, a


def test_perm_gens_stores_image_tuples():
    # generators given as lists are stored as tuples, so the record hashes
    # and equals the one built from tuples
    a = PermGens(3, ([1, 2, 0],))
    b = PermGens(3, ((1, 2, 0),))
    assert a.generators == ((1, 2, 0),)
    assert a == b and hash(a) == hash(b)


def test_field_descriptor_of_a_square_multiple_is_the_squarefree_one():
    assert FieldDescriptor(8) == FieldDescriptor(2)
    assert hash(FieldDescriptor(8)) == hash(FieldDescriptor(2))
    assert FieldDescriptor(8).d == 2 and FieldDescriptor(-12).d == -3


def test_never_equal_across_classes():
    records = [x for triple in _triples() for x in triple]
    for x, y in combinations(records, 2):
        if type(x) is not type(y):
            assert x != y and not x == y, (x, y)
    # the same field values in another class, or bare, are not equal either
    assert Place(3) != FieldDescriptor(3) and Place(3) != Catalog(3)
    assert Catalog("x") != Check("x", "pass", "d") and Place(3) != 3 and Place(3) != (3,)
    assert GroupFacts(8, (8,), 8, False) != (8, (8,), 8, False)


def test_repr_is_the_dataclass_text():
    # as printed by the frozen dataclasses these records replace
    assert repr(FieldDescriptor(8)) == "FieldDescriptor(d=2)"
    assert repr(FieldDescriptor()) == "FieldDescriptor(d=None)"
    assert repr(Place(None)) == "Place(p=None)"
    assert repr(Check("x", "pass", "ok")) == "Check(name='x', result='pass', detail='ok')"
    assert repr(Metacyclic(8, 2, 4, 7)) == "Metacyclic(a=8, b=2, c=4, r=7)"
    assert repr(PermGens.from_cycles("(1 2)", "(1 2 3)")) == (
        "PermGens(degree=3, generators=((1, 0, 2), (1, 2, 0)))"
    )
    assert repr(DiagonalForm.of(1, Fraction(1, 2), -7)) == (
        "DiagonalForm(coeffs=(1, Fraction(1, 2), -7))"
    )
    assert repr(UnitSubgroup2n(3, frozenset({1, 7}))) == "UnitSubgroup2n(n=3, members=frozenset({1, 7}))"
    assert repr(Subgroup(C3, frozenset({0}))) == (
        "Subgroup(group=<group perm(degree 3) of order 3>, members=frozenset({0}))"
    )
    assert repr(group_facts(Catalog("Q16"))) == (
        "GroupFacts(order=16, abelian_invariants=(2, 2), sylow2_order=16, sylow2_is_q16=True)"
    )
    assert repr(verdict(Catalog("C8"), FieldDescriptor(-1))).startswith(
        "Verdict(outcome='inconclusive', theorem=None, witness=None, reasons=("
        "'cyclotomic extension cyclic: Q(sqrt -1)(zeta_(2^3))/Q(sqrt -1)', "
    )
    # and every record against a dataclass with the same fields and values
    for triple in _triples():
        for record in triple:
            cls = type(record)
            reference = dataclasses.make_dataclass(cls.__qualname__, cls.__slots__, frozen=True)
            assert repr(record) == repr(reference(*_values(record)))


def test_fields_cannot_be_assigned_or_deleted():
    for record, _, _ in _triples():
        before = _values(record)
        for name in record.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _values(record) == before


def test_copy_and_pickle_return_an_equal_record():
    for record, _, _ in _triples():
        assert copy.copy(record) == record
        if isinstance(record, Subgroup):
            # a deep copy or a pickle makes a new group table, and tables
            # compare by identity, so the subgroup compares by its members
            for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(clone) is Subgroup and clone.members == record.members
                assert (clone.group.label, clone.group.order) == (record.group.label, record.group.order)
            continue
        assert copy.deepcopy(record) == record
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record) and clone == record


def test_verdict_accepts_keywords():
    v = verdict(Catalog("Q16"))
    fields = dict(zip(Verdict.__slots__, _values(v)))
    assert Verdict(**fields) == v
    assert Verdict(v.outcome, v.theorem, **{k: fields[k] for k in Verdict.__slots__[2:]}) == v
    assert Verdict(**fields).fired


# The classes whose fields the base binds unchecked, each with a full set of
# values; a field missing, repeated or unknown is a TypeError naming the class
BOUND_BY_THE_BASE = {
    GroupFacts: (16, (2, 2), 16, True),
    Verdict: tuple(range(len(Verdict.__slots__))),
    Catalog: ("Q16",),
}


@pytest.mark.parametrize("cls", BOUND_BY_THE_BASE, ids=lambda cls: cls.__name__)
def test_binding_errors_name_the_class(cls):
    values, first = BOUND_BY_THE_BASE[cls], cls.__slots__[0]
    for args, kwargs, given in [
        (values[:-1], {}, f"{len(values) - 1} by position and none"),
        (values + (0,), {}, f"{len(values) + 1} by position and none"),
        (values, {"extra": 0}, f"{len(values)} by position and extra"),
        (values, {first: values[0]}, f"{len(values)} by position and {first}"),
    ]:
        with pytest.raises(TypeError) as err:
            cls(*args, **kwargs)
        assert str(err.value) == (
            f"{cls.__name__}() takes the fields {', '.join(cls.__slots__)} once each,"
            f" given {given} by keyword"
        )
    assert cls(**dict(zip(cls.__slots__, values))) == cls(*values)


def test_diagonal_form_converts_each_coefficient_once():
    half = Fraction(1, 2)
    f = DiagonalForm((half, 3, -7))
    assert f.coeffs[0] is half
    # the canonical type: int exactly when the coefficient is integral
    assert [type(c) for c in f.coeffs] == [Fraction, int, int]
    g = DiagonalForm.of(Fraction(3), 3, True, Fraction(4, 2))
    assert g.coeffs == (3, 3, 1, 2) and all(type(c) is int for c in g.coeffs)
    assert str(g) == "<3,3,1,2>" and str(f) == "<1/2,3,-7>"
    assert f == DiagonalForm.of(half, 3, -7) == DiagonalForm([half, Fraction(3), -7])
    assert DiagonalForm((half,) * 3).coeffs == (half,) * 3
    # a tuple of ints is stored as it is
    ints = (3, -7, 1)
    assert DiagonalForm(ints).coeffs is ints


# Each bad argument and the message the dataclass records raised for it
BAD_ARGUMENTS = [
    (lambda: FieldDescriptor(0), "d = 0 does not give a field"),
    (lambda: FieldDescriptor(9), "d = 9 is a square; use FieldDescriptor() for Q"),
    (lambda: FieldDescriptor(1), "d = 1 is a square; use FieldDescriptor() for Q"),
    (lambda: Check("x", "maybe", "d"), "bad check result: maybe"),
    (lambda: PermGens(0, ((),)), "degree must be at least 1"),
    (lambda: PermGens(3, ()), "at least one generator is required"),
    (lambda: PermGens(3, ((0, 1, 1),)), "not a permutation of 0..2: (0, 1, 1)"),
    (lambda: Metacyclic(0, 2, 0, 1), "a and b must be positive"),
    (
        lambda: Metacyclic(10**13, 10**12, 0, 1),
        "order a*b = 10000000000000000000000000 exceeds metacyclic cap 1000000000000000000000000",
    ),
    (lambda: Metacyclic(8, 2, 8, 1), "c and r must lie in [0, a)"),
    (lambda: Metacyclic(8, 2, 0, 2), "r = 2 is not invertible mod a = 8"),
    (lambda: Metacyclic(9, 2, 0, 4), "r**b != 1 mod a for r = 4, b = 2, a = 9"),
    (lambda: Metacyclic(8, 2, 1, 7), "c*(r - 1) != 0 mod a for c = 1, r = 7, a = 8"),
    (lambda: Subgroup(C3, frozenset({1})), "subgroups contain the identity"),
    (lambda: Subgroup(C3, frozenset({0, 1})), "subgroup order does not divide the group order"),
    # {0, 2} in S3 holds 2 but not its inverse 1; the check finds that as the
    # product 2*2 = 1, and the case keeps the id that names the defect
    pytest.param(
        lambda: Subgroup(S3, frozenset({0, 2})),
        "not closed under multiplication at (2, 2)",
        id="<lambda>-not closed under inversion at 2",
    ),
    (lambda: Subgroup(S3, frozenset({0, 1, 3})), "not closed under multiplication at (1, 3)"),
    (lambda: Place(4), "not a prime: 4"),
    (lambda: Place(1), "not a prime: 1"),
    (lambda: DiagonalForm(()), "a form needs at least one coefficient"),
    (lambda: DiagonalForm.of(1, 0), "diagonal coefficients must be nonzero"),
    (lambda: IsotropyOutcome("undecided"), "bad kind: undecided"),
    (lambda: UnitSubgroup2n(0, frozenset({1})), "n must be at least 1"),
    (lambda: UnitSubgroup2n(3, frozenset({7})), "unit subgroups contain 1"),
    (lambda: UnitSubgroup2n(3, frozenset({1, 4})), "members must be odd residues in (0, 8)"),
    (lambda: UnitSubgroup2n(3, frozenset({1, 9})), "members must be odd residues in (0, 8)"),
]


def test_every_zero_coefficient_is_refused():
    for zero in (0, Fraction(0), Fraction(0, 5), -0):
        for at in range(3):
            coeffs = [Fraction(-3, 2), 7, 1]
            coeffs[at] = zero
            for make in (lambda: DiagonalForm(tuple(coeffs)), lambda: DiagonalForm.of(*coeffs)):
                with pytest.raises(ValueError) as err:
                    make()
                assert str(err.value) == "diagonal coefficients must be nonzero", (zero, at)


@pytest.mark.parametrize("make, message", BAD_ARGUMENTS)
def test_bad_arguments_raise_the_same_message(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


try:
    from numpy import int64
except ImportError:  # the numpy case is skipped where numpy is not installed
    int64 = None

INTEGER_TYPES = [t for t in (int, bool, int64) if t is not None]
OTHER_TYPES = [float, Fraction, Decimal, complex, str]

# each record with integer fields, made from a list of ints: the names its
# errors give them, and a valid list to vary one entry of
RECORDS_OF_INTS = {
    "FieldDescriptor": (FieldDescriptor, ["d"], [17]),
    "Place": (Place, ["p"], [3]),
    "Metacyclic": (Metacyclic, ["a", "b", "c", "r"], [8, 2, 4, 7]),
    "PermGens": (
        lambda degree, *image: PermGens(degree, (image, (1, 2, 0))),
        ["degree", "image", "image", "image"],
        [3, 1, 0, 2],
    ),
}


def _stored_ints(record):
    """Every integer the record stores, the images of PermGens included."""
    if isinstance(record, PermGens):
        return [record.degree, *chain.from_iterable(record.generators)]
    return [getattr(record, name) for name in record.__slots__]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(RECORDS_OF_INTS)),
    st.integers(0, 3),
    st.integers(-20, 20),
    st.sampled_from(INTEGER_TYPES + OTHER_TYPES),
)
def test_integer_fields_store_ints_or_refuse_by_name(kind, at, n, cls):
    # an integer type is read as the int it stands for, so the record and
    # any ValueError are those of that int; any other type is refused by
    # the field's name, an integral float or Fraction too
    make, names, ints = RECORDS_OF_INTS[kind]
    at %= len(ints)
    value = cls(n)
    args, plain = list(ints), list(ints)
    args[at] = value
    if cls in OTHER_TYPES:
        with pytest.raises(TypeError) as err:
            make(*args)
        assert str(err.value) == f"{names[at]} must be an int, not {cls.__name__}: {value!r}"
        return
    plain[at] = operator.index(value)
    try:
        expected = make(*plain)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            make(*args)
        assert str(err.value) == str(exc)
        return
    record = make(*args)
    assert record == expected
    assert all(type(x) is int for x in _stored_ints(record) if x is not None)
