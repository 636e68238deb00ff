"""Value semantics shared by every immutable record class in the package."""

import copy
import itertools
import pickle

import pytest

from recdig.bijections import (
    DoublyRootedTree,
    PermutedForest,
    PointedLeafTree,
    StructureError,
    TwoSortTree,
)
from recdig.oracle import ClassPredicate
from recdig.series import CoeffSeq, ShapeError
from recdig.stats import AsymptoticsRow, IdentityCheck
from recdig.tables import CoeffTable

# One valid argument tuple per class, in constructor order.
SAMPLES = {
    CoeffSeq: ((1, 2, 6), False),
    CoeffTable: (((1, 0), (1,)), False),
    ClassPredicate: ("idempotent", 2),
    DoublyRootedTree: ((None, 1, 1), 3),
    TwoSortTree: ((None, 1), (2,)),
    PointedLeafTree: ((None,), (1, 1), 1),
    PermutedForest: ((2, 1), (1,)),
    IdentityCheck: ("ballot", (1, 2), 7, 7),
    AsymptoticsRow: ("cycles", 3, 17, 6, "2.8333333333", "1.2"),
}
CLASSES = list(SAMPLES)


def sample(cls):
    return cls(*SAMPLES[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = sample(cls)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == sample(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = sample(cls), sample(cls)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}({cls.__slots__[0]}=")


def test_coefficient_containers_ignore_virtual():
    assert CoeffSeq((1, 2), virtual=True) == CoeffSeq((1, 2))
    assert hash(CoeffSeq((1, 2), virtual=True)) == hash(CoeffSeq((1, 2)))
    assert CoeffTable(((1, 0), (1,)), virtual=True) == CoeffTable(((1, 0), (1,)))
    assert CoeffSeq((1, 2)) != CoeffSeq((1, 3))
    assert ClassPredicate("idempotent", 2) != ClassPredicate("idempotent", 3)
    assert DoublyRootedTree((None, 1, 1), 3) != DoublyRootedTree((None, 1, 1), 2)


def test_records_of_different_classes_are_unequal():
    records = [sample(cls) for cls in CLASSES]
    for a, b in itertools.permutations(records, 2):
        assert a != b
    # Neither equal to the plain tuple of their fields (as a NamedTuple is),
    # nor to a record of another class holding the same field values.
    for cls, args in SAMPLES.items():
        assert sample(cls) != args

    class Renamed(PermutedForest):
        pass

    assert Renamed((1,), ()) != PermutedForest((1,), ())
    assert CoeffSeq((1,)) != CoeffTable(((1,),))


def _listed(value):
    """value with every tuple in it, nested ones too, made a list."""
    if isinstance(value, tuple):
        return [_listed(item) for item in value]
    return value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_list_fields_are_stored_as_tuples(cls):
    args = tuple(map(_listed, SAMPLES[cls]))
    record = cls(*args)
    assert record == sample(cls)
    assert hash(record) == hash(sample(cls))
    assert repr(record) == repr(sample(cls))
    for name in cls.__slots__:
        assert type(getattr(record, name)) is type(getattr(sample(cls), name))


def test_records_with_nothing_to_check_get_a_generated_constructor():
    for cls in (IdentityCheck, AsymptoticsRow):
        assert cls.__init__.__code__.co_filename == "<string>"
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert cls.__init__.__code__.co_varnames[1:] == cls.__slots__

    class Checked(PermutedForest):
        pass

    # A subclass keeps the checks of the constructor it inherits.
    assert Checked.__init__ is PermutedForest.__init__
    with pytest.raises(StructureError):
        Checked((2,), ())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_rerun_the_constructor(cls, monkeypatch):
    record = sample(cls)
    calls = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record
    deep = copy.deepcopy(record)
    assert type(deep) is cls and deep == record
    assert copy.copy(record) == record
    assert len(calls) == pickle.HIGHEST_PROTOCOL + 3
    assert all(args == SAMPLES[cls] for args in calls)


def test_restored_virtual_flag_survives():
    seq = CoeffSeq((1, -1), virtual=True)
    assert pickle.loads(pickle.dumps(seq)).virtual is True
    assert copy.deepcopy(seq).virtual is True


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CoeffSeq(()), ShapeError,
         "a sequence needs at least the size-0 count"),
        (lambda: CoeffSeq((1, -1)), ValueError,
         "negative count in concrete sequence: (1, -1)"),
        (lambda: CoeffSeq(counts=(1,), label="x"), TypeError,
         "CoeffSeq.__init__() got an unexpected keyword argument 'label'"),
        (lambda: CoeffTable(()), ShapeError,
         "a table needs at least the (0, 0) cell"),
        (lambda: CoeffTable(((1, 0), (1, 2))), ShapeError,
         "row 1 has 2 entries, expected 1"),
        (lambda: CoeffTable(((1, -1), (0,))), ValueError,
         "negative count in concrete table"),
        (lambda: ClassPredicate("nope"), ValueError, "unknown class 'nope'"),
        (lambda: ClassPredicate("forest", 7), ValueError,
         "class forest takes no parameter"),
        (lambda: ClassPredicate("idempotent"), ValueError,
         "idempotent class needs a parameter k >= 2"),
        (lambda: DoublyRootedTree((None, 1), 3), StructureError,
         "the tail must be a node of the tree"),
        (lambda: DoublyRootedTree((None, None), 1), StructureError,
         "expected exactly one root"),
        (lambda: DoublyRootedTree((None,)), TypeError,
         "DoublyRootedTree.__init__() missing 1 required positional "
         "argument: 'tail'"),
        (lambda: TwoSortTree((), ()), StructureError,
         "a two-sort tree needs an internal root"),
        (lambda: TwoSortTree((None, 1), ()), StructureError,
         "non-root internal node 2 has no children"),
        (lambda: PointedLeafTree((None,), (), 2), StructureError,
         "the extra leaf must hang from an internal node"),
        (lambda: PermutedForest((2,), ()), StructureError,
         "node 1 image 2 outside [1..1]"),
        (lambda: PermutedForest((1, 1), ()), StructureError,
         "internal node 2 has no preimage"),
        (lambda: IdentityCheck("x", (1,), 2), TypeError,
         "IdentityCheck.__init__() missing 1 required positional argument: "
         "'rhs'"),
        (lambda: AsymptoticsRow("s", 1, 1, 2, "0.5", reference="r", extra=1),
         TypeError,
         "AsymptoticsRow.__init__() got an unexpected keyword argument "
         "'extra'"),
    ],
)
def test_constructors_reject_malformed_input(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_negative_cells_past_the_first_row_are_rejected():
    for rows in (((1, 0, 2), (3, -1), (0,)), ((1, 0, 2), (3, 0), (-1,))):
        with pytest.raises(ValueError) as info:
            CoeffTable(rows)
        assert str(info.value) == "negative count in concrete table"
        assert CoeffTable(rows, virtual=True).rows == rows


def test_keyword_construction_and_defaults():
    assert CoeffSeq(counts=(1,)).virtual is False
    assert CoeffTable(rows=((1,),)).virtual is False
    assert ClassPredicate(name="forest").param is None
    assert PermutedForest(x_image=(1,), y_parent=()).x_image == (1,)
    assert IdentityCheck(identity="i", index=(), lhs=1, rhs=2).ok is False
