import copy
import enum
import pickle
from fractions import Fraction

import pytest

from fairpool import DemandSet, ResourceVector, WeightVector


def test_resource_vector_basics():
    v = ResourceVector([3, 0, 7])
    assert len(v) == 3
    assert v[2] == 7
    assert list(v) == [3, 0, 7]
    assert v == ResourceVector([3, 0, 7])
    assert v != ResourceVector([3, 0, 8])
    assert hash(v) == hash(ResourceVector([3, 0, 7]))


def test_resource_vector_rejects_bad_components():
    with pytest.raises(ValueError):
        ResourceVector([])
    with pytest.raises(ValueError):
        ResourceVector([1, -1])
    with pytest.raises(ValueError):
        ResourceVector([1.5, 2])
    with pytest.raises(ValueError):
        ResourceVector([True, 2])


class _Units(enum.IntEnum):
    TWO = 2


class _Int(int):
    pass


def test_resource_vector_accepts_int_subclasses_but_not_bool():
    assert ResourceVector([_Int(3), 0]).quantities == (3, 0)
    assert ResourceVector([_Units.TWO, 1]) == ResourceVector([2, 1])
    for flag in (False, True):
        with pytest.raises(ValueError) as info:
            ResourceVector([1, flag])
        assert str(info.value) == f"resource quantity must be an integer, got {flag}"


@pytest.mark.parametrize(
    "components, message",
    [
        ([-1], "resource quantity must be non-negative, got -1"),
        ([_Int(-2)], "resource quantity must be non-negative, got -2"),
        ([1.0], "resource quantity must be an integer, got 1.0"),
        (["1"], "resource quantity must be an integer, got '1'"),
        ([None], "resource quantity must be an integer, got None"),
        # components are checked in order, each for type then sign
        ([2, -1, "x"], "resource quantity must be non-negative, got -1"),
        ([2, "x", -1], "resource quantity must be an integer, got 'x'"),
        ([], "resource vector must have at least one component"),
    ],
)
def test_resource_vector_rejection_messages(components, message):
    with pytest.raises(ValueError) as info:
        ResourceVector(components)
    assert str(info.value) == message


def test_resource_vector_arithmetic():
    a = ResourceVector([5, 8])
    b = ResourceVector([2, 3])
    assert b.scale(4) == ResourceVector([8, 12])
    assert ResourceVector([0, 0]).is_zero()
    assert not a.is_zero()


def test_demand_set_validation():
    ds = DemandSet.from_vectors([[1, 4], [3, 1]])
    assert ds[1] == ResourceVector([3, 1])
    with pytest.raises(ValueError):
        DemandSet.from_vectors([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        DemandSet.from_vectors([[0, 0]])
    # an (id, vector) pair is not a demand: users are positions
    with pytest.raises(ValueError, match="^demand must be a ResourceVector$"):
        DemandSet([(0, ResourceVector([1, 2]))])


def test_demand_set_allows_zero_components():
    ds = DemandSet.from_vectors([[0, 5]])
    assert ds[0][0] == 0


def test_weight_vector_validation():
    w = WeightVector([1, 2])
    assert w[1] == 2
    with pytest.raises(ValueError):
        WeightVector([])
    with pytest.raises(ValueError):
        WeightVector([1, 0])
    with pytest.raises(ValueError):
        WeightVector([1, -2])


@pytest.mark.parametrize("text", ["1/2", " 3 ", "2", "0.5"])
def test_weight_vector_rejects_text(text):
    # Fraction would parse each of these; a weight must be a number.
    with pytest.raises(ValueError) as error:
        WeightVector([1, text])
    assert str(error.value) == f"weights must be rational: got the string {text!r}"


# --- vectors are validated tuples ------------------------------------------------

_VECTORS = [
    ResourceVector([3, 0, 7]),
    WeightVector([1, Fraction(1, 2)]),
    DemandSet.from_vectors([[1, 4], [3, 1]]),
]


@pytest.mark.parametrize("v", _VECTORS, ids=lambda v: type(v).__name__)
def test_vector_is_the_tuple_of_its_values(v):
    values = tuple(iter(v))
    assert isinstance(v, tuple)
    assert v == values and values == v
    assert hash(v) == hash(values)
    assert {v: 1}[values] == 1


@pytest.mark.parametrize("v", _VECTORS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "copy_of",
    [copy.deepcopy, copy.copy]
    + [
        lambda v, p=p: pickle.loads(pickle.dumps(v, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    ],
    ids=["deepcopy", "copy"]
    + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_vector_copies_keep_type_and_value(v, copy_of):
    c = copy_of(v)
    assert type(c) is type(v)
    assert c == v
    assert repr(c) == repr(v)


def test_resource_vector_of_a_resource_vector_is_a_new_equal_vector():
    v = ResourceVector([3, 0, 7])
    w = ResourceVector(v)
    assert w is not v and w == v and type(w) is ResourceVector


def test_vector_operators_are_tuple_operations():
    a, b = ResourceVector([5, 8]), ResourceVector([2, 9])
    # concatenation and repetition, as plain tuples; no vector arithmetic
    assert a + b == (5, 8, 2, 9) and type(a + b) is tuple
    assert a * 2 == (5, 8, 5, 8) and type(a * 2) is tuple
    # lexicographic order, not component by component
    assert b < a and not all(x < y for x, y in zip(b, a))
    w = WeightVector([1, 2])
    assert w + w == (1, 2, 1, 2) and type(w + w) is tuple
    ds = DemandSet.from_vectors([[1, 4]])
    assert type(ds + ds) is tuple and len(ds + ds) == 2


def test_demand_set_and_weight_vector_values():
    ds = DemandSet([ResourceVector([1, 2]), ResourceVector([2, 1])])
    assert ds == ((1, 2), (2, 1))
    assert len(ds) == 2
    w = WeightVector([1, 2.5])
    assert all(type(x) is Fraction for x in w)
    assert w == (1, Fraction(5, 2))


def test_resource_vector_scale_rejects_a_negative_count():
    with pytest.raises(ValueError, match="scale count must be non-negative"):
        ResourceVector([1, 2]).scale(-1)
