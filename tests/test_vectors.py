import enum

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
    assert [uid for uid, _ in ds.entries] == [0, 1]
    assert ds.demands[1] == ResourceVector([3, 1])
    with pytest.raises(ValueError):
        DemandSet([(0, ResourceVector([1, 2])), (0, ResourceVector([2, 1]))])
    with pytest.raises(ValueError):
        DemandSet.from_vectors([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        DemandSet.from_vectors([[0, 0]])


def test_demand_set_allows_zero_components():
    ds = DemandSet.from_vectors([[0, 5]])
    assert ds.demands[0][0] == 0


def test_weight_vector_validation():
    w = WeightVector([1, 2])
    assert w[1] == 2
    with pytest.raises(ValueError):
        WeightVector([])
    with pytest.raises(ValueError):
        WeightVector([1, 0])
    with pytest.raises(ValueError):
        WeightVector([1, -2])
