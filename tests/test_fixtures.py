from fractions import Fraction

import pytest

from fairpool import (
    DemandSet,
    ResourceVector,
    drf_allocate,
    fit_linear,
    fixture_names,
    load_fixture,
    pdrf_allocate,
)
from fairpool.fixtures import parse_fixture


def test_fixture_names_lists_all():
    names = fixture_names()
    assert "drf-classic" in names
    assert "single-user-depletion" in names
    assert "reference-gas-claim" in names
    assert "reference-gas-demand" in names
    assert "reference-gas-update" in names


def test_unknown_fixture():
    with pytest.raises(KeyError):
        load_fixture("no-such-case")


def test_malformed_fixture_rejected():
    with pytest.raises(ValueError):
        parse_fixture("not json {", "broken")
    with pytest.raises(ValueError):
        parse_fixture('{"name": "broken"}', "broken")
    with pytest.raises(ValueError):
        parse_fixture(
            '{"name": "other", "kind": "k", "inputs": {}, '
            '"expected": {}, "metadata": {}}',
            "broken",
        )


def test_non_object_fixture_rejected():
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_fixture("[]", "x")


@pytest.mark.parametrize("name", ["drf-classic", "single-user-depletion"])
def test_allocation_fixtures_revalidate_against_live_oracles(name):
    case = load_fixture(name)
    assert case.kind == "allocation"
    demands = DemandSet.from_vectors(case.inputs["demands"])
    reserves = ResourceVector(case.inputs["reserves"])
    expected = case.expected

    loop = drf_allocate(demands, reserves)
    pre = pdrf_allocate(demands, reserves)
    assert list(loop.task_counts) == expected["task_counts"]
    assert list(pre.task_counts) == expected["task_counts"]
    assert [list(a) for a in pre.allocations] == expected["allocations"]
    assert list(pre.remaining) == expected["remaining"]
    assert pre.cycles == Fraction(expected["cycles"])


@pytest.mark.parametrize(
    "name",
    ["reference-gas-claim", "reference-gas-demand", "reference-gas-update"],
)
def test_cost_fixtures_revalidate_against_fit(name):
    case = load_fixture(name)
    assert case.kind == "cost-points"
    fit = fit_linear(case.inputs["points"])
    target = Fraction(case.expected["slope"])
    tol = Fraction(case.expected["slope_rel_tol"])
    assert abs(fit.slope - target) / target <= tol


def test_fixture_metadata_present():
    for name in fixture_names():
        case = load_fixture(name)
        assert case.metadata.get("source")
