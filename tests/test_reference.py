import collections
import itertools
import random

import pytest

from fairpool import (
    AllocationMachine,
    DemandSet,
    MachineConfig,
    ResourceVector,
    fixed_point_reference,
    pdrf_allocate,
    reference_task_counts,
)
from test_alloc import _assert_matches_scan


def test_reference_matches_worked_example():
    outcome = fixed_point_reference([[1, 4], [3, 1]], [9, 18])
    assert outcome.recip_shares == (4_500_000, 3_000_000)
    assert outcome.min_recip == 3_000_000
    assert outcome.scaled_sums == (13_500_000, 21_000_000)
    assert outcome.cycle_count == 2_000_000
    assert outcome.task_counts == (3, 2)


def test_reference_input_validation():
    with pytest.raises(ValueError):
        fixed_point_reference([], [5])
    with pytest.raises(ValueError):
        fixed_point_reference([[1, 2]], [5])
    with pytest.raises(ValueError):
        fixed_point_reference([[0, 0]], [5, 5])
    with pytest.raises(ValueError):
        fixed_point_reference([[1, 1]], [5, 0])


_BAD = "{} for resource {} must be a non-negative integer, got {!r}"


@pytest.mark.parametrize(
    "demands, reserves, message",
    [
        ([(-1, 2)], (5, 5), _BAD.format("user 0's demand", 0, -1)),
        ([(1, 2)], (5, -5), _BAD.format("reserve", 1, -5)),
        ([(1, 2), (1.5, 2)], (5, 5), _BAD.format("user 1's demand", 0, 1.5)),
        ([(1, True)], (5, 5), _BAD.format("user 0's demand", 1, True)),
        ([(1, 2)], (5.0, 5), _BAD.format("reserve", 0, 5.0)),
        ([(1, 2)], (5, True), _BAD.format("reserve", 1, True)),
    ],
    ids=[
        "negative-demand", "negative-reserve", "float-demand", "bool-demand",
        "float-reserve", "bool-reserve",
    ],
)
def test_reference_rejects_a_quantity_the_machine_rejects(demands, reserves, message):
    # Unchecked, (-1, 2) against (5, 5) gave task_counts (-5,), a reserve
    # of (5, -5) gave (-3,), and (1.5, 2) gave float scaled_sums.
    with pytest.raises(ValueError) as error:
        fixed_point_reference(demands, reserves)
    assert str(error.value) == message
    # The machine's pools and demands are checked as ResourceVectors.
    with pytest.raises(ValueError):
        ResourceVector(reserves if message.startswith("reserve") else demands[-1])


def test_reference_accepts_an_int_subclass_the_machine_accepts():
    class Count(int):
        pass

    assert fixed_point_reference([(Count(1), 4), (3, 1)], (9, Count(18))) == (
        fixed_point_reference([(1, 4), (3, 1)], (9, 18))
    )


@pytest.mark.parametrize("precision", [-3, 0, 1.5, True, "10"])
def test_reference_rejects_a_precision_the_machine_rejects(precision):
    with pytest.raises(ValueError, match="precision must be an integer >= 1"):
        reference_task_counts({0: (1, 2), 1: (2, 1)}, (10, 10), precision=precision)
    with pytest.raises(ValueError):
        MachineConfig(2, 4, 0, ResourceVector([10, 10]), precision=precision)


def test_reference_task_counts_keyed_by_user():
    counts = reference_task_counts({7: [1, 4], 3: [3, 1]}, [9, 18])
    assert counts == {7: 3, 3: 2}


def _drive_one_epoch(demands, reserves):
    """Register, demand, transition, claim; return per-user task counts."""
    n = len(demands)
    m = len(reserves)
    machine = AllocationMachine(
        MachineConfig(m, 2 * n, 0, ResourceVector(reserves))
    )
    for u in range(n):
        machine.register_user(u)
    for u in range(n):
        machine.demand(u, ResourceVector(demands[u]), u)
    return [machine.claim(u, 2 * n + u).task_count for u in range(n)]


def test_machine_equals_reference_on_random_epochs():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(1, 5)
        demands = [
            [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
            for _ in range(n)
        ]
        reserves = [rng.randint(20, 2000) for _ in range(m)]
        machine_counts = _drive_one_epoch(demands, reserves)
        expected = fixed_point_reference(demands, reserves).task_counts
        assert tuple(machine_counts) == expected


def test_reference_within_one_task_of_exact_rational():
    rng = random.Random(21)
    nonzero = 0
    total = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(1, 5)
        demands = [[rng.randint(1, 9) for _ in range(m)] for _ in range(n)]
        reserves = [rng.randint(50, 3000) for _ in range(m)]
        fixed = fixed_point_reference(demands, reserves).task_counts
        exact = pdrf_allocate(
            DemandSet.from_vectors(demands), ResourceVector(reserves)
        ).task_counts
        for f, e in zip(fixed, exact):
            total += 1
            if f != e:
                nonzero += 1
            assert abs(f - e) <= 1
    # floors in the fixed-point path only rarely move a whole task
    assert nonzero <= total * 0.05


@pytest.mark.parametrize("precision", [10**6, 10**12])
def test_reference_at_or_one_below_exact_pdrf(precision):
    # Each resource draws its own reserve, the setting where floors cost
    # most.  One floor per claim leaves 0.55% of these users one task
    # below exact at both precisions; a floor on a ratio before the
    # product with k' would leave 1.63%.
    rng = random.Random(7)
    under = users = 0
    for _ in range(1500):
        n = rng.randint(2, 30)
        m = rng.randint(1, 8)
        demands = [[rng.randint(1, 10) for _ in range(m)] for _ in range(n)]
        reserves = [n * rng.randint(20, 300) for _ in range(m)]
        fixed = fixed_point_reference(demands, reserves, precision).task_counts
        exact = pdrf_allocate(
            DemandSet.from_vectors(demands), ResourceVector(reserves)
        ).task_counts
        for f, e in zip(fixed, exact):
            assert e - 1 <= f <= e
            under += f < e
        users += n
    assert users == 24_187
    assert under <= users // 100


def test_reference_rejects_a_demand_above_the_precision_scaled_reserve():
    # precision * reserve // demand = 10 * 1 // 11 = 0.
    with pytest.raises(ValueError, match="demand exceeds precision-scaled reserve"):
        fixed_point_reference([[11]], [1], precision=10)


def test_every_small_instance_through_all_three_layers():
    """Exhaustive small scope: every multiset of n <= 3 demand vectors with
    components 0-3 (not all zero), m = 2, against every reserve pair in
    1-4, is 13,040 instances (about 2 s on CPython 3.11).  Every user is
    checked: the reference is exact pdrf or one below at p = 100 and 10**6,
    and drf_allocate equals the scan oracle and gives no user more than one
    task above pdrf.  On the n <= 2 sub-scope (2,160 instances), a fresh
    machine driven through register, demand, transition and claim gives
    the reference's counts at p = 10**6, the machine's default.

    pdrf <= loop does not hold here: the loop stops at the first task that
    does not fit, while pdrf hands out whole floored cycle multiples, so
    (1, 1), (1, 3) against (4, 4) get (2, 0) from pdrf and (1, 1) from the
    loop.  The histogram of loop - pdrf is pinned.
    """
    vectors = [v for v in itertools.product(range(4), repeat=2) if any(v)]
    instances = 0
    below, deltas = collections.Counter(), collections.Counter()
    for n in (1, 2, 3):
        for rows in itertools.combinations_with_replacement(vectors, n):
            demands = DemandSet.from_vectors(rows)
            for reserves in itertools.product(range(1, 5), repeat=2):
                instances += 1
                pool = ResourceVector(reserves)
                exact = pdrf_allocate(demands, pool).task_counts
                for precision in (100, 10**6):
                    fixed = fixed_point_reference(rows, reserves, precision)
                    for f, e in zip(fixed.task_counts, exact):
                        assert e - 1 <= f <= e, (rows, reserves, precision)
                        below[precision] += f < e
                loop_minus_pdrf = _assert_matches_scan(demands, pool)
                assert max(loop_minus_pdrf) <= 1, (rows, reserves)
                deltas.update(loop_minus_pdrf)
                if n <= 2:  # fixed is the reference at p = 10**6
                    assert tuple(_drive_one_epoch(rows, reserves)) == fixed.task_counts
    assert instances == 13_040
    assert below == {100: 890, 10**6: 890}
    assert deltas == {-4: 3, -3: 6, -2: 79, -1: 780, 0: 26_381, 1: 9_471}
