import math
import random
from fractions import Fraction

import pytest

from fairpool import (
    DemandSet,
    ResourceVector,
    WeightVector,
    alloc,
    compare_pdrf_drf,
    dominant_share,
    drf_allocate,
    pdrf_allocate,
    progressive_filling,
    reference_task_counts,
)


def _random_instance(rng, n, m, d_high=10, r_low=50, r_high=500):
    demands = DemandSet.from_vectors(
        [[rng.randint(1, d_high) for _ in range(m)] for _ in range(n)]
    )
    reserves = ResourceVector(rng.randint(r_low, r_high) for _ in range(m))
    return demands, reserves


# --- progressive filling -------------------------------------------------


def test_progressive_filling_rounds():
    assert progressive_filling([2, 4, 6], 10) == [2, 4, 4]


def test_progressive_filling_all_satisfied():
    assert progressive_filling([1, 1, 1], 100) == [1, 1, 1]


def test_progressive_filling_symmetric_split():
    assert progressive_filling([5, 5], 4) == [2, 2]


def test_progressive_filling_empty_and_errors():
    assert progressive_filling([], 10) == []
    with pytest.raises(ValueError):
        progressive_filling([2, -1], 10)
    with pytest.raises(ValueError):
        progressive_filling([2, 3], -1)


def test_progressive_filling_exact_rationals():
    allocs = progressive_filling([5, 5, 5], 10)
    assert allocs == [Fraction(10, 3)] * 3
    assert sum(allocs) == 10


def test_weighted_filling_proportional_split():
    w = WeightVector([1, 1, 2])
    assert progressive_filling([10, 10, 10], 8, w) == [2, 2, 4]


def test_weighted_filling_equal_weights_is_plain():
    w = WeightVector([1, 1, 1])
    assert progressive_filling([2, 4, 6], 10, w) == [2, 4, 4]


def test_weighted_filling_residue_capped():
    w = WeightVector([3, 1])
    assert progressive_filling([1, 9], 8, w) == [1, 7]


def test_weighted_filling_weight_count_mismatch():
    with pytest.raises(ValueError):
        progressive_filling([1, 2], 5, WeightVector([1]))


def test_weighted_equals_plain_on_random_instances():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randint(1, 8)
        demands = [rng.randint(0, 20) for _ in range(n)]
        reserve = rng.randint(0, 60)
        w = WeightVector([1] * n)
        assert progressive_filling(demands, reserve, w) == (
            progressive_filling(demands, reserve)
        )


# Amounts follow the rule weights follow: a number, never text.
@pytest.mark.parametrize(
    "bad", ["3", " 1/2 ", None, float("nan"), float("inf")],
    ids=["text", "padded-fraction-text", "none", "nan", "inf"],
)
def test_a_rejected_amount_raises_value_error(bad):
    assert _raised(lambda: progressive_filling([1, bad], 5)).startswith(
        "demand must be rational: "
    )
    assert _raised(lambda: progressive_filling([1, 2], bad)).startswith(
        "reserve must be rational: "
    )


def _filling_by_rounds(demands, reserve, weights=None):
    """The round loop progressive filling ran before its sorted pass, as
    an oracle: each round offers every unsatisfied user its weight's
    share of what is left and pays in full those whose demand fits it.
    Returns the allocations and the number of rounds."""
    n = len(demands)
    weights = [Fraction(1)] * n if weights is None else list(map(Fraction, weights))
    total = Fraction(reserve)
    wants = [Fraction(d) for d in demands]
    allocs = [Fraction(0)] * n
    active = [i for i, d in enumerate(wants) if d > 0]
    rounds = 0
    while active and total > 0:
        rounds += 1
        weight_sum = sum(weights[i] for i in active)
        shares = {i: total * weights[i] / weight_sum for i in active}
        satisfied = [i for i in active if wants[i] <= shares[i]]
        if not satisfied:
            for i in active:
                allocs[i] = shares[i]
            return allocs, rounds
        for i in satisfied:
            allocs[i] = wants[i]
            total -= wants[i]
        active = [i for i in active if i not in satisfied]
    return allocs, rounds


def _assert_filling_matches_rounds(demands, reserve, weights=None):
    got = progressive_filling(demands, reserve, weights)
    want, rounds = _filling_by_rounds(demands, reserve, weights)
    assert got == want, (demands, reserve, weights)
    assert all(type(x) is Fraction for x in got), (demands, reserve, weights)
    return rounds


def _amount(rng, high):
    """0, an int in 1..high or a Fraction, a third of the time each."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(1, high)
    return Fraction(rng.randint(1, 4 * high), rng.randint(1, 6))


def test_sorted_pass_matches_rounds_on_a_seeded_stream():
    # Small integers make many equal ratios, so ties are well covered.
    rng = random.Random(7)
    for _ in range(20_000):
        n = rng.randint(0, 7)
        demands = [_amount(rng, 20) for _ in range(n)]
        weights = None if rng.randrange(2) else [
            Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)
        ]
        _assert_filling_matches_rounds(demands, _amount(rng, 80), weights)


@pytest.mark.parametrize("n", [5, 30, 120])
def test_sorted_pass_matches_rounds_when_each_round_pays_one_user(n):
    # Reserve n, unit weights.  User k wants L_k - e_k, where L_k is the
    # level once k - 1 users are paid, e_1 = 1/2 and e_(k+1) = e_k / (2(n - k)).
    # Then L_(k+1) = L_k + e_k / (n - k), so user k + 1 wants more than L_k:
    # round k pays user k alone, and the loop runs n rounds.
    left, eps, wants = Fraction(n), Fraction(1, 2), []
    for k in range(1, n + 1):
        wants.append(left / (n - k + 1) - eps)
        left -= wants[-1]
        if k < n:
            eps /= 2 * (n - k)
    # Reversed, so the sorted pass has to order the users itself.
    demands = wants[::-1]
    assert _assert_filling_matches_rounds(demands, n) == n
    assert progressive_filling(demands, n) == demands


# --- dominant shares -----------------------------------------------------


def test_dominant_share_examples():
    assert dominant_share(ResourceVector([1, 4]), ResourceVector([9, 18])) == (
        Fraction(2, 9),
        1,
    )
    assert dominant_share(ResourceVector([3, 1]), ResourceVector([9, 18])) == (
        Fraction(1, 3),
        0,
    )
    # tie breaks to the lowest resource index
    assert dominant_share(ResourceVector([5, 5]), ResourceVector([10, 10])) == (
        Fraction(1, 2),
        0,
    )


def test_dominant_share_rejects_zero_reserve_and_zero_demand():
    with pytest.raises(ValueError):
        dominant_share(ResourceVector([1, 1]), ResourceVector([0, 5]))
    with pytest.raises(ValueError):
        dominant_share(ResourceVector([0, 0]), ResourceVector([5, 5]))


def test_weighted_dominant_share_examples():
    r = ResourceVector([9, 18])
    assert dominant_share(
        ResourceVector([1, 4]), r, WeightVector([1, 1])
    ) == (Fraction(2, 9), 1)
    assert dominant_share(
        ResourceVector([1, 4]), r, WeightVector([1, 2])
    ) == (Fraction(1, 9), 0)
    assert dominant_share(
        ResourceVector([2, 2]), ResourceVector([4, 4]), WeightVector([2, 1])
    ) == (Fraction(1, 2), 1)


def test_weighted_dominant_share_unit_weights_reduce():
    rng = random.Random(1)
    for _ in range(200):
        m = rng.randint(1, 5)
        d = ResourceVector(
            [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
        )
        r = ResourceVector([rng.randint(1, 100) for _ in range(m)])
        assert dominant_share(d, r, WeightVector([1] * m)) == (
            dominant_share(d, r)
        )


def test_dominant_index_invariant_under_uniform_scaling():
    rng = random.Random(2)
    for _ in range(200):
        m = rng.randint(1, 5)
        d = ResourceVector([rng.randint(1, 9) for _ in range(m)])
        r = ResourceVector([rng.randint(1, 50) for _ in range(m)])
        factor = rng.randint(2, 7)
        share, index = dominant_share(d, r)
        share2, index2 = dominant_share(d.scale(factor), r.scale(factor))
        assert index == index2
        assert share == share2


# --- DRF loop ------------------------------------------------------------


def test_drf_classic_example():
    result = drf_allocate(
        DemandSet.from_vectors([[1, 4], [3, 1]]), ResourceVector([9, 18])
    )
    assert result.task_counts == (3, 2)
    assert result.allocations == (ResourceVector([3, 12]), ResourceVector([6, 2]))
    assert result.remaining == ResourceVector([0, 4])


def test_drf_single_user_depletes():
    result = drf_allocate(DemandSet.from_vectors([[2]]), ResourceVector([10]))
    assert result.task_counts == (5,)
    assert result.remaining == ResourceVector([0])


def test_drf_terminates_on_first_unfit_selection():
    result = drf_allocate(
        DemandSet.from_vectors([[1, 3], [3, 1]]), ResourceVector([6, 6])
    )
    assert result.task_counts == (1, 1)
    assert result.remaining == ResourceVector([2, 2])


def test_drf_empty_demand_set():
    # Every allocator and the comparison return an empty result and build
    # no core, whose binding resource needs at least one demand.
    empty = DemandSet([])
    for reserves in (ResourceVector([5, 5]), ResourceVector([5, 0])):
        for result in (
            drf_allocate(empty, reserves),
            pdrf_allocate(empty, reserves),
            pdrf_allocate(empty, reserves, []),
        ):
            assert result == alloc.AllocationResult((), (), reserves, Fraction(0))
        assert compare_pdrf_drf(empty, reserves) == alloc.DiffStats((), 0, 0, 0, 0)


def test_diffstats_records_are_well_formed():
    # compare_pdrf_drf builds DiffStats with tuple.__new__, which skips the
    # NamedTuple's arity check, and counts over only when a delta is
    # negative; the stream holds the empty set and instances with over > 0.
    rng = random.Random(24)
    cases = [(DemandSet([]), ResourceVector([5, 5]))] + [
        _random_instance(rng, rng.randint(1, 8), rng.randint(1, 4), r_low=20)
        for _ in range(400)
    ]
    overs = 0
    for demands, reserves in cases:
        rec = compare_pdrf_drf(demands, reserves)
        assert type(rec) is alloc.DiffStats
        assert len(rec) == len(alloc.DiffStats._fields) == 5
        assert alloc.DiffStats(**rec._asdict()) == rec
        deltas = rec.deltas
        assert rec.total == len(deltas) == len(demands)
        assert (rec.exact, rec.under_by_one, rec.under_by_more, rec.over) == (
            deltas.count(0),
            deltas.count(1),
            sum(d > 1 for d in deltas),
            sum(d < 0 for d in deltas),
        )
        overs += rec.over > 0
    assert overs > 0


def test_drf_sharing_incentive_identical_demands():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 8)
        m = rng.randint(1, 4)
        d = [rng.randint(1, 9) for _ in range(m)]
        reserves = ResourceVector([rng.randint(20, 200) for _ in range(m)])
        result = drf_allocate(DemandSet.from_vectors([d] * n), reserves)
        counts = result.task_counts
        assert max(counts) - min(counts) <= 1
        # ties break toward the lowest id, so counts never increase with id
        assert all(counts[i] >= counts[i + 1] for i in range(n - 1))


def test_zero_reserve_nobody_demands_is_skipped():
    demands = DemandSet.from_vectors([[3, 0], [5, 0]])
    reserves = ResourceVector([100, 0])
    assert dominant_share(demands[0], reserves) == (Fraction(3, 100), 0)
    assert reference_task_counts({0: (3, 0), 1: (5, 0)}, (100, 0)) == {
        0: 16,
        1: 10,
    }
    for allocate in (drf_allocate, pdrf_allocate):
        result = allocate(demands, reserves)
        assert result.task_counts == (16, 10)
        assert result.remaining == ResourceVector([2, 0])


# --- DRF loop against a linear-scan oracle ---------------------------------
#
# The oracle is the task-by-task loop itself: every step scans all users
# for the minimum allocated share t_i * s_i (ties: lowest position) and
# grants one task, until the selected user's demand does not fit.


def _scan_drf_loop(demands, shares, reserves):
    n = len(demands)
    m = len(reserves)
    nums = [s.numerator for s in shares]
    dens = [s.denominator for s in shares]
    tasks = [0] * n
    remaining = list(reserves)
    while True:
        pick = 0
        for i in range(1, n):
            if tasks[i] * nums[i] * dens[pick] < tasks[pick] * nums[pick] * dens[i]:
                pick = i
        d = demands[pick]
        if any(d[r] > remaining[r] for r in range(m)):
            break
        for r in range(m):
            remaining[r] -= d[r]
        tasks[pick] += 1
    return tasks, remaining


def _assert_matches_scan(demands, reserves):
    """Check the loop against the scan oracle; return loop - pdrf per user."""
    vectors = demands
    shares = [dominant_share(d, reserves)[0] for d in vectors]
    tasks, remaining = _scan_drf_loop(vectors, shares, reserves)
    result = drf_allocate(demands, reserves)
    assert result.task_counts == tuple(tasks)
    assert result.allocations == tuple(d.scale(t) for d, t in zip(vectors, tasks))
    assert result.remaining == ResourceVector(remaining)
    # compare_pdrf_drf runs neither public allocator, so tie it to both.
    pre = pdrf_allocate(demands, reserves).task_counts
    deltas = compare_pdrf_drf(demands, reserves).deltas
    assert deltas == tuple(a - b for a, b in zip(tasks, pre))
    return deltas


def test_drf_matches_scan_oracle_on_criterion_4_stream():
    rng = random.Random(0)
    for _ in range(2000):
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
        )
        shared = rng.randint(100, 1000)
        _assert_matches_scan(demands, ResourceVector((shared,) * 4))


def test_drf_matches_scan_oracle_on_random_instances():
    # Zero demand components, independent reserves (zero where nobody
    # demands), single users and duplicated rows, so that ties occur.
    # In one instance in five, user 0 is alone on a resource that its
    # first task drains; the others then take many tasks before the loop
    # stops, so the jump lands far below the stop.
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 9)
        m = rng.randint(1, 5)
        rows = []
        for _ in range(n):
            row = [rng.randint(0, 9) for _ in range(m)]
            row[rng.randrange(m)] = rng.randint(1, 9)
            rows.append(row)
        for i in range(1, n):
            if rng.random() < 0.3:
                rows[i] = list(rows[rng.randrange(i)])
        reserves = [rng.randint(1, rng.choice([30, 300, 3000])) for _ in range(m)]
        if m > 1 and rng.random() < 0.2:
            lone = rng.randrange(m)
            for row in rows[1:]:
                row[lone] = 0
                if not any(row):
                    row[(lone + 1) % m] = 1
            rows[0][lone] = reserves[lone]
        for r in range(m):
            if not any(row[r] for row in rows):
                reserves[r] = rng.choice([0, reserves[r]])
        _assert_matches_scan(DemandSet.from_vectors(rows), ResourceVector(reserves))


def test_drf_stopping_certificate_at_huge_reserves():
    # The scan would need ~1e11 steps here.  The certificate pins the
    # loop's result: the allocation fits, the next pick in (t_i * s_i, i)
    # order does not, and every granted pick precedes every next pick.
    rng = random.Random(12)
    instances = [
        (DemandSet.from_vectors([[1000, 0], [0, 1]]), ResourceVector([1000, 10**12]))
    ]
    for _ in range(5):
        m = rng.randint(1, 4)
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(m)] for _ in range(rng.randint(1, 9))]
        )
        reserves = ResourceVector(rng.randint(10**12, 2 * 10**12) for _ in range(m))
        instances.append((demands, reserves))
    for demands, reserves in instances:
        vectors = demands
        shares = [dominant_share(d, reserves)[0] for d in vectors]
        tasks = drf_allocate(demands, reserves).task_counts
        assert sum(tasks) > 10**10
        used = [
            sum(t * d[r] for d, t in zip(vectors, tasks)) for r in range(len(reserves))
        ]
        assert all(u <= res for u, res in zip(used, reserves))
        nexts = [(t * s, i) for i, (t, s) in enumerate(zip(tasks, shares))]
        _, pick = min(nexts)
        assert any(
            u + d > res for u, d, res in zip(used, vectors[pick], reserves)
        )
        for i, (t, s) in enumerate(zip(tasks, shares)):
            if t:
                assert all(((t - 1) * s, i) < nxt for nxt in nexts)


# --- precomputed allocation ----------------------------------------------


def test_pdrf_classic_example():
    result = pdrf_allocate(
        DemandSet.from_vectors([[1, 4], [3, 1]]), ResourceVector([9, 18])
    )
    assert result.cycles == 2
    assert result.task_counts == (3, 2)
    assert result.allocations == (ResourceVector([3, 12]), ResourceVector([6, 2]))


def test_pdrf_single_user():
    result = pdrf_allocate(DemandSet.from_vectors([[1, 1]]), ResourceVector([5, 5]))
    assert result.cycles == 5
    assert result.task_counts == (5,)
    assert result.remaining == ResourceVector([0, 0])


def test_pdrf_fractional_cycles():
    result = pdrf_allocate(
        DemandSet.from_vectors([[1, 3], [3, 1]]), ResourceVector([6, 6])
    )
    assert result.cycles == Fraction(3, 2)
    assert result.task_counts == (1, 1)


def test_pdrf_conservation_and_nonnegative_remaining():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 8)
        m = rng.randint(1, 5)
        demands, reserves = _random_instance(rng, n, m)
        weights = [
            WeightVector([rng.randint(1, 4) for _ in range(m)]) for _ in range(n)
        ]
        results = (
            drf_allocate(demands, reserves),
            pdrf_allocate(demands, reserves),
            pdrf_allocate(demands, reserves, weights),
        )
        for result in results:
            used = [sum(column) for column in zip(*result.allocations)]
            # remaining is a ResourceVector, so no component went negative
            assert [u + r for u, r in zip(used, result.remaining)] == list(reserves)


def test_pdrf_task_counts_on_plain_tuples_match_pdrf_allocate():
    # Zero components and zero reserves (undemanded) included.
    rng = random.Random(21)
    for _ in range(300):
        n, m = rng.randint(1, 8), rng.randint(1, 5)
        rows = [tuple(rng.randint(0, 10) for _ in range(m)) for _ in range(n)]
        rows = [row if any(row) else (1,) * m for row in rows]
        reserves = tuple(
            rng.randint(50, 500) if any(col) else rng.choice((0, 7))
            for col in zip(*rows)
        )
        counts = alloc.pdrf_task_counts(rows, reserves)
        assert type(counts) is tuple
        assert counts == pdrf_allocate(
            DemandSet.from_vectors(rows), ResourceVector(reserves)
        ).task_counts
    assert alloc.pdrf_task_counts([], (5, 5)) == ()


def test_pdrf_task_counts_monotone_in_dominant_share():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 4)
        demands, reserves = _random_instance(rng, n, m)
        result = pdrf_allocate(demands, reserves)
        shares = [dominant_share(d, reserves)[0] for d in demands]
        for a in range(n):
            for b in range(n):
                if shares[a] <= shares[b]:
                    assert result.task_counts[a] >= result.task_counts[b]


def test_pdrf_invariant_under_uniform_scaling():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        demands, reserves = _random_instance(rng, n, m)
        factor = rng.randint(2, 5)
        scaled = DemandSet(d.scale(factor) for d in demands)
        base = pdrf_allocate(demands, reserves)
        scaled_result = pdrf_allocate(scaled, reserves.scale(factor))
        assert base.task_counts == scaled_result.task_counts


# --- weighted precomputed allocation ---------------------------------------


def test_weighted_pdrf_unit_weights_match():
    demands = DemandSet.from_vectors([[1, 4], [3, 1]])
    reserves = ResourceVector([9, 18])
    weights = [WeightVector([1, 1]), WeightVector([1, 1])]
    assert pdrf_allocate(demands, reserves, weights).task_counts == (3, 2)


def test_weighted_pdrf_symmetry():
    demands = DemandSet.from_vectors([[1, 1], [1, 1]])
    weights = [WeightVector([1, 1]), WeightVector([1, 1])]
    result = pdrf_allocate(demands, ResourceVector([4, 4]), weights)
    assert result.task_counts == (2, 2)


def test_weighted_pdrf_doubled_weight_doubles_ratio():
    demands = DemandSet.from_vectors([[1, 1], [1, 1]])
    weights = [WeightVector([2, 2]), WeightVector([1, 1])]
    result = pdrf_allocate(demands, ResourceVector([6, 6]), weights)
    assert result.task_counts == (4, 2)
    assert result.remaining == ResourceVector([0, 0])


def test_weighted_pdrf_unit_weights_reduce_on_random_instances():
    rng = random.Random(7)
    instances = [
        _random_instance(rng, rng.randint(1, 8), rng.randint(1, 4))
        for _ in range(300)
    ]
    # The differential stream's unweighted instances, some with a zero
    # reserve nobody demands: the unweighted core's q_r = 0.
    rng = random.Random(11)
    for _ in range(600):
        demands, reserves, weights = _differential_instance(
            rng, rng.choice((1, 2, 3, 4, 5, 8))
        )
        if weights is None:
            instances.append((demands, reserves))
    assert sum(0 in reserves for _, reserves in instances) >= 50
    for demands, reserves in instances:
        weights = [WeightVector([1] * len(reserves))] * len(demands)
        assert pdrf_allocate(demands, reserves, weights) == (
            pdrf_allocate(demands, reserves)
        )


def test_weighted_pdrf_weight_count_mismatch():
    with pytest.raises(ValueError):
        pdrf_allocate(
            DemandSet.from_vectors([[1, 1], [2, 2]]),
            ResourceVector([5, 5]),
            [WeightVector([1, 1])],
        )


# Weights that are not a WeightVector are built into one where they enter,
# so a weight WeightVector rejects raises its ValueError in every function.
@pytest.mark.parametrize(
    "bad, message",
    [
        (0, "weights must be positive, got 0"),
        (-1, "weights must be positive, got -1"),
        (float("nan"), "weights must be rational: "),
        (float("inf"), "weights must be rational: "),
        (None, "weights must be rational: "),
        ("1/2", "weights must be rational: got the string '1/2'"),  # Fraction parses it
    ],
    ids=["zero", "negative", "nan", "inf", "none", "string"],
)
def test_a_rejected_weight_raises_where_it_enters(bad, message):
    demands = DemandSet.from_vectors([[1, 2], [2, 1]])
    reserves = ResourceVector([10, 10])
    calls = [
        lambda: pdrf_allocate(demands, reserves, [(1, bad), (1, 1)]),
        lambda: pdrf_allocate(demands, reserves, [(1, 1), (bad, 1)]),
        lambda: dominant_share(demands[0], reserves, (1, bad)),
        lambda: progressive_filling([1, 2], 10, (1, bad)),
    ]
    for call in calls:
        assert _raised(call).startswith(message)
    # An earlier user's error still comes first, as computing each share would.
    zero = ResourceVector([0, 10])
    first = _raised(lambda: pdrf_allocate(demands, zero, [(1, 1), (1, bad)]))
    assert first == _ZERO.format(0)


def test_a_float_weight_gives_its_fractions_result():
    demands = DemandSet.from_vectors([[1, 2], [2, 1]])
    reserves = ResourceVector([10, 10])
    for weights in [(1, 0.5), (0.1, 2.5), (3.0, 1)]:
        exact = tuple(map(Fraction, weights))
        assert pdrf_allocate(demands, reserves, [weights, (1, 1)]) == (
            pdrf_allocate(demands, reserves, [WeightVector(exact), (1, 1)])
        )
        assert dominant_share(demands[0], reserves, weights) == (
            dominant_share(demands[0], reserves, exact)
        )
        filled = progressive_filling([3, 4], 5, weights)
        assert filled == progressive_filling([3, 4], 5, exact)
        assert all(type(x) is Fraction for x in filled)
    # No users need no weight: the empty sequence is not built into one.
    assert progressive_filling([], 10, ()) == []


def test_pdrf_matches_fraction_oracle_with_distinct_weights_at_n300():
    # Every user has its own weight vector, so U, the lcm of all 1,200
    # weight numerators, runs to hundreds of bits; the differential
    # stream stops at n = 8 and three shared vectors.
    rng = random.Random(300)
    n, m = 300, 4
    demands = DemandSet.from_vectors(
        [[rng.randint(1, 10) for _ in range(m)] for _ in range(n)]
    )
    reserves = ResourceVector([rng.randint(10**5, 10**6) for _ in range(m)])
    weights = [
        WeightVector(Fraction(rng.randint(1, 97), rng.randint(1, 31)) for _ in range(m))
        for _ in range(n)
    ]
    assert len(set(weights)) == n
    u = math.lcm(*(x.numerator for w in weights for x in w))
    assert u.bit_length() > 100
    _assert_matches_oracle(demands, reserves, weights)
    assert sum(pdrf_allocate(demands, reserves, weights).task_counts) > n


# --- loop vs precomputed -------------------------------------------------


def test_compare_classic_all_exact():
    stats = compare_pdrf_drf(
        DemandSet.from_vectors([[1, 4], [3, 1]]), ResourceVector([9, 18])
    )
    assert stats.deltas == (0, 0)
    assert stats.exact == 2
    assert stats.under_by_one == 0
    assert stats.over == 0


def test_compare_integral_cycles_all_exact():
    # Shares that divide evenly give whole cycles, so both agree.
    stats = compare_pdrf_drf(
        DemandSet.from_vectors([[1, 1], [10, 1]]), ResourceVector([100, 100])
    )
    assert all(d == 0 for d in stats.deltas)


@pytest.mark.parametrize(
    "reserves",
    [ResourceVector([5, 0]), ResourceVector([5, 5, 5])],
    ids=["zero-reserve", "wrong-length"],
)
def test_compare_raises_like_drf_allocate(reserves):
    demands = DemandSet.from_vectors([[1, 2], [2, 1]])
    with pytest.raises(ValueError) as drf_error:
        drf_allocate(demands, reserves)
    with pytest.raises(ValueError) as compare_error:
        compare_pdrf_drf(demands, reserves)
    assert str(compare_error.value) == str(drf_error.value)


def test_compare_shares_one_core_and_builds_no_vector(monkeypatch):
    demands = DemandSet.from_vectors([[1, 4], [3, 1], [2, 2]])
    reserves = ResourceVector([9, 18])
    calls = {"_Core": 0, "ResourceVector": 0, "dominant_share": 0}
    core_init, init = alloc._Core.__init__, ResourceVector.__init__
    share = alloc.dominant_share

    def counted_core(self, *args):
        calls["_Core"] += 1
        core_init(self, *args)

    def counted_init(self, quantities):
        calls["ResourceVector"] += 1
        init(self, quantities)

    def counted_share(*args):
        calls["dominant_share"] += 1
        return share(*args)

    monkeypatch.setattr(alloc._Core, "__init__", counted_core)
    monkeypatch.setattr(ResourceVector, "__init__", counted_init)
    monkeypatch.setattr(alloc, "dominant_share", counted_share)
    compare_pdrf_drf(demands, reserves)
    # The core keys each share as an integer; dominant_share only reports
    # the error of an invalid instance.
    assert calls == {"_Core": 1, "ResourceVector": 0, "dominant_share": 0}


def test_one_pass_over_the_reserves_per_instance(monkeypatch):
    # _remaining is the pass over every user and resource.  The core makes
    # one for pdrf, and the loop's result is derived from it; only the
    # bisection fallback makes more.
    calls = []
    remaining = alloc._remaining

    def counted(*args):
        calls[-1] += 1
        return remaining(*args)

    monkeypatch.setattr(alloc, "_remaining", counted)
    rng = random.Random(0)  # criterion 4's stream
    for _ in range(10_000):
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
        )
        calls.append(0)
        compare_pdrf_drf(demands, ResourceVector((rng.randint(100, 1000),) * 4))
    assert set(calls) == {1}
    # The m-up-to-8 stream of test_integer_keys_match_dominant_share_and_oracles
    # takes the fallback on some unweighted instance, so that the scan oracle
    # checks it.
    calls.clear()
    rng = random.Random(15 + 6 * 1000 + 8)
    for _ in range(1000):
        demands, reserves, weights = _differential_instance(
            rng, rng.choice((1, 2, 3, 4, 5, 8))
        )
        if weights is None:
            calls.append(0)
            compare_pdrf_drf(demands, reserves)
    assert max(calls) > 1


def test_compare_soft_invariant_small_sample():
    # The loop's counts are pdrf's plus one per user, less the picks that
    # do not fit: by construction, pdrf never underallocates by more than
    # one task.  Overallocation is possible but rare.
    rng = random.Random(8)
    under_more = 0
    for _ in range(1000):
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
        )
        shared = rng.randint(100, 1000)
        stats = compare_pdrf_drf(demands, ResourceVector((shared,) * 4))
        under_more += stats.under_by_more
    assert under_more == 0


# --- integer core against a Fraction oracle --------------------------------
#
# The oracle computes the same quantities directly in Fraction arithmetic:
# each ratio is a Fraction, and the cycle count is the smallest
# reserve-to-drain ratio over per-user cycle multiples s*/s_i.


def _oracle_dominant_share(demand, weights, reserves):
    best = None
    best_index = -1
    for r, (d, res) in enumerate(zip(demand, reserves)):
        ratio = Fraction(d) / (weights[r] * res)
        if best is None or ratio > best:
            best = ratio
            best_index = r
    return best, best_index


def _oracle_pdrf(demands, reserves, weights):
    vectors = demands
    shares = [
        _oracle_dominant_share(d, w, reserves)[0] for d, w in zip(vectors, weights)
    ]
    share_star = max(shares)
    ratios = [share_star / s for s in shares]
    cycles = None
    for r, reserve in enumerate(reserves):
        drain = sum(ratios[i] * vectors[i][r] for i in range(len(vectors)))
        if drain == 0:
            continue
        bound = Fraction(reserve) / drain
        if cycles is None or bound < cycles:
            cycles = bound
    tasks = [int(cycles * ratio) for ratio in ratios]
    allocations = tuple(d.scale(t) for d, t in zip(vectors, tasks))
    # The constructor raises if any component would go negative.
    remaining = ResourceVector(
        reserve - sum(a[r] for a in allocations) for r, reserve in enumerate(reserves)
    )
    return tasks, allocations, remaining, cycles


def _assert_matches_oracle(demands, reserves, weights=None):
    """Omitted weights run pdrf_allocate's default path against unit
    weights in the oracle."""
    unit = [WeightVector([1] * len(reserves))] * len(demands)
    oracle_weights = unit if weights is None else weights
    for d, w in zip(demands, oracle_weights):
        assert dominant_share(d, reserves, w) == _oracle_dominant_share(
            d, w, reserves
        )
    result = pdrf_allocate(demands, reserves, weights)
    tasks, allocations, remaining, cycles = _oracle_pdrf(
        demands, reserves, oracle_weights
    )
    assert result.task_counts == tuple(tasks)
    assert result.allocations == allocations
    assert result.remaining == remaining
    assert result.cycles == cycles
    if weights is None:
        loop = drf_allocate(demands, reserves).task_counts
        deltas = compare_pdrf_drf(demands, reserves).deltas
        assert deltas == tuple(a - b for a, b in zip(loop, tasks))


def test_pdrf_matches_fraction_oracle_on_criterion_4_stream():
    rng = random.Random(0)
    for _ in range(2000):
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
        )
        shared = rng.randint(100, 1000)
        _assert_matches_oracle(demands, ResourceVector((shared,) * 4))


def test_pdrf_matches_fraction_oracle_with_fractional_weights():
    rng = random.Random(9)
    for _ in range(2000):
        n = rng.randint(1, 9)
        m = rng.randint(1, 5)
        vectors = []
        for _ in range(n):
            vector = [rng.randint(0, 9) for _ in range(m)]
            vector[rng.randrange(m)] = rng.randint(1, 9)
            vectors.append(vector)
        demands = DemandSet.from_vectors(vectors)
        reserves = ResourceVector([rng.randint(1, 300) for _ in range(m)])
        weights = [
            WeightVector(
                [Fraction(rng.randint(1, 20), rng.randint(1, 10)) for _ in range(m)]
            )
            for _ in range(n)
        ]
        _assert_matches_oracle(demands, reserves, weights)


# --- integer keys against dominant_share and both oracles ------------------
#
# The core keys user i's dominant share as the integer x_i = s_i * M over
# one common denominator M.  A seeded stream checks that every key over
# dominant_share is one positive integer, and both allocators against the
# Fraction oracle and the scanning loop, on instances the shared-reserve
# stream never draws.


def _differential_instance(rng, m):
    n = rng.randint(1, 8 if m <= 8 else 4)
    rows = []
    for _ in range(n):
        row = [rng.randint(0, 9) for _ in range(m)]
        row[rng.randrange(m)] = rng.randint(1, 9)
        rows.append(row)
    reserves = [rng.randint(1, rng.choice([30, 300, 3000])) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        # A resource nobody demands, with a zero reserve.
        unused = rng.randrange(m)
        for row in rows:
            row[unused] = 0
            if not any(row):
                row[(unused + 1) % m] = 1
        reserves[unused] = 0
    weights = None
    if rng.random() < 0.5:
        # Users share some weight vectors and differ in others.
        kinds = [
            WeightVector(
                Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(m)
            )
            for _ in range(rng.randint(1, 3))
        ]
        weights = [rng.choice(kinds) for _ in range(n)]
    return DemandSet.from_vectors(rows), ResourceVector(reserves), weights


def _assert_core_matches_oracles(demands, reserves, weights):
    m = len(reserves)
    per_user = weights or [WeightVector([1] * m)] * len(demands)
    core = alloc._Core(demands, reserves, weights)
    # Each key x_i is s_i * M for one positive integer M shared by every
    # user: the proportionality both allocators rely on.
    ratios = {
        Fraction(x) / dominant_share(d, reserves, w)[0]
        for x, d, w in zip(core.keys, demands, per_user)
    }
    assert len(ratios) == 1
    common = ratios.pop()
    assert common.denominator == 1 and common > 0
    # The Fraction oracle divides by every reserve, so it runs without
    # the resources whose reserve is zero; nobody demands those.
    used = [r for r in range(m) if reserves[r]]
    result = pdrf_allocate(demands, reserves, weights)
    tasks, _, remaining, cycles = _oracle_pdrf(
        DemandSet.from_vectors([[d[r] for r in used] for d in demands]),
        ResourceVector(reserves[r] for r in used),
        [WeightVector(w[r] for r in used) for w in per_user],
    )
    assert result.task_counts == tuple(tasks)
    assert result.cycles == cycles
    assert [result.remaining[r] for r in used] == list(remaining)
    assert all(result.remaining[r] == 0 for r in range(m) if r not in used)
    if weights is None:
        shares = [dominant_share(d, reserves)[0] for d in demands]
        loop, left = _scan_drf_loop(demands, shares, reserves)
        drf = drf_allocate(demands, reserves)
        assert drf.task_counts == tuple(loop)
        assert drf.remaining == ResourceVector(left)
        deltas = compare_pdrf_drf(demands, reserves).deltas
        assert deltas == tuple(a - b for a, b in zip(loop, tasks))


@pytest.mark.parametrize(
    "m_values, count",
    [((1, 2, 3, 4, 5, 8), 1000), ((64,), 40), ((256,), 12)],
    ids=["m-up-to-8", "m-64", "m-256"],
)
def test_integer_keys_match_dominant_share_and_oracles(m_values, count):
    rng = random.Random(15 + len(m_values) * 1000 + max(m_values))
    for _ in range(count):
        m = rng.choice(m_values)
        _assert_core_matches_oracles(*_differential_instance(rng, m))


# --- shared-reserve keys against the general formula -----------------------
#
# One reserve R shared by every resource gives M = R and q_r = 1, so the
# core reads each key off as the row's largest component and computes no
# lcm of the reserves.  A test-local copy of the general formula checks
# every integer the core keeps, on both paths.


def _general_core(demands, reserves, weights=None):
    """The core's integers by the lcm/q formula, which holds for any reserves."""
    rows = demands
    if weights is not None:
        u = math.lcm(*(x.numerator for w in weights for x in w))
        rows = [
            [d * x.denominator * (u // x.numerator) for d, x in zip(row, w)]
            for row, w in zip(demands, weights)
        ]
    lcm = math.lcm(*filter(None, reserves))
    q = [lcm // res if res else 0 for res in reserves]
    keys = [max(e * q_r for e, q_r in zip(row, q)) for row in rows]
    scale = math.lcm(*keys)
    scales = [scale // x for x in keys]
    drains = [
        sum(c * d[r] for c, d in zip(scales, demands)) for r in range(len(reserves))
    ]
    b = min(
        (r for r, drain in enumerate(drains) if drain),
        key=lambda r: Fraction(reserves[r], drains[r]),
    )  # ties go to the lowest resource, as in the core
    hi = reserves[b] * scale // drains[b]
    tasks = [hi // x for x in keys]
    remaining = [
        res - sum(t * d[r] for t, d in zip(tasks, demands))
        for r, res in enumerate(reserves)
    ]
    return {
        "keys": keys, "scale": scale, "drains": drains,
        "bound": (reserves[b], drains[b]), "hi": hi, "tasks": tasks,
        "remaining": remaining,
    }


def _shared_reserve_stream(name):
    """(demands, reserves, weights) triples: every reserve vector shared,
    except on the general-path stream, where none is."""
    if name == "criterion-4":
        rng = random.Random(0)
        for _ in range(2000):
            demands = DemandSet.from_vectors(
                [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
            )
            yield demands, ResourceVector((rng.randint(100, 1000),) * 4), None
        return
    if name == "general-path":  # a zero among equal reserves
        demands = DemandSet.from_vectors([[1, 0, 2], [3, 0, 1]])
        yield demands, ResourceVector((5, 0, 5)), None
    count, m_values = {
        "fractional-weights": (2000, (2, 3, 4, 5)),
        "m-1": (2000, (1,)),
        "m-64": (40, (64,)),
        "general-path": (2000, (2, 3, 4, 5)),
    }[name]
    rng = random.Random(41)
    for _ in range(count):
        m = rng.choice(m_values)
        demands, reserves, weights = _differential_instance(rng, m)
        if name == "fractional-weights" and weights is None:
            continue
        if name != "general-path":
            reserves = ResourceVector((rng.randint(1, 3000),) * m)
        elif len(set(reserves)) == 1:
            continue
        yield demands, reserves, weights


@pytest.mark.parametrize(
    "stream", ["criterion-4", "fractional-weights", "m-1", "m-64", "general-path"]
)
def test_shared_reserve_keys_match_the_general_formula(stream, monkeypatch):
    lcm_calls = []

    class CountedMath:
        @staticmethod
        def lcm(*args):
            lcm_calls.append(args)
            return math.lcm(*args)

    monkeypatch.setattr(alloc, "math", CountedMath)
    instances = weighted = 0
    for demands, reserves, weights in _shared_reserve_stream(stream):
        expected = _general_core(demands, reserves, weights)
        lcm_calls.clear()
        core = alloc._Core(demands, reserves, weights)
        assert {name: getattr(core, name) for name in expected} == expected
        # C, plus U with weights, plus M off the shared-reserve path.
        shared = stream != "general-path"
        assert len(lcm_calls) == 1 + (weights is not None) + (not shared)
        instances += 1
        weighted += weights is not None
    assert instances >= 40
    if stream == "criterion-4":
        assert weighted == 0
    elif stream == "fractional-weights":
        assert weighted == instances
    else:
        assert 0 < weighted < instances


def _raised(call):
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


_ZERO = "positive demand against a zero reserve for resource {}"


@pytest.mark.parametrize(
    "rows, reserves, weights, message",
    [
        # Both users demand against a zero reserve: user 0's first one wins.
        ([[1, 0, 3], [2, 4, 5]], [5, 0, 0], None, _ZERO.format(2)),
        ([[0, 2, 1], [4, 0, 0]], [0, 0, 3], None, _ZERO.format(1)),
        # A short weight vector raises at its user: before that user's own
        # zero reserve and a later user's, after an earlier user's.
        ([[1, 1], [1, 1]], [5, 5], [[1, 1], [1]], "need one weight per resource"),
        ([[0, 1], [1, 1]], [0, 5], [[1, 1], [1]], "need one weight per resource"),
        ([[1, 0], [1, 0], [0, 1]], [5, 0], [[1, 1], [1], [1, 1]],
         "need one weight per resource"),
        ([[1, 1], [1, 1]], [0, 5], [[1, 1], [1]], _ZERO.format(0)),
        # Demand and reserves differ in length; the weights are checked first.
        ([[1, 2], [2, 1]], [5, 5, 5], None,
         "demand and reserves must have the same resource count"),
        ([[1, 2], [2, 1]], [5, 5, 5], [[1, 1], [1, 1]],
         "need one weight per resource"),
        ([[1, 2], [2, 1]], [5, 5, 5], [[1, 1, 1], [1, 1, 1]],
         "demand and reserves must have the same resource count"),
        # A zero reserve, shared or not, keeps the general path and its error.
        ([[1, 2, 3]], [0, 0, 0], None, _ZERO.format(0)),
        ([[1, 0, 1], [1, 2, 1]], [5, 0, 5], [[1, 1, 1], [2, 1, 1]], _ZERO.format(1)),
    ],
    ids=[
        "two-zero-reserves-first-user", "two-zero-reserves-lowest-resource",
        "short-weight-vector", "short-weight-vector-before-own-zero-reserve",
        "short-weight-vector-before-later-zero-reserve",
        "earlier-zero-reserve-before-short-weight-vector",
        "resource-count", "weights-before-resource-count",
        "resource-count-with-weights", "all-zero-reserves",
        "zero-among-equal-reserves",
    ],
)
def test_core_raises_the_first_users_error(rows, reserves, weights, message):
    demands = DemandSet.from_vectors(rows)
    reserves = ResourceVector(reserves)
    if weights is None:
        assert _raised(lambda: drf_allocate(demands, reserves)) == message
        assert _raised(lambda: compare_pdrf_drf(demands, reserves)) == message
    else:
        weights = [WeightVector(w) for w in weights]
    assert _raised(lambda: pdrf_allocate(demands, reserves, weights)) == message
