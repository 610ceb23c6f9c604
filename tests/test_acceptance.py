"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import random
from fractions import Fraction

import pytest

from fairpool import (
    AllocationMachine,
    CostModel,
    DemandSet,
    MachineConfig,
    ResourceVector,
    SimConfig,
    WeightVector,
    compare_pdrf_drf,
    crosscheck_trace,
    drf_allocate,
    fit_linear,
    load_fixture,
    pdrf_allocate,
    progressive_filling,
    replay,
    run_simulation,
)
from fairpool.chainsim import KIND_CLAIM


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def machine_batch():
    """30 simulated runs (m in {2,5,10} x seeds 0..9), 35 epochs each.

    The executor checks the conservation identity after every block, so
    merely completing a run certifies it for criterion 5.
    """
    totals = {
        "epochs": 0,
        "claims": 0,
        "matches": 0,
        "calls": 0,
        "clamps": 0,
        "delta_hist": {},
    }
    for m in (2, 5, 10):
        for seed in range(10):
            config = SimConfig(users=10, resources=m, epochs=35, seed=seed)
            trace = run_simulation(config)
            report = crosscheck_trace(trace)
            totals["epochs"] += report.epochs_checked
            totals["claims"] += report.claims_checked
            totals["matches"] += report.matches
            totals["calls"] += len(trace.records)
            totals["clamps"] += trace.clamp_count()
            for delta, count in report.delta_counts.items():
                totals["delta_hist"][delta] = (
                    totals["delta_hist"].get(delta, 0) + count
                )
    return totals


def test_criterion_1_worked_example_gate():
    demands = DemandSet.from_vectors([[1, 4], [3, 1]])
    reserves = ResourceVector([9, 18])
    want_tasks = (3, 2)
    want_shares = (ResourceVector([3, 12]), ResourceVector([6, 2]))

    loop = drf_allocate(demands, reserves)
    pre = pdrf_allocate(demands, reserves)

    machine = AllocationMachine(
        MachineConfig(2, 4, 0, ResourceVector([9, 18]))
    )
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1, 4]), 0)
    machine.demand(1, ResourceVector([3, 1]), 1)
    receipts = (machine.claim(0, 4), machine.claim(1, 5))
    machine_tasks = tuple(r.task_count for r in receipts)
    machine_shares = tuple(r.share for r in receipts)

    ok = (
        loop.task_counts == want_tasks
        and pre.task_counts == want_tasks
        and loop.allocations == want_shares
        and pre.allocations == want_shares
        and machine_tasks == want_tasks
        and machine_shares == want_shares
    )
    _report(
        1,
        ok,
        f"loop={loop.task_counts} precomputed={pre.task_counts} "
        f"machine={machine_tasks}, shares all (3,12)/(6,2)",
    )


def test_criterion_2_machine_equals_fixed_point_reference(machine_batch):
    epochs = machine_batch["epochs"]
    claims = machine_batch["claims"]
    matches = machine_batch["matches"]
    rate = matches / claims
    ok = epochs >= 1000 and rate == 1.0
    _report(
        2,
        ok,
        f"{epochs} epochs, {claims} claims, match rate {rate}",
    )


def test_criterion_3_fixed_vs_rational_within_one(machine_batch):
    hist = machine_batch["delta_hist"]
    max_abs = max((abs(d) for d in hist), default=0)
    total = sum(hist.values())
    nonzero = sum(c for d, c in hist.items() if d != 0)
    ok = max_abs <= 1
    _report(
        3,
        ok,
        f"max |fixed - rational| = {max_abs}; nonzero deltas "
        f"{nonzero}/{total} ({nonzero / total:.4%}), histogram {dict(sorted(hist.items()))}",
    )


def test_criterion_4_approximation_statistics():
    rng = random.Random(0)
    trials = 10_000
    total = under = over = under_more = 0
    for _ in range(trials):
        demands = DemandSet.from_vectors(
            [[rng.randint(1, 10) for _ in range(4)] for _ in range(10)]
        )
        shared = rng.randint(100, 1000)
        stats = compare_pdrf_drf(demands, ResourceVector((shared,) * 4))
        total += stats.total
        under += stats.under_by_one
        over += stats.over
        under_more += stats.under_by_more
    under_frac = under / total
    over_frac = over / total
    ok = under_more == 0 and 0.35 <= under_frac <= 0.60 and over_frac <= 0.01
    _report(
        4,
        ok,
        f"{trials} instances: under-by-one {under_frac:.4f} in [0.35, 0.60], "
        f"over {over_frac:.5f} <= 0.01, under by 2+ count {under_more}",
    )


def test_criterion_5_conservation_and_no_clamps(machine_batch):
    calls = machine_batch["calls"]
    clamps = machine_batch["clamps"]
    # the executor verifies injected == balances + both pools after every
    # call and raises on any gap, so reaching here means zero violations
    ok = calls >= 10_000 and clamps == 0
    _report(
        5,
        ok,
        f"identity held for all {calls} calls, clamp events {clamps}",
    )


def test_criterion_6_cost_structure():
    claim_points = []
    for m in (2, 5, 10, 20):
        trace = run_simulation(SimConfig(users=3, resources=m, epochs=4, seed=1))
        claim_points.extend(
            (m, cost_units)
            for call_kind, m, _, _, cost_units in trace.costs
            if call_kind == KIND_CLAIM
        )
    sim_fit = fit_linear(claim_points)
    residuals = [
        y - sim_fit.predict(x) for x, y in claim_points
    ]
    affine_ok = sim_fit.r_squared == 1 and all(r == 0 for r in residuals)

    claim = fit_linear(load_fixture("reference-gas-claim").inputs["points"])
    demand = fit_linear(load_fixture("reference-gas-demand").inputs["points"])
    update = fit_linear(load_fixture("reference-gas-update").inputs["points"])

    def rel(value: Fraction, target: int) -> Fraction:
        return abs(value - target) / target

    claim_ok = (
        rel(claim.slope, 15_130) <= Fraction(1, 100)
        and rel(claim.intercept, 36_486) <= Fraction(5, 100)
        and claim.r_squared >= Fraction("0.9999")
    )
    demand_ok = rel(demand.slope, 13_616) <= Fraction(1, 100)
    update_ok = rel(update.slope, 11_295) <= Fraction(2, 100)
    ok = affine_ok and claim_ok and demand_ok and update_ok
    _report(
        6,
        ok,
        f"simulated claim costs affine with zero residual: {affine_ok}; "
        f"benchmark fits: claim slope {float(claim.slope):.1f} "
        f"(R^2={float(claim.r_squared):.6f}), demand slope "
        f"{float(demand.slope):.1f}, update slope {float(update.slope):.1f}",
    )


def test_criterion_7_reduction_identities():
    rng = random.Random(2)
    filling_ok = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        demands = [rng.randint(0, 30) for _ in range(n)]
        reserve = rng.randint(0, 100)
        equal = WeightVector([rng.randint(1, 5)] * n)
        if progressive_filling(demands, reserve, equal) == (
            progressive_filling(demands, reserve)
        ):
            filling_ok += 1
    precomputed_ok = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(1, 5)
        demands = DemandSet.from_vectors(
            [
                [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
                for _ in range(n)
            ]
        )
        reserves = ResourceVector([rng.randint(10, 500) for _ in range(m)])
        weights = [WeightVector([1] * m) for _ in range(n)]
        if pdrf_allocate(demands, reserves, weights) == pdrf_allocate(
            demands, reserves
        ):
            precomputed_ok += 1
    ok = filling_ok == 1000 and precomputed_ok == 1000
    _report(
        7,
        ok,
        f"equal-weight filling identical on {filling_ok}/1000, "
        f"unit-weight precomputed identical on {precomputed_ok}/1000",
    )


def test_criterion_8_determinism_and_replay():
    identical = 0
    replays_ok = 0
    configs = [
        SimConfig(users=4, resources=2, epochs=6, seed=0),
        SimConfig(users=10, resources=5, epochs=4, seed=3),
        SimConfig(users=1, resources=3, epochs=5, seed=7),
    ]
    for config in configs:
        first = run_simulation(config)
        second = run_simulation(config)
        identical += first == second
        replays_ok += bool(replay(first))
        replays_ok += bool(
            replay(first, cost_model=CostModel(branch_unit=0))
        )
    ok = identical == len(configs) and replays_ok == 2 * len(configs)
    _report(
        8,
        ok,
        f"{identical}/{len(configs)} configs bit-identical across reruns, "
        f"{replays_ok}/{2 * len(configs)} replays matched",
    )
