import collections
import dataclasses
import statistics

import pytest

from fairpool import (
    AllocationMachine,
    CostModel,
    ResourceVector,
    SimConfig,
    SimulationError,
    build_schedule,
    crosscheck_trace,
    gen_demands,
    replay,
    run_simulation,
    write_cost_csv,
    write_trace_file,
)
from fairpool import chainsim
from fairpool.chainsim import (
    DEFAULT_COST_MODEL,
    KIND_CLAIM,
    KIND_DEMAND,
    KIND_REGISTER,
    KIND_UPDATE,
    BlockTx,
    _execute,
    _make_machine,
    read_cost_csv,
)


# --- demand generation -----------------------------------------------------


def test_gen_demands_degenerate_interval():
    vecs = gen_demands(2, 2, 5, 5, seed=123)
    assert vecs == [ResourceVector([5, 5]), ResourceVector([5, 5])]


def test_gen_demands_deterministic():
    assert gen_demands(10, 3, 1, 10, seed=42) == gen_demands(10, 3, 1, 10, seed=42)
    assert gen_demands(10, 3, 1, 10, seed=42) != gen_demands(10, 3, 1, 10, seed=43)


def test_gen_demands_mean_close_to_center():
    draws = [v[0] for v in gen_demands(10_000, 1, 1, 10, seed=0)]
    assert abs(statistics.fmean(draws) - 5.5) < 0.1


def test_gen_demands_rejects_bad_bounds():
    with pytest.raises(ValueError):
        gen_demands(1, 1, 10, 1, seed=0)


# --- schedule ----------------------------------------------------------------


def test_schedule_structure_two_users_two_epochs():
    txs = build_schedule(SimConfig(users=2, resources=2, epochs=2, seed=0))
    kinds = [tx.kind for tx in txs]
    assert kinds == [
        KIND_REGISTER,
        KIND_REGISTER,
        KIND_DEMAND,
        KIND_DEMAND,
        KIND_CLAIM,
        KIND_CLAIM,
        KIND_DEMAND,
        KIND_DEMAND,
    ]
    assert [tx.block for tx in txs] == list(range(1, 9))


def test_schedule_minimal():
    txs = build_schedule(SimConfig(users=1, resources=1, epochs=1, seed=0))
    assert [tx.kind for tx in txs] == [KIND_REGISTER, KIND_DEMAND]


def test_schedule_total_blocks():
    config = SimConfig(users=3, resources=2, epochs=5, seed=1)
    txs = build_schedule(config)
    assert len(txs) == 2 * config.users * config.epochs


def test_epoch_updates_fire_on_first_claim_of_each_epoch():
    config = SimConfig(users=3, resources=2, epochs=4, seed=2)
    trace = run_simulation(config)
    updates = [c for c in trace.costs if c.call_kind == KIND_UPDATE]
    assert len(updates) == config.epochs - 1
    assert [u.epoch for u in updates] == [2, 3, 4]
    # the update always rides on user 0's claim, the first call of the epoch
    assert all(u.user == 0 for u in updates)


# --- simulation ----------------------------------------------------------------


def test_epoch_reserve_scales_with_users():
    config = SimConfig(users=10, resources=2, epochs=2, per_user_reserve=150, seed=0)
    assert config.epoch_reserve == ResourceVector([1500, 1500])
    trace = run_simulation(config)
    first = trace.records[0]
    assert first.snapshot["reserves"][0] == (1500, 1500)


def test_single_user_fixed_demand_closed_form():
    # One user demanding one unit of one resource claims the entire
    # replenished pool in the next epoch: 150 tasks of 1 unit.
    config = SimConfig(
        users=1,
        resources=1,
        epochs=2,
        demand_low=1,
        demand_high=1,
        per_user_reserve=150,
        seed=0,
    )
    trace = run_simulation(config)
    claims = [r for r in trace.records if r.tx.kind == KIND_CLAIM]
    assert len(claims) == 1
    assert claims[0].task_count == 150
    assert claims[0].vector == (150,)
    assert claims[0].snapshot["reserves"][0] == (0,)


def test_no_demand_epoch_gives_zero_cycles():
    # Drive a machine through an epoch with no demands: the transition
    # computes a zero cycle count for the empty pool.
    config = SimConfig(users=2, resources=2, epochs=2, seed=3)
    machine = _make_machine(config)
    machine.register_user(0)
    machine.update_state(2 * config.users)
    assert machine.cycle_count == 0


def test_trace_determinism_and_replay():
    config = SimConfig(users=4, resources=3, epochs=5, seed=9)
    a = run_simulation(config)
    b = run_simulation(config)
    assert a == b
    assert replay(a)
    assert replay(b)


def test_replay_detects_tampered_share():
    config = SimConfig(users=2, resources=2, epochs=3, seed=4)
    trace = run_simulation(config)
    idx, victim = next(
        (i, r)
        for i, r in enumerate(trace.records)
        if r.tx.kind == KIND_CLAIM and r.vector and any(r.vector)
    )
    tampered_vec = (victim.vector[0] + 1,) + victim.vector[1:]
    records = list(trace.records)
    records[idx] = dataclasses.replace(victim, vector=tampered_vec)
    tampered = dataclasses.replace(trace, records=tuple(records))
    result = replay(tampered)
    assert not result
    assert result.diverged_at == victim.tx.block


def test_replay_ignores_cost_coefficients():
    config = SimConfig(users=2, resources=2, epochs=3, seed=5)
    trace = run_simulation(config)
    other = CostModel(claim_slope=1, claim_intercept=1, demand_slope=1)
    assert replay(trace, cost_model=other)


def test_simulation_error_carries_block():
    config = SimConfig(users=2, resources=2, epochs=2, seed=6)
    machine = _make_machine(config)
    bad = [BlockTx(1, KIND_CLAIM, 0)]  # claim before registering
    with pytest.raises(SimulationError) as exc_info:
        _execute(machine, bad, CostModel())
    assert exc_info.value.block == 1
    assert "block 1" in str(exc_info.value)


def test_schedule_law_demand_then_claim_next_epoch():
    config = SimConfig(users=3, resources=2, epochs=5, seed=7)
    trace = run_simulation(config)
    demands = {}  # (epoch, user) -> count
    claims = {}
    for rec in trace.records:
        key = (rec.epoch, rec.tx.user)
        if rec.tx.kind == KIND_DEMAND:
            demands[key] = demands.get(key, 0) + 1
        elif rec.tx.kind == KIND_CLAIM:
            claims[key] = claims.get(key, 0) + 1
    for (epoch, user), count in demands.items():
        assert count == 1
        if epoch < config.epochs:
            assert claims.get((epoch + 1, user), 0) == 1
        else:
            assert (epoch + 1, user) not in claims


def test_replenishment_law():
    config = SimConfig(users=2, resources=2, epochs=6, per_user_reserve=50, seed=8)
    trace = run_simulation(config)
    final = trace.records[-1].snapshot
    per_resource = config.users * config.per_user_reserve
    expected_injected = per_resource * config.epochs  # init + (epochs-1) refills
    for r in range(config.resources):
        held = final["reserves"][0][r] + final["reserves"][1][r]
        held += sum(bal[r] for bal in final["balances"].values())
        assert held == expected_injected


def test_no_clamps_on_standard_schedules():
    for seed in range(5):
        trace = run_simulation(SimConfig(users=5, resources=3, epochs=6, seed=seed))
        assert trace.clamp_count() == 0


# --- conservation checks ------------------------------------------------------
#
# 4 users, 4 epochs: epoch e spans blocks 8e-7 .. 8e; its first four blocks
# are claims (registrations in epoch 1), its last four demands.  Epoch
# transitions run at blocks 9, 17 and 25; block 32 is the last.
FAULT_CONFIG = SimConfig(users=4, resources=2, epochs=4, seed=15)


def _corrupt_during(monkeypatch, method, at_block, corrupt):
    """Make ``AllocationMachine.<method>`` call ``corrupt(machine, user)``
    after the real call at block ``at_block``."""
    original = getattr(AllocationMachine, method)

    def faulty(self, user, *args):
        result = original(self, user, *args)
        if args[-1] == at_block:
            corrupt(self, user)
        return result

    monkeypatch.setattr(AllocationMachine, method, faulty)


def _credit(user):
    """Credit one unit to ``user``, or to the caller if None."""

    def corrupt(machine, caller):
        machine._users[caller if user is None else user].balance[0] += 1

    return corrupt


def _drain_demand_pool(machine, caller):
    machine._reserves[machine.demand_pool_parity()][0] -= 1


@pytest.mark.parametrize(
    "method, at_block, corrupt",
    [
        pytest.param("claim", 11, _credit(None), id="claimer-credited"),
        pytest.param("claim", 11, _drain_demand_pool, id="pool-drained-in-claim"),
        pytest.param("demand", 22, _drain_demand_pool, id="pool-drained-in-demand"),
    ],
)
def test_fault_in_a_call_raises_at_that_block(monkeypatch, method, at_block, corrupt):
    _corrupt_during(monkeypatch, method, at_block, corrupt)
    with pytest.raises(SimulationError) as exc_info:
        run_simulation(FAULT_CONFIG)
    assert exc_info.value.block == at_block
    assert "conservation identity violated" in str(exc_info.value)


def _move_unit(machine, caller):
    machine._users[1].balance[0] -= 1
    machine._users[2].balance[0] += 1


@pytest.mark.parametrize(
    "at_block, corrupt, caught_at",
    [
        # user 1 demanded at block 14 and next calls at 18, after the
        # transition at 17
        pytest.param(15, _credit(1), 17, id="credited-before-transition"),
        # user 0 demanded at block 29, its last call
        pytest.param(30, _credit(0), 32, id="credited-before-last-block"),
        # a unit moved between users 1 and 2 (next calls at 18 and 19)
        # leaves every total intact; only the ledger sees it
        pytest.param(16, _move_unit, 17, id="moved-between-users"),
    ],
)
def test_non_caller_fault_raises_at_next_recount(
    monkeypatch, at_block, corrupt, caught_at
):
    _corrupt_during(monkeypatch, "demand", at_block, corrupt)
    with pytest.raises(SimulationError) as exc_info:
        run_simulation(FAULT_CONFIG)
    assert exc_info.value.block == caught_at
    assert "conservation identity violated" in str(exc_info.value)


def test_full_recount_runs_once_per_transition_and_at_the_end(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        chainsim, "accounting_gap", counted("accounting_gap", chainsim.accounting_gap)
    )
    monkeypatch.setattr(
        AllocationMachine, "snapshot", counted("snapshot", AllocationMachine.snapshot)
    )
    for users in (20, 80):
        calls.clear()
        trace = run_simulation(SimConfig(users=users, resources=3, epochs=4, seed=16))
        transitions = sum(1 for c in trace.costs if c.call_kind == KIND_UPDATE)
        assert transitions == 3
        assert calls == {"accounting_gap": transitions + 1, "snapshot": transitions + 1}


def test_snapshot_holds_full_state_only_on_recount_blocks():
    trace = run_simulation(FAULT_CONFIG)
    full = [rec.tx.block for rec in trace.records if "balances" in rec.snapshot]
    assert full == [9, 17, 25, 32]
    claim = trace.records[10]  # block 11: user 2's first claim
    assert claim.tx.user == 2
    assert set(claim.snapshot) == {"epoch", "reserves", "cycle_count", "balance"}
    assert claim.snapshot["balance"] == claim.vector


# --- cost model -----------------------------------------------------------------


def test_base_cost_defaults():
    base_cost = DEFAULT_COST_MODEL.base_cost
    assert base_cost(KIND_CLAIM, 10) == 15_130 * 10 + 36_486
    assert base_cost(KIND_DEMAND, 10) == 13_616 * 10 + 47_245
    assert base_cost(KIND_UPDATE, 10) == 11_295 * 10 + 23_539


def test_base_cost_branch_surcharge():
    model = CostModel(branch_unit=500)
    assert (
        model.base_cost(KIND_DEMAND, 5, branch_events=3)
        == 13_616 * 5 + 47_245 + 1500
    )
    with pytest.raises(ValueError):
        DEFAULT_COST_MODEL.base_cost("bogus", 5)


def test_claim_costs_affine_exact_across_sweep():
    model = CostModel()
    for m in (2, 5, 10):
        trace = run_simulation(SimConfig(users=3, resources=m, epochs=4, seed=1), model)
        claim_costs = {
            c.cost_units for c in trace.costs if c.call_kind == KIND_CLAIM
        }
        assert claim_costs == {model.claim_slope * m + model.claim_intercept}


def test_demand_cost_spread_bounded_by_branch_term():
    model = CostModel()
    config = SimConfig(users=8, resources=6, epochs=5, seed=2)
    trace = run_simulation(config, model)
    by_epoch: dict[int, list[int]] = {}
    for c in trace.costs:
        if c.call_kind == KIND_DEMAND:
            by_epoch.setdefault(c.epoch, []).append(c.cost_units)
    for costs in by_epoch.values():
        assert max(costs) - min(costs) <= model.branch_unit * (config.resources - 1)


def test_warmup_surcharges_apply_to_first_calls_only():
    model = CostModel(demand_setup=1000, claim_setup=700, update_setup=300)
    config = SimConfig(users=2, resources=2, epochs=5, seed=3)
    trace = run_simulation(config, model)
    demand_costs = [
        (c.epoch, c.cost_units) for c in trace.costs
        if c.call_kind == KIND_DEMAND and c.user == 0
    ]
    base = 13_616 * 2 + 47_245
    for epoch, cost in demand_costs:
        surcharge = 1000 if epoch <= 2 else 0
        assert base <= cost - surcharge <= base + model.branch_unit
    claim_costs = [
        (c.epoch, c.cost_units) for c in trace.costs
        if c.call_kind == KIND_CLAIM and c.user == 0
    ]
    claim_base = 15_130 * 2 + 36_486
    assert claim_costs[0] == (2, claim_base + 700)
    assert all(cost == claim_base for _, cost in claim_costs[1:])
    update_costs = [
        c.cost_units for c in trace.costs if c.call_kind == KIND_UPDATE
    ]
    update_base = 11_295 * 2 + 23_539
    assert update_costs[0] == update_base + 300
    assert all(c == update_base for c in update_costs[1:])


# --- file formats -----------------------------------------------------------------


def test_trace_file_format(tmp_path):
    config = SimConfig(users=2, resources=2, epochs=3, seed=10)
    trace = run_simulation(config)
    path = tmp_path / "trace.txt"
    write_trace_file(trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert '"generator": "python-random-mt19937"' in lines[0]
    assert len(lines) == 1 + len(trace.records)
    demand_line = next(l for l in lines[1:] if " demand " in l)
    fields = demand_line.split(" ")
    assert len(fields) == 7
    assert "," in fields[4]  # vector is comma-separated integers


def test_cost_csv_round_trip(tmp_path):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=11))
    path = tmp_path / "costs.csv"
    write_cost_csv(trace.costs, str(path))
    assert read_cost_csv(str(path)) == list(trace.costs)
    header = path.read_text().splitlines()[0]
    assert header == "call_kind,m,epoch,user,cost_units"


# --- crosscheck -----------------------------------------------------------------


def test_crosscheck_default_run_matches():
    trace = run_simulation(SimConfig(users=5, resources=3, epochs=6, seed=12))
    report = crosscheck_trace(trace)
    assert report.epochs_checked == 5
    assert report.claims_checked == 25
    assert report.match_rate == 1.0
    assert report.mismatches == ()
    assert report.max_abs_delta <= 1


def test_crosscheck_single_user():
    trace = run_simulation(SimConfig(users=1, resources=2, epochs=4, seed=13))
    report = crosscheck_trace(trace)
    assert report.match_rate == 1.0
    assert set(report.delta_counts) == {0}
