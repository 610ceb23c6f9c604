import collections
import dataclasses
import hashlib

import pytest

from fairpool import (
    AllocationMachine,
    CostModel,
    ResourceVector,
    SimConfig,
    SimulationError,
    build_schedule,
    crosscheck_trace,
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
    CostRecord,
    TraceRecord,
    _execute,
    _make_machine,
    read_cost_csv,
)
from fairpool.machine import ClaimReceipt, DemandRecord


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


# --- record types --------------------------------------------------------------

_TX = BlockTx(3, KIND_DEMAND, 0, (1, 2))
_RECORDS = [
    (_TX, ("block", "kind", "user", "vector")),
    (
        CostRecord(KIND_CLAIM, 2, 3, 0, 100),
        ("call_kind", "m", "epoch", "user", "cost_units"),
    ),
    (
        TraceRecord(_TX, 1, (1, 2), None, False, 100, None, ((5, 5), (0, 0)), 0),
        ("tx", "epoch", "vector", "task_count", "clamped", "cost_units",
         "update_cost", "reserves", "cycle_count"),
    ),
    (
        DemandRecord(0, 1, ResourceVector([1, 2]), 5, 0),
        ("user", "epoch", "vector", "recip_share", "min_updates"),
    ),
    (
        ClaimReceipt(0, 2, 3, ResourceVector([3, 6]), False),
        ("user", "epoch", "task_count", "share", "clamped"),
    ),
]


@pytest.mark.parametrize(
    "record, fields",
    [pytest.param(*case, id=type(case[0]).__name__) for case in _RECORDS],
)
def test_record_fields_are_fixed_and_immutable(record, fields):
    assert record._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[1], 7)
    changed = record._replace(**{fields[1]: 7})
    assert changed[1] == 7 and record[1] != 7
    assert changed[:1] + changed[2:] == record[:1] + record[2:]


# --- simulation ----------------------------------------------------------------


def test_epoch_reserve_scales_with_users():
    config = SimConfig(users=10, resources=2, epochs=2, per_user_reserve=150, seed=0)
    assert config.epoch_reserve == ResourceVector([1500, 1500])
    trace = run_simulation(config)
    first = trace.records[0]
    assert first.reserves[0] == (1500, 1500)


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
    assert claims[0].reserves[0] == (0,)


def test_no_demand_epoch_gives_zero_cycles():
    # Drive a machine through an epoch with no demands: the transition
    # computes a zero cycle count for the empty pool.
    config = SimConfig(users=2, resources=2, epochs=2, seed=3)
    machine = _make_machine(config)
    machine.register_user(0)
    machine.update_state(2 * config.users)
    assert machine.cycle_count == 0


# The seeded schedule and everything the run derives from it, pinned so
# that a change to the draw order or to a record cannot go unnoticed.
GOLDEN_CONFIG = SimConfig(users=8, resources=5, epochs=3, seed=3)
GOLDEN_TRACE_SHA256 = "61c1317d5acca177ac1aa1c04bf0a2984babd2524e468c309b5072876b2715d1"
GOLDEN_RECORDS = ((1, None, None, False, 0),) * 8 + (
    # (epoch, vector, task_count, clamped, cost_units) of every later block
    (1, (4, 10, 9, 3, 6), None, False, 115825),
    (1, (10, 8, 10, 2, 10), None, False, 115325),
    (1, (1, 8, 5, 9, 4), None, False, 116325),
    (1, (4, 8, 9, 9, 8), None, False, 116325),
    (1, (7, 3, 4, 3, 9), None, False, 115825),
    (1, (7, 1, 2, 3, 10), None, False, 115825),
    (1, (1, 5, 1, 5, 8), None, False, 116325),
    (1, (10, 7, 7, 7, 10), None, False, 115325),
    (2, (68, 170, 153, 51, 102), 17, False, 112136),
    (2, (170, 136, 170, 34, 170), 17, False, 112136),
    (2, (19, 152, 95, 171, 76), 19, False, 112136),
    (2, (76, 152, 171, 171, 152), 19, False, 112136),
    (2, (133, 57, 76, 57, 171), 19, False, 112136),
    (2, (119, 17, 34, 51, 170), 17, False, 112136),
    (2, (21, 105, 21, 105, 168), 21, False, 112136),
    (2, (170, 119, 119, 119, 170), 17, False, 112136),
    (2, (8, 3, 6, 2, 1), None, False, 115325),
    (2, (3, 8, 4, 5, 7), None, False, 115825),
    (2, (5, 7, 9, 7, 10), None, False, 116825),
    (2, (6, 9, 10, 7, 10), None, False, 116325),
    (2, (4, 6, 1, 5, 10), None, False, 116325),
    (2, (3, 6, 9, 10, 10), None, False, 116825),
    (2, (2, 4, 10, 5, 5), None, False, 116325),
    (2, (2, 2, 8, 8, 2), None, False, 115825),
    (3, (192, 72, 144, 48, 24), 24, False, 112136),
    (3, (72, 192, 96, 120, 168), 24, False, 112136),
    (3, (95, 133, 171, 133, 190), 19, False, 112136),
    (3, (114, 171, 190, 133, 190), 19, False, 112136),
    (3, (76, 114, 19, 95, 190), 19, False, 112136),
    (3, (57, 114, 171, 190, 190), 19, False, 112136),
    (3, (38, 76, 190, 95, 95), 19, False, 112136),
    (3, (48, 48, 192, 192, 48), 24, False, 112136),
    (3, (6, 2, 7, 3, 1), None, False, 115825),
    (3, (5, 7, 7, 2, 1), None, False, 115825),
    (3, (10, 10, 1, 7, 10), None, False, 116325),
    (3, (6, 9, 5, 9, 4), None, False, 115825),
    (3, (1, 5, 1, 2, 2), None, False, 115825),
    (3, (10, 9, 1, 4, 7), None, False, 115325),
    (3, (5, 10, 5, 3, 1), None, False, 115825),
    (3, (6, 6, 6, 3, 7), None, False, 116325),
)


def test_golden_trace(tmp_path):
    trace = run_simulation(GOLDEN_CONFIG)
    assert tuple(
        (r.epoch, r.vector, r.task_count, r.clamped, r.cost_units)
        for r in trace.records
    ) == GOLDEN_RECORDS
    path = tmp_path / "golden.txt"
    write_trace_file(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACE_SHA256


# sha256 of write_cost_csv(trace.costs, ...): the cost rows, their order,
# and the per-user ordinals behind the setup surcharges.
SETUP_COST_CONFIG = SimConfig(users=3, resources=4, epochs=5, seed=21)
SETUP_COST_MODEL = CostModel(demand_setup=1000, claim_setup=700, update_setup=300)
GOLDEN_COST_CSV_SHA256 = {
    "golden": "224afe33cd1601949bfca5ad05cfd617a10f08814a97814a22954a192edc397a",
    "setup": "f3f2a152ff1fe3816716a2591fffb34f37bc1bfea8844362e430acb2428d0215",
}


@pytest.mark.parametrize(
    "name, config, model",
    [
        ("golden", GOLDEN_CONFIG, DEFAULT_COST_MODEL),
        ("setup", SETUP_COST_CONFIG, SETUP_COST_MODEL),
    ],
)
def test_golden_cost_csv(tmp_path, name, config, model):
    trace = run_simulation(config, model)
    path = tmp_path / "costs.csv"
    write_cost_csv(trace.costs, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_COST_CSV_SHA256[name]


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
    records[idx] = victim._replace(vector=tampered_vec)
    tampered = dataclasses.replace(trace, records=tuple(records))
    result = replay(tampered)
    assert not result
    assert result.diverged_at == victim.tx.block


def test_replay_reports_the_first_diverging_block():
    # Record k is tampered and a later transaction is made invalid: the
    # replay stops at block k, before it reaches the invalid call.
    config = SimConfig(users=2, resources=2, epochs=3, seed=4)
    trace = run_simulation(config)
    records = list(trace.records)
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_CLAIM)
    records[k] = records[k]._replace(task_count=records[k].task_count + 1)
    later = records[-1]
    records[-1] = later._replace(
        tx=later.tx._replace(user=99)  # never registered
    )
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert not result
    assert result.diverged_at == records[k].tx.block
    assert result.reason == f"task_count diverged at block {records[k].tx.block}"


_TAMPER = {
    "epoch": lambda rec: rec.epoch + 1,
    "vector": lambda rec: (rec.vector[0] + 1,) + rec.vector[1:],
    "task_count": lambda rec: rec.task_count + 1,
    "clamped": lambda rec: not rec.clamped,
    "reserves": lambda rec: ((rec.reserves[0][0] + 1,) + rec.reserves[0][1:],
                             rec.reserves[1]),
    "cycle_count": lambda rec: -1,
}


@pytest.mark.parametrize("field_name", list(_TAMPER))
def test_replay_names_the_one_tampered_field(field_name):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = list(trace.records)
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_CLAIM)
    records[k] = records[k]._replace(**{field_name: _TAMPER[field_name](records[k])})
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    block = records[k].tx.block
    assert (result.ok, result.diverged_at) == (False, block)
    assert result.reason == f"{field_name} diverged at block {block}"


@pytest.mark.parametrize("field_name", list(_TAMPER))
def test_replay_under_another_cost_model_names_the_tampered_field(field_name):
    # Every record's cost differs from the replay's, so no whole record
    # compares equal and each block falls back to comparing fields.
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = list(trace.records)
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_CLAIM)
    records[k] = records[k]._replace(**{field_name: _TAMPER[field_name](records[k])})
    other = CostModel(claim=(1, 1), demand=(1, 47_245), update_state=(2, 3))
    result = replay(dataclasses.replace(trace, records=tuple(records)), other)
    block = records[k].tx.block
    assert (result.ok, result.diverged_at) == (False, block)
    assert result.reason == f"{field_name} diverged at block {block}"


def test_replay_ignores_cost_coefficients():
    config = SimConfig(users=2, resources=2, epochs=3, seed=5)
    trace = run_simulation(config)
    other = CostModel(claim=(1, 1), demand=(1, 47_245))
    assert replay(trace, cost_model=other)


def test_simulation_error_carries_block():
    config = SimConfig(users=2, resources=2, epochs=2, seed=6)
    machine = _make_machine(config)
    bad = [BlockTx(1, KIND_CLAIM, 0)]  # claim before registering
    with pytest.raises(SimulationError) as exc_info:
        list(_execute(machine, bad, CostModel()))
    assert exc_info.value.block == 1
    assert "block 1" in str(exc_info.value)


def test_decreasing_block_raises_at_that_block():
    config = SimConfig(users=2, resources=2, epochs=2, seed=6)
    txs = build_schedule(config)
    # user 1's claim, block 6, restamped before user 0's claim at block 5
    assert (txs[5].kind, txs[5].block) == (KIND_CLAIM, 6)
    txs[5] = txs[5]._replace(block=4)
    with pytest.raises(SimulationError, match="precedes the last block") as info:
        list(_execute(_make_machine(config), txs, CostModel()))
    assert info.value.block == 4


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
    final = trace.records[-1].reserves
    shares = [rec.vector for rec in trace.records if rec.tx.kind == KIND_CLAIM]
    per_resource = config.users * config.per_user_reserve
    expected_injected = per_resource * config.epochs  # init + (epochs-1) refills
    for r in range(config.resources):
        held = final[0][r] + final[1][r] + sum(share[r] for share in shares)
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


def _add_units(machine, user, count):
    """Add ``count`` units of resource 0 to ``user``'s machine balance."""
    i = machine._users[user]
    balance = machine._balance[i]
    machine._balance[i] = (balance[0] + count, *balance[1:])


def _credit(user):
    """Credit one unit to ``user``, or to the caller if None."""

    def corrupt(machine, caller):
        _add_units(machine, caller if user is None else user, 1)

    return corrupt


def _drain_demand_pool(machine, caller):
    pools = [list(pool) for pool in machine._reserves]
    pools[machine.demand_pool_parity()][0] -= 1
    machine._reserves = tuple(map(tuple, pools))


def _overdraw_claim_pool(machine, caller):
    """Move the claim pool's first component, plus one unit, into the
    demand pool: every total still balances, but the claim pool holds -1."""
    pools = [list(pool) for pool in machine._reserves]
    claim_pool = pools[machine.epoch % 2]
    pools[machine.demand_pool_parity()][0] += claim_pool[0] + 1
    claim_pool[0] = -1
    machine._reserves = tuple(map(tuple, pools))


def _grow_injected(machine, caller):
    """Replace the injected total with a vector one unit larger."""
    injected = machine._injected
    machine._injected = ResourceVector((injected[0] + 1, *injected[1:]))


@pytest.mark.parametrize(
    "method, at_block, corrupt",
    [
        pytest.param("claim", 11, _credit(None), id="claimer-credited"),
        pytest.param("claim", 11, _drain_demand_pool, id="pool-drained-in-claim"),
        pytest.param("demand", 22, _drain_demand_pool, id="pool-drained-in-demand"),
        pytest.param("claim", 11, _overdraw_claim_pool, id="pool-negative-in-claim"),
        pytest.param("demand", 22, _overdraw_claim_pool, id="pool-negative-in-demand"),
        pytest.param("demand", 22, _grow_injected, id="injected-grown-in-demand"),
    ],
)
def test_fault_in_a_call_raises_at_that_block(monkeypatch, method, at_block, corrupt):
    _corrupt_during(monkeypatch, method, at_block, corrupt)
    with pytest.raises(SimulationError) as exc_info:
        run_simulation(FAULT_CONFIG)
    assert exc_info.value.block == at_block
    assert "conservation identity violated" in str(exc_info.value)


def test_negative_pool_stops_run_and_replay_at_that_block(monkeypatch):
    # Users 0..9 claim at blocks 21..30 of epoch 2; the claim at block 30
    # is followed by the fault.
    config = SimConfig(users=10, resources=2, epochs=3, seed=1)
    trace = run_simulation(config)
    _corrupt_during(monkeypatch, "claim", 30, _overdraw_claim_pool)
    with pytest.raises(SimulationError, match="a pool is negative") as exc_info:
        run_simulation(config)
    assert exc_info.value.block == 30
    result = replay(trace)
    assert not result
    assert result.diverged_at == 30


def test_pools_changed_in_place_raise_at_that_block(monkeypatch):
    # Block 21 swaps in list pools holding the same units, so nothing is
    # wrong yet; block 22 takes a unit from one in place.  The pair is
    # the same object at both blocks, but list pools are never trusted
    # to be unchanged, so block 22 is checked.
    def corrupt(machine, caller):
        if machine._last_block == 21:
            machine._reserves = tuple(map(list, machine._reserves))
        else:
            machine._reserves[machine.demand_pool_parity()][0] -= 1

    original = AllocationMachine.demand

    def faulty(self, user, vector, block):
        result = original(self, user, vector, block)
        if block in (21, 22):
            corrupt(self, user)
        return result

    monkeypatch.setattr(AllocationMachine, "demand", faulty)
    with pytest.raises(SimulationError, match="conservation identity") as info:
        run_simulation(FAULT_CONFIG)
    assert info.value.block == 22


def _move_units(count):
    """Move ``count`` units of resource 0 from user 1's balance to user 2's."""

    def corrupt(machine, caller):
        _add_units(machine, 1, -count)
        _add_units(machine, 2, count)

    return corrupt


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
        pytest.param(16, _move_units(1), 17, id="moved-between-users"),
        # user 1's balance goes negative: the recount compares it with
        # the ledger before anything reads it as a validated vector
        pytest.param(16, _move_units(10**9), 17, id="balance-driven-negative"),
    ],
)
def test_non_caller_fault_raises_at_next_recount(
    monkeypatch, at_block, corrupt, caught_at
):
    trace = run_simulation(FAULT_CONFIG)
    _corrupt_during(monkeypatch, "demand", at_block, corrupt)
    with pytest.raises(SimulationError) as exc_info:
        run_simulation(FAULT_CONFIG)
    assert exc_info.value.block == caught_at
    assert "conservation identity violated" in str(exc_info.value)
    result = replay(trace)
    assert (result.ok, result.diverged_at) == (False, caught_at)
    assert result.reason == str(exc_info.value)


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


@pytest.mark.parametrize("users", [2, 40])
def test_no_record_holds_per_user_state(users):
    # No container among the fields of a record and of its tx, at any
    # depth, holds more than m items (a vector, a pool, the pair of
    # pools), so nothing in a record grows with the number of users.
    m = 4
    trace = run_simulation(SimConfig(users=users, resources=m, epochs=4, seed=17))

    def walk(value):
        if isinstance(value, (list, tuple, dict, set)):
            assert len(value) <= m, value
            for item in value.values() if isinstance(value, dict) else value:
                walk(item)

    for rec in trace.records:
        for value in rec.tx + rec[1:]:
            walk(value)


def test_unchanged_pools_share_the_previous_records_tuple():
    # Register and most demand blocks leave both pools as they were; such
    # a record holds the previous record's pools object, not a copy.
    trace = run_simulation(SimConfig(users=6, resources=3, epochs=4, seed=17))
    pairs = list(zip(trace.records, trace.records[1:]))
    same = [b for a, b in pairs if a.reserves == b.reserves]
    assert len(same) > len(pairs) // 3
    assert all(a.reserves is b.reserves for a, b in pairs if a.reserves == b.reserves)


# --- cost model -----------------------------------------------------------------


def test_base_cost_defaults():
    # Ordinal 3 is past every setup surcharge.
    cost = DEFAULT_COST_MODEL.cost
    assert cost(KIND_CLAIM, 10, 0, 3) == 15_130 * 10 + 36_486
    assert cost(KIND_DEMAND, 10, 0, 3) == 13_616 * 10 + 47_245
    assert cost(KIND_UPDATE, 10, 0, 3) == 11_295 * 10 + 23_539


def test_base_cost_branch_surcharge():
    model = CostModel(branch_unit=500)
    assert model.cost(KIND_DEMAND, 5, 3, 3) == 13_616 * 5 + 47_245 + 1500
    with pytest.raises(ValueError):
        DEFAULT_COST_MODEL.cost("bogus", 5, 0, 3)


def test_cost_overrides_round_trip():
    model = CostModel(claim=(1, 2), branch_unit=0, update_setup=7)
    assert model.as_dict()["claim"] == [1, 2]
    assert CostModel.from_overrides(model.as_dict()) == model
    assert CostModel.from_overrides({}) == DEFAULT_COST_MODEL


@pytest.mark.parametrize(
    "overrides",
    [
        [1, 2],
        "claim",
        {"claim": 5},
        {"claim": [1]},
        {"claim": [1, 2, 3]},
        {"claim": [1, 2.5]},
        {"demand": [True, 2]},
        {"branch_unit": [1, 2]},
        {"branch_unit": 1.0},
        {"branch_unit": "3"},
        {"claim_setup": False},
        {"bogus": 1},
    ],
)
def test_cost_overrides_reject_malformed(overrides):
    with pytest.raises(ValueError):
        CostModel.from_overrides(overrides)


def test_claim_costs_affine_exact_across_sweep():
    model = CostModel()
    for m in (2, 5, 10):
        trace = run_simulation(SimConfig(users=3, resources=m, epochs=4, seed=1), model)
        claim_costs = {
            c.cost_units for c in trace.costs if c.call_kind == KIND_CLAIM
        }
        slope, intercept = model.claim
        assert claim_costs == {slope * m + intercept}


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


def _old_trace_lines(trace):
    """The trace file's block lines as ``str``-joined fields, for comparison."""
    for rec in trace.records:
        vec = ",".join(map(str, rec.vector)) if rec.vector else "-"
        yield (
            f"{rec.tx.block} {rec.epoch} {rec.tx.kind} {rec.tx.user} {vec} "
            f"{rec.cost_units} {int(rec.clamped)}\n"
        )


@pytest.mark.parametrize("m", [1, 3, 8])
def test_trace_file_lines_match_str_join(tmp_path, m):
    trace = run_simulation(SimConfig(users=3, resources=m, epochs=3, seed=17))
    path = tmp_path / "trace.txt"
    write_trace_file(trace, str(path))
    header, *lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    assert header.startswith("# {")
    assert lines == list(_old_trace_lines(trace))


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


def test_hundreds_of_resource_types():
    trace = run_simulation(SimConfig(users=4, resources=256, epochs=4, seed=5))
    report = crosscheck_trace(trace)
    assert report.claims_checked == 12
    assert report.match_rate == 1.0
    assert trace.clamp_count() == 0
    assert replay(trace)


def test_crosscheck_single_user():
    trace = run_simulation(SimConfig(users=1, resources=2, epochs=4, seed=13))
    report = crosscheck_trace(trace)
    assert report.match_rate == 1.0
    assert set(report.delta_counts) == {0}


# --- each check once ------------------------------------------------------------


def test_one_update_state_call_per_demand_or_claim_block(monkeypatch):
    calls = []
    original = AllocationMachine.update_state

    def counted(self, block):
        calls.append(block)
        return original(self, block)

    monkeypatch.setattr(AllocationMachine, "update_state", counted)
    trace = run_simulation(FAULT_CONFIG)
    blocks = [r.tx.block for r in trace.records if r.tx.kind != KIND_REGISTER]
    assert len(blocks) == 28
    assert calls == blocks


def test_one_vector_check_per_demand_and_none_per_claim(monkeypatch):
    built = []
    init = ResourceVector.__init__

    def counted(self, quantities):
        built.append(tuple(self))
        init(self, quantities)

    monkeypatch.setattr(ResourceVector, "__init__", counted)
    trace = run_simulation(SimConfig(users=20, resources=3, epochs=4, seed=1))
    kinds = collections.Counter(r.tx.kind for r in trace.records)
    assert (kinds[KIND_DEMAND], kinds[KIND_CLAIM]) == (80, 60)
    # One entry check per demand, one total_injected per transition (3)
    # and the config's epoch reserve; claims return plain tuples.
    assert len(built) == 80 + 3 + 1


def test_replay_returns_a_simulation_error_as_its_result():
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = list(trace.records)
    last = records[-1]
    records[-1] = last._replace(
        tx=last.tx._replace(user=99)  # never registered
    )
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert not result
    assert result.diverged_at == last.tx.block
    assert result.reason == f"block {last.tx.block}: user 99 is not registered"


def test_crosscheck_keeps_the_first_ten_mismatches(monkeypatch):
    original = chainsim.reference_task_counts

    def off_by_one(demands, pool):
        return {u: t + 1 for u, t in original(demands, pool).items()}

    monkeypatch.setattr(chainsim, "reference_task_counts", off_by_one)
    report = crosscheck_trace(run_simulation(FAULT_CONFIG))
    assert (report.claims_checked, report.matches) == (12, 0)
    assert report.match_rate == 0.0
    # Claims of epochs 2, 3 and 4 by users 0 to 3, in order, up to ten.
    assert [(e, u) for e, u, _, _ in report.mismatches] == [
        (e, u) for e in (2, 3, 4) for u in range(4)
    ][:10]
    assert all(ref == got + 1 for _, _, got, ref in report.mismatches)


@pytest.mark.parametrize(
    "vector, message",
    [
        ((-1, 2), "resource quantity must be non-negative, got -1"),
        ((1.5, 2), "resource quantity must be an integer, got 1.5"),
        (None, "demand carries no vector"),
        ((1,), "demand has 1 components, machine has 2 resources"),
        ((0, 0), "demand must have a positive component"),
        (5, "'int' object is not iterable"),
    ],
    ids=["negative", "fractional", "missing", "short", "all-zero", "non-iterable"],
)
def test_replay_names_the_block_of_a_demand_that_fails_its_entry_check(
    vector, message
):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = list(trace.records)
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=records[k].tx._replace(vector=vector))
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert (result.ok, result.diverged_at) == (False, 3)
    assert result.reason == f"block 3: {message}"


@pytest.mark.parametrize(
    "fields", [lambda tx: tx[:3], lambda tx: (*tx, None)], ids=["short", "long"]
)
def test_replay_names_the_block_of_a_transaction_of_the_wrong_arity(fields):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = list(trace.records)
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=fields(tuple(records[k].tx)))
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert (result.ok, result.diverged_at) == (False, 3)
    arity = len(records[k].tx)
    assert result.reason == f"block 3: transaction has {arity} fields, not 4"
