import collections
import copy
import dataclasses
import gc
import hashlib
import json
import operator
import random

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
    draw_ints,
    read_cost_csv,
)
from fairpool.machine import ClaimReceipt, DemandRecord, MachineError
from test_machine import _count_walks, _opcodes


# --- schedule ----------------------------------------------------------------


def test_schedule_structure_two_users_two_epochs():
    txs = build_schedule(SimConfig(users=2, resources=2, epochs=2, seed=0))
    kinds = [kind for _, kind, _, _ in txs]
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
    assert [block for block, _, _, _ in txs] == list(range(1, 9))


def test_schedule_minimal():
    txs = build_schedule(SimConfig(users=1, resources=1, epochs=1, seed=0))
    assert [kind for _, kind, _, _ in txs] == [KIND_REGISTER, KIND_DEMAND]


def test_schedule_total_blocks():
    config = SimConfig(users=3, resources=2, epochs=5, seed=1)
    txs = build_schedule(config)
    assert len(txs) == 2 * config.users * config.epochs


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "width", [1, 2, 3, 10, 16, 1000, 2**32 - 1, 2**32, 2**32 + 1, 2**40]
)
def test_draw_ints_draws_what_randrange_draws(seed, width):
    low, count = 5, 300
    expected_rng, rng = random.Random(seed), random.Random(seed)
    expected = [expected_rng.randrange(low, low + width) for _ in range(count)]
    assert draw_ints(rng, low, low + width - 1, count) == expected
    # The same generator state, so later draws interleave as before.
    assert rng.getstate() == expected_rng.getstate()


def test_draw_ints_rejects_an_empty_range():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        draw_ints(rng, 3, 2, 1)
    assert rng.getstate() == state
    assert draw_ints(rng, 1, 10, 0) == []
    assert rng.getstate() == state


def _schedule_drawn_by_randrange(config):
    """The schedule as drawn with one ``randrange`` call per component."""
    rng = random.Random(config.seed)
    n, m = config.users, config.resources
    stop = config.demand_high + 1
    txs = []
    block = 1
    for epoch in range(1, config.epochs + 1):
        first = KIND_REGISTER if epoch == 1 else KIND_CLAIM
        for user in range(n):
            txs.append(BlockTx(block, first, user, None))
            block += 1
        vectors = [
            tuple(rng.randrange(config.demand_low, stop) for _ in range(m))
            for _ in range(n)
        ]
        for user in range(n):
            txs.append(BlockTx(block, KIND_DEMAND, user, vectors[user]))
            block += 1
    return txs


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(users=1, resources=1, epochs=1, seed=0),
        SimConfig(users=7, resources=3, epochs=4, seed=5),
        SimConfig(users=5, resources=4, epochs=3, seed=2, demand_high=16),
        SimConfig(users=4, resources=2, epochs=3, seed=9, demand_low=3, demand_high=3),
        SimConfig(users=3, resources=5, epochs=2, seed=1, demand_high=2**33 + 5),
    ],
    ids=["minimal", "default-range", "power-of-two-width", "width-one", "above-2-to-32"],
)
def test_schedule_draws_what_randrange_draws(config):
    txs = build_schedule(config)
    assert txs == _schedule_drawn_by_randrange(config)
    demands = [vector for _, kind, _, vector in txs if kind == KIND_DEMAND]
    assert all(type(vector) is tuple for vector in demands)


def test_epoch_updates_fire_on_first_claim_of_each_epoch():
    config = SimConfig(users=3, resources=2, epochs=4, seed=2)
    trace = run_simulation(config)
    updates = [CostRecord._make(c) for c in trace.costs if c[0] == KIND_UPDATE]
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


def _named(rec):
    """A record's named view, with its transaction named too."""
    return TraceRecord._make(rec)._replace(tx=BlockTx._make(rec[0]))


def _assert_well_formed(record, cls):
    # Records built with tuple.__new__ skip the NamedTuple's arity check.
    assert type(record) is cls
    assert len(record) == len(cls._fields)
    assert record == cls(**record._asdict())


def test_records_built_on_hot_paths_are_well_formed(monkeypatch):
    config = SimConfig(users=3, resources=2, epochs=3, seed=5)
    schedule = build_schedule(config)
    built = []
    for method in ("demand", "claim"):
        original = getattr(AllocationMachine, method)

        def recorded(self, *args, original=original):
            built.append(original(self, *args))
            return built[-1]

        monkeypatch.setattr(AllocationMachine, method, recorded)
    trace = run_simulation(config)
    assert [rec[0] for rec in trace.records] == schedule
    assert len(trace.costs) == 2 + 9 + 6
    kinds = collections.Counter(type(r) for r in built)
    assert (kinds[DemandRecord], kinds[ClaimReceipt]) == (9, 6)
    for record in built:
        assert type(record) in (DemandRecord, ClaimReceipt)
        _assert_well_formed(record, type(record))


def _collect():
    """Full collections until every untrackable tuple is untracked.

    CPython untracks a tuple only when none of its items is tracked, and
    a collection can visit a tuple before the tuples inside it, so each
    collection may untrack one level.  A trace's records tuple nests four
    deep: records, record, pool pair, pool.
    """
    for _ in range(4):
        gc.collect()


def test_kept_records_and_cost_rows_are_untracked_plain_tuples():
    trace = run_simulation(SimConfig(users=4, resources=3, epochs=4, seed=2))
    costs = trace.costs
    _collect()
    assert len(trace.records) == 32 and len(costs) == 4 * 4 + 4 * 3 + 3
    rows = [(rec, TraceRecord) for rec in trace.records]
    rows += [(rec[0], BlockTx) for rec in trace.records]
    rows += [(row, CostRecord) for row in costs]
    for row, layout in rows:
        assert type(row) is tuple
        assert len(row) == len(layout._fields)
        assert not gc.is_tracked(row)


def test_a_kept_trace_tracks_as_many_objects_at_any_length():
    def tracked_objects_added(config):
        _collect()
        before = len(gc.get_objects())
        trace = run_simulation(config)
        _collect()
        added = len(gc.get_objects()) - before
        assert len(trace.records) == 2 * 20 * config.epochs
        return added

    short = SimConfig(users=20, resources=3, epochs=3)
    tracked_objects_added(short)  # warm-up: first-call caches
    added = tracked_objects_added(short)
    assert tracked_objects_added(dataclasses.replace(short, epochs=12)) == added


# --- simulation ----------------------------------------------------------------


def test_epoch_reserve_scales_with_users():
    config = SimConfig(users=10, resources=2, epochs=2, per_user_reserve=150, seed=0)
    assert config.epoch_reserve == ResourceVector([1500, 1500])
    trace = run_simulation(config)
    first = TraceRecord._make(trace.records[0])
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
    claims = [TraceRecord._make(r) for r in trace.records if r[0][1] == KIND_CLAIM]
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
    # epoch, vector, task_count, clamped, cost_units
    assert tuple(rec[1:6] for rec in trace.records) == GOLDEN_RECORDS
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


# The chain-n200 benchmark's run: 4,400 blocks, 10 transitions and 2,000
# claims, pinned where the small goldens above cannot reach.
BENCH_CONFIG = SimConfig(users=200, resources=5, epochs=11, seed=1)
BENCH_TRACE_SHA256 = "7e3501d8b82529e5cbefcadaf96f924d7263bbb87de5cccee471f1b5094ecb23"
BENCH_COST_CSV_SHA256 = "bc24ff0ade365afa0fe6123deffd073b35732d7ed754c8ebe4296e82028c3d4c"


def test_benchmark_size_outputs_are_pinned(tmp_path):
    trace = run_simulation(BENCH_CONFIG)
    assert sum(r[6] is not None for r in trace.records) == 10  # update_cost
    path = tmp_path / "trace.txt"
    write_trace_file(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCH_TRACE_SHA256
    write_cost_csv(trace.costs, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCH_COST_CSV_SHA256
    report = crosscheck_trace(trace)
    assert (report.epochs_checked, report.claims_checked, report.matches) == (
        10, 2000, 2000
    )
    assert (report.mismatches, report.delta_counts) == ((), {0: 2000})


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
    records = [_named(r) for r in trace.records]
    idx, victim = next(
        (i, r)
        for i, r in enumerate(records)
        if r.tx.kind == KIND_CLAIM and r.vector and any(r.vector)
    )
    tampered_vec = (victim.vector[0] + 1,) + victim.vector[1:]
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
    records = [_named(r) for r in trace.records]
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
    records = [_named(r) for r in trace.records]
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
    records = [_named(r) for r in trace.records]
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
    assert (txs[5][1], txs[5][0]) == (KIND_CLAIM, 6)
    txs[5] = BlockTx._make(txs[5])._replace(block=4)
    with pytest.raises(SimulationError, match="precedes the last block") as info:
        list(_execute(_make_machine(config), txs, CostModel()))
    assert info.value.block == 4


def test_schedule_law_demand_then_claim_next_epoch():
    config = SimConfig(users=3, resources=2, epochs=5, seed=7)
    trace = run_simulation(config)
    demands = {}  # (epoch, user) -> count
    claims = {}
    for rec in map(_named, trace.records):
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
    final = TraceRecord._make(trace.records[-1]).reserves
    shares = [r.vector for r in map(_named, trace.records) if r.tx.kind == KIND_CLAIM]
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
    balance = machine._balance[user]
    machine._balance[user] = (balance[0] + count, *balance[1:])


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


def _move_between_pools(machine, caller):
    """Move one unit of resource 0 from the demand pool into the claim
    pool: every total still balances and no pool goes negative."""
    pools = [list(pool) for pool in machine._reserves]
    pools[machine.demand_pool_parity()][0] -= 1
    pools[machine.epoch % 2][0] += 1
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
        pytest.param("claim", 11, _move_between_pools, id="pool-moved-in-claim"),
        pytest.param("demand", 22, _move_between_pools, id="pool-moved-in-demand"),
        pytest.param("claim", 9, _move_between_pools, id="pool-moved-in-transition"),
        pytest.param(
            "claim", 17, _move_between_pools, id="pool-moved-in-second-transition"
        ),
    ],
)
def test_fault_in_a_call_raises_at_that_block(monkeypatch, method, at_block, corrupt):
    _corrupt_during(monkeypatch, method, at_block, corrupt)
    with pytest.raises(SimulationError) as exc_info:
        run_simulation(FAULT_CONFIG)
    assert exc_info.value.block == at_block
    assert "conservation identity violated" in str(exc_info.value)


def test_first_block_is_checked_against_the_ledger(monkeypatch):
    # The first block's pools are predicted from a fresh machine's: the
    # registration at block 1 takes a unit from a pool, and block 1
    # raises, not the recount at the first transition.
    original = AllocationMachine.register_user

    def faulty(self, user):
        original(self, user)
        if user == 0:
            _drain_demand_pool(self, user)

    monkeypatch.setattr(AllocationMachine, "register_user", faulty)
    with pytest.raises(SimulationError, match="conservation identity violated: gap") as info:
        run_simulation(FAULT_CONFIG)
    assert info.value.block == 1


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


@pytest.mark.parametrize("at_block", [11, 9], ids=["mid-epoch", "transition"])
def test_claim_paid_from_the_demand_pool_raises_at_its_block(monkeypatch, at_block):
    # The claim at ``at_block`` credits its share but takes it from the
    # pool demands are stored against: every total still balances.
    trace = run_simulation(FAULT_CONFIG)
    original = AllocationMachine.claim

    def faulty(self, user, block):
        receipt = original(self, user, block)
        if block == at_block:
            assert any(receipt.share)
            drained, demanded = self.epoch % 2, self.demand_pool_parity()
            pools = [list(pool) for pool in self._reserves]
            pools[drained] = list(map(operator.add, pools[drained], receipt.share))
            pools[demanded] = list(map(operator.sub, pools[demanded], receipt.share))
            self._reserves = tuple(map(tuple, pools))
        return receipt

    monkeypatch.setattr(AllocationMachine, "claim", faulty)
    with pytest.raises(SimulationError, match="conservation identity violated") as info:
        run_simulation(FAULT_CONFIG)
    assert info.value.block == at_block
    result = replay(trace)
    assert (result.ok, result.diverged_at, result.reason) == (
        False, at_block, str(info.value)
    )


def _misplace_refill(monkeypatch, transition):
    """Make the ``transition``-th epoch transition put one unit of
    resource 0 of its refill in the claim pool, not the demand pool."""
    original = AllocationMachine.update_state

    def faulty(self, block):
        transitioned = original(self, block)
        if transitioned and self.transitions == transition:
            _move_between_pools(self, None)
        return transitioned

    monkeypatch.setattr(AllocationMachine, "update_state", faulty)


def test_refill_landing_in_the_claim_pool_raises_at_its_block(monkeypatch):
    # The second transition rides on the claim at block 17.
    trace = run_simulation(FAULT_CONFIG)
    _misplace_refill(monkeypatch, 2)
    with pytest.raises(SimulationError, match="conservation identity violated") as info:
        run_simulation(FAULT_CONFIG)
    assert info.value.block == 17
    result = replay(trace)
    assert (result.ok, result.diverged_at, result.reason) == (False, 17, str(info.value))


# 3 users, so epoch e spans blocks 6e-5 .. 6e.  Epochs 1 and 2 run as
# ``build_schedule`` lays them out, epoch 3 is idle, and the three
# demands of epoch 4 (blocks 22-24) are claimed at blocks 25-27 of
# epoch 5.  The demand at block 22 runs one transition, from epoch 2 to
# epoch 4.
IDLE_CONFIG = SimConfig(users=3, resources=2, epochs=5, seed=3)
IDLE_TXS = [
    *build_schedule(dataclasses.replace(IDLE_CONFIG, epochs=2)),
    *[(22 + user, KIND_DEMAND, user, (user + 1, 3 - user)) for user in range(3)],
    *[(25 + user, KIND_CLAIM, user, None) for user in range(3)],
]


def test_idle_epoch_is_predicted_and_replays():
    machine = _make_machine(IDLE_CONFIG)
    records = tuple(_execute(machine, IDLE_TXS, DEFAULT_COST_MODEL))
    transitions = [rec[0][0] for rec in records if rec[6] is not None]
    assert transitions == [7, 22, 25]
    assert [rec[1] for rec in records[-6:]] == [4, 4, 4, 5, 5, 5]
    assert machine.total_injected() == IDLE_CONFIG.epoch_reserve.scale(1 + 3)
    trace = dataclasses.replace(run_simulation(IDLE_CONFIG), records=records)
    assert replay(trace)


def test_refill_misplaced_across_an_idle_epoch_raises_at_its_block(monkeypatch):
    _misplace_refill(monkeypatch, 2)
    with pytest.raises(SimulationError, match="conservation identity violated") as info:
        list(_execute(_make_machine(IDLE_CONFIG), IDLE_TXS, DEFAULT_COST_MODEL))
    assert info.value.block == 22


def _claims(records):
    """Each (epoch, user)'s claims in block order, as (task count, share)."""
    claims = collections.defaultdict(list)
    for rec in records:
        if rec.tx.kind == KIND_CLAIM:
            claims[rec.epoch, rec.tx.user].append((rec.task_count, rec.vector))
    return claims


def test_calls_reordered_within_each_epoch_claim_the_same():
    # Every epoch after the first runs its claims and demands in a
    # shuffled order; blocks keep theirs, so a transition may ride on a
    # demand.  Each user still claims once per epoch, each claim gets the
    # task count and share of the unshuffled run, and nothing clamps.
    riders = collections.Counter()  # the kinds of the calls that transitioned
    for seed in range(5):
        config = SimConfig(users=12, resources=3, epochs=6, seed=seed)
        txs = build_schedule(config)
        span = config.epoch_span
        rng = random.Random(seed)
        shuffled = txs[:span]
        for start in range(span, len(txs), span):
            epoch_txs = txs[start:start + span]
            calls = [tx[1:] for tx in epoch_txs]
            rng.shuffle(calls)
            shuffled += [(tx[0], *call) for tx, call in zip(epoch_txs, calls)]
        records = [
            _named(rec)
            for rec in _execute(_make_machine(config), shuffled, DEFAULT_COST_MODEL)
        ]
        expected = run_simulation(config)
        assert _claims(records) == _claims(map(_named, expected.records))
        assert sum(rec.clamped for rec in records) == expected.clamp_count() == 0
        riders.update(rec.tx.kind for rec in records if rec.update_cost is not None)
    assert riders[KIND_DEMAND] > 0


def test_claim_paying_past_its_pool_raises_at_its_block(monkeypatch):
    # The claim at block 11 pays and credits one unit of resource 0 more
    # than its pool held: the pool holds -1 and every total still agrees,
    # so only the predicted pool's sign shows it.
    original = AllocationMachine.claim

    def faulty(self, user, block):
        receipt = original(self, user, block)
        if block == 11:
            drained = self.epoch % 2
            pools = [list(pool) for pool in self._reserves]
            extra = pools[drained][0] + 1
            pools[drained][0] = -1
            self._reserves = tuple(map(tuple, pools))
            _add_units(self, user, extra)
            share = (receipt.share[0] + extra, *receipt.share[1:])
            receipt = receipt._replace(share=share)
        return receipt

    monkeypatch.setattr(AllocationMachine, "claim", faulty)
    with pytest.raises(SimulationError, match="a pool is negative") as info:
        run_simulation(FAULT_CONFIG)
    assert info.value.block == 11


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


def test_injected_total_changed_in_place_raises_at_that_block(monkeypatch):
    # Block 21 swaps in a list holding the same total, which passes; it
    # is checked on every block, so the unit block 22 adds in place shows.
    original = AllocationMachine.demand

    def faulty(self, user, vector, block):
        result = original(self, user, vector, block)
        if block == 21:
            self._injected = list(self._injected)
        elif block == 22:
            self._injected[0] += 1
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
        transitions = sum(1 for c in trace.costs if c[0] == KIND_UPDATE)
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
        for value in rec[0] + rec[1:]:
            walk(value)


def test_unchanged_pools_share_the_previous_records_tuple():
    # Register and most demand blocks leave both pools as they were; such
    # a record holds the previous record's pools object, not a copy.
    trace = run_simulation(SimConfig(users=6, resources=3, epochs=4, seed=17))
    records = [_named(r) for r in trace.records]
    pairs = list(zip(records, records[1:]))
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


def test_cost_model_per_kind_table_is_not_a_field():
    # cost() reads each kind's coefficients off a table built once per
    # model; the table is no field, so fields, asdict, == and the repr
    # show the coefficients only.
    model = CostModel(
        claim=(1, 2), demand=(3, 4), update_state=(5, 6), branch_unit=7,
        demand_setup=100, claim_setup=200, update_setup=300,
    )
    names = ["claim", "demand", "update_state", "branch_unit",
             "demand_setup", "claim_setup", "update_setup"]
    assert [f.name for f in dataclasses.fields(model)] == names
    assert list(dataclasses.asdict(model)) == names
    assert CostModel.from_overrides(model.as_dict()) == model
    assert model != DEFAULT_COST_MODEL
    assert "_per_kind" not in repr(model)
    table = {  # kind: (slope, intercept, setup surcharge, first calls)
        KIND_DEMAND: (3, 4, 100, 2),
        KIND_CLAIM: (1, 2, 200, 1),
        KIND_UPDATE: (5, 6, 300, 1),
    }
    for kind, (slope, intercept, setup, first_calls) in table.items():
        for ordinal in (1, 2, 3):
            surcharge = setup if ordinal <= first_calls else 0
            expected = slope * 4 + intercept + 7 * 2 + surcharge
            assert model.cost(kind, 4, 2, ordinal) == expected
    # A copy with changed coefficients builds its own table.
    changed = dataclasses.replace(model, claim=(10, 20), claim_setup=0)
    assert changed.cost(KIND_CLAIM, 4, 0, 1) == 10 * 4 + 20
    assert model.cost(KIND_CLAIM, 4, 0, 1) == 1 * 4 + 2 + 200
    with pytest.raises(ValueError, match="no cost model for call kind 'bogus'"):
        model.cost("bogus", 4, 0, 1)
    # The resource count is checked before the kind.
    with pytest.raises(ValueError, match="resource count must be at least 1"):
        model.cost("bogus", 0, 0, 1)


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CostModel(claim=(1.5, 2)),
         "cost coefficient 'claim' must be a pair of integers: (1.5, 2)"),
        (lambda: CostModel(branch_unit="3"),
         "cost coefficient 'branch_unit' must be an integer: '3'"),
        (lambda: CostModel(claim_setup=True),
         "cost coefficient 'claim_setup' must be an integer: True"),
        (lambda: dataclasses.replace(DEFAULT_COST_MODEL, demand=(1, 2, 3)),
         "cost coefficient 'demand' must be a pair of integers: (1, 2, 3)"),
    ],
    ids=["fractional-pair", "string", "bool", "replace-triple"],
)
def test_cost_model_checks_every_coefficient_as_overrides_do(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


class _Int(int):
    pass


@pytest.mark.parametrize(
    "field, value",
    [
        (f.name, (3, 5) if type(f.default) is tuple else 3)
        for f in dataclasses.fields(CostModel)
    ],
)
def test_cost_model_takes_an_int_subclass_as_an_integer(field, value):
    plain = CostModel(**{field: value})
    subclassed = tuple(map(_Int, value)) if type(value) is tuple else _Int(value)
    model = CostModel(**{field: subclassed})
    assert model == plain
    assert json.dumps(model.as_dict()) == json.dumps(plain.as_dict())


def test_cost_model_stores_a_listed_pair_as_a_tuple():
    model = CostModel(claim=[1, 2])
    assert model == CostModel(claim=(1, 2))
    assert type(model.claim) is tuple
    assert CostModel.from_overrides({"claim": [1, 2]}) == model


def test_claim_costs_affine_exact_across_sweep():
    model = CostModel()
    for m in (2, 5, 10):
        trace = run_simulation(SimConfig(users=3, resources=m, epochs=4, seed=1), model)
        claim_costs = {
            c.cost_units for c in map(CostRecord._make, trace.costs)
            if c.call_kind == KIND_CLAIM
        }
        slope, intercept = model.claim
        assert claim_costs == {slope * m + intercept}


def test_demand_cost_spread_bounded_by_branch_term():
    model = CostModel()
    config = SimConfig(users=8, resources=6, epochs=5, seed=2)
    trace = run_simulation(config, model)
    by_epoch: dict[int, list[int]] = {}
    for c in map(CostRecord._make, trace.costs):
        if c.call_kind == KIND_DEMAND:
            by_epoch.setdefault(c.epoch, []).append(c.cost_units)
    for costs in by_epoch.values():
        assert max(costs) - min(costs) <= model.branch_unit * (config.resources - 1)


def test_warmup_surcharges_apply_to_first_calls_only():
    model = CostModel(demand_setup=1000, claim_setup=700, update_setup=300)
    config = SimConfig(users=2, resources=2, epochs=5, seed=3)
    trace = run_simulation(config, model)
    costs = [CostRecord._make(c) for c in trace.costs]
    demand_costs = [
        (c.epoch, c.cost_units) for c in costs
        if c.call_kind == KIND_DEMAND and c.user == 0
    ]
    base = 13_616 * 2 + 47_245
    for epoch, cost in demand_costs:
        surcharge = 1000 if epoch <= 2 else 0
        assert base <= cost - surcharge <= base + model.branch_unit
    claim_costs = [
        (c.epoch, c.cost_units) for c in costs
        if c.call_kind == KIND_CLAIM and c.user == 0
    ]
    claim_base = 15_130 * 2 + 36_486
    assert claim_costs[0] == (2, claim_base + 700)
    assert all(cost == claim_base for _, cost in claim_costs[1:])
    update_costs = [
        c.cost_units for c in costs if c.call_kind == KIND_UPDATE
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
    for rec in map(_named, trace.records):
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
    rows = read_cost_csv(str(path))
    assert rows == list(trace.costs)
    assert all(type(row) is tuple for row in rows + list(trace.costs))
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


def test_crosscheck_skips_claims_without_recorded_demands():
    # Claims in epoch 4 are recomputed from epoch 3's demands; with those
    # records filtered out of the trace they are skipped, not counted.
    trace = run_simulation(SimConfig(users=5, resources=3, epochs=6, seed=12))
    full = crosscheck_trace(trace)
    kept = tuple(
        r for r in trace.records if not (r[0][1] == KIND_DEMAND and r[1] == 3)
    )
    skipped = sum(r[0][1] == KIND_CLAIM and r[1] == 4 for r in trace.records)
    report = crosscheck_trace(dataclasses.replace(trace, records=kept))
    assert skipped == 5 and len(kept) == len(trace.records) - 5
    assert report.epochs_checked == full.epochs_checked - 1 == 4
    assert report.claims_checked == full.claims_checked - skipped == 20
    assert report.matches == full.matches - skipped
    assert report.match_rate == 1.0


def test_crosscheck_without_claims_matches_trivially():
    # One epoch registers and demands but claims nothing.
    trace = run_simulation(SimConfig(users=3, resources=2, epochs=1, seed=1))
    report = crosscheck_trace(trace)
    assert (report.epochs_checked, report.claims_checked) == (0, 0)
    assert report.match_rate == 1.0
    assert report.max_abs_delta == 0


# --- each check once ------------------------------------------------------------


def test_one_update_state_call_per_block(monkeypatch):
    calls = []
    original = AllocationMachine.update_state

    def counted(self, block):
        calls.append(block)
        return original(self, block)

    monkeypatch.setattr(AllocationMachine, "update_state", counted)
    trace = run_simulation(FAULT_CONFIG)
    records = list(map(_named, trace.records))
    assert len(records) == 32
    # Every registration calls update_state; demand and claim check a block
    # inside the current epoch in line, so of theirs only each later epoch's
    # first block reaches it, and that call makes the transition.
    expected, epoch = [], 1
    for rec in records:
        if rec.tx.kind == KIND_REGISTER or rec.epoch != epoch:
            expected.append(rec.tx.block)
        epoch = rec.epoch
    assert calls == expected == [1, 2, 3, 4, 9, 17, 25]


def test_one_vector_check_per_demand_and_none_per_claim(monkeypatch):
    built = []
    init = ResourceVector.__init__

    def counted(self, quantities):
        built.append(tuple(self))
        init(self, quantities)

    monkeypatch.setattr(ResourceVector, "__init__", counted)
    trace = run_simulation(SimConfig(users=20, resources=3, epochs=4, seed=1))
    kinds = collections.Counter(r[0][1] for r in trace.records)
    assert (kinds[KIND_DEMAND], kinds[KIND_CLAIM]) == (80, 60)
    # One entry check per demand, one total_injected per transition (3)
    # and the config's epoch reserve; claims return plain tuples.
    assert len(built) == 80 + 3 + 1


def _per_block_counts(n):
    """Bytecodes of one ``_execute`` block at n users: a claim and a
    demand, each mid-epoch with no transition.  Every user demands the
    same vector at every n, and the machine's per-user containers are
    swapped for ones that count walks."""
    config = SimConfig(users=n, resources=5, epochs=2)
    vector = (3, 1, 4, 1, 5)
    txs = [
        (block, kind, user, vector if kind == KIND_DEMAND else None)
        for block, kind, user, _ in build_schedule(config)
    ]
    machine = _make_machine(config)
    blocks = _execute(machine, txs, DEFAULT_COST_MODEL)
    for _ in range(n):  # the registrations
        next(blocks)
    walks = _count_walks(machine)
    counts = {}
    done = n
    # User 1's claim follows user 0's, which transitions; its demand is
    # the epoch's second.
    for label, index in (("claim", 2 * n + 1), ("demand", 3 * n + 1)):
        for _ in range(index - done):
            next(blocks)
        transitions = machine.transitions
        walks.clear()
        counts[label] = _opcodes(lambda: next(blocks))
        done = index + 1
        assert machine.transitions == transitions
        assert not walks, f"{label} block walked per-user containers at n = {n}: {dict(walks)}"
    return counts


def test_harness_blocks_run_as_many_bytecodes_at_any_user_count():
    # A mid-epoch block does O(m) work: the same bytecodes at every n and
    # no walk of the machine's per-user state.  No count is pinned, since
    # counts differ between Python versions.
    assert _per_block_counts(10) == _per_block_counts(1_000)


def test_replay_returns_a_simulation_error_as_its_result():
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = [_named(r) for r in trace.records]
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
    records = [_named(r) for r in trace.records]
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=records[k].tx._replace(vector=vector))
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert (result.ok, result.diverged_at) == (False, 3)
    assert result.reason == f"block 3: {message}"


@pytest.mark.parametrize("tx", [(), 5, None], ids=["empty", "int", "none"])
def test_replay_names_the_position_of_a_transaction_with_no_block(tx):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = [_named(r) for r in trace.records]
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=tx)
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert (result.ok, result.diverged_at) == (False, None)
    assert result.reason == f"transaction {k} of the schedule has no block: {tx!r}"
    txs = [r.tx for r in records]
    with pytest.raises(SimulationError) as raised:
        list(_execute(_make_machine(trace.config), txs, DEFAULT_COST_MODEL))
    assert raised.value.block is None


@pytest.mark.parametrize(
    "fields", [lambda tx: tx[:3], lambda tx: (*tx, None)], ids=["short", "long"]
)
def test_replay_names_the_block_of_a_transaction_of_the_wrong_arity(fields):
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = [_named(r) for r in trace.records]
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=fields(tuple(records[k].tx)))
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert (result.ok, result.diverged_at) == (False, 3)
    arity = len(records[k].tx)
    assert result.reason == f"block 3: transaction has {arity} fields, not 4"


# --- settings and error branches ---------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("users", 2.5),
        ("resources", 2.0),
        ("epochs", True),
        ("demand_low", 1.0),
        ("demand_high", 3.5),
        ("per_user_reserve", "150"),
    ],
)
def test_sim_config_rejects_a_setting_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError) as info:
        SimConfig(**{"users": 2, "resources": 2, "epochs": 3, field: value})
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"users": 0}, "users, resources and epochs must be at least 1"),
        ({"resources": 0}, "users, resources and epochs must be at least 1"),
        ({"epochs": 0}, "users, resources and epochs must be at least 1"),
        ({"demand_low": 0}, "demand_low must be at least 1"),
        ({"demand_low": 5, "demand_high": 4}, "demand_high must be >= demand_low"),
    ],
)
def test_sim_config_rejects_settings_out_of_range(settings, message):
    with pytest.raises(ValueError) as info:
        SimConfig(**{"users": 2, "resources": 2, "epochs": 3, **settings})
    assert str(info.value) == message


def test_cost_model_rejects_a_resource_count_below_1():
    with pytest.raises(ValueError, match="resource count must be at least 1"):
        DEFAULT_COST_MODEL.cost(KIND_CLAIM, 0, 0, 1)


def test_replay_names_the_block_of_an_unknown_call_kind():
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    records = [_named(r) for r in trace.records]
    k = next(i for i, r in enumerate(records) if r.tx.kind == KIND_DEMAND)
    records[k] = records[k]._replace(tx=records[k].tx._replace(kind="withdraw"))
    result = replay(dataclasses.replace(trace, records=tuple(records)))
    assert result == chainsim.ReplayResult(
        ok=False, diverged_at=3, reason="block 3: unknown call kind 'withdraw'"
    )


@pytest.mark.parametrize(
    "k, field, value, block, message",
    [
        (0, "user", [0], 1, "user id must be an integer, got [0]"),
        (2, "user", [0], 3, "user id must be an integer, got [0]"),
        (2, "kind", ["demand"], 3, "unknown call kind ['demand']"),
        (2, "block", "3", None, "block must be an integer, got '3'"),
        (2, "block", None, None, "block must be an integer, got None"),
        (4, "block", 5.0, None, "block must be an integer, got 5.0"),
        (4, "block", 5.5, None, "block must be an integer, got 5.5"),
        (0, "block", "1", None, "block must be an integer, got '1'"),
        (0, "block", [1], None, "block must be an integer, got [1]"),
        (0, "block", 1.0, None, "block must be an integer, got 1.0"),
        (0, "block", True, None, "block must be an integer, got True"),
        (1, "user", 2, 2, "user 2 is out of order: the next user id is 1"),
        (0, "user", 1, 1, "user 1 is out of order: the next user id is 0"),
    ],
    ids=[
        "unhashable-user-register", "unhashable-user-demand", "unhashable-kind",
        "string-block", "missing-block", "float-block", "fractional-block",
        "string-register-block", "list-register-block", "float-register-block",
        "bool-register-block", "register-past-the-next-id", "register-before-user-0",
    ],
)
def test_a_malformed_transaction_field_is_a_simulation_error(
    k, field, value, block, message
):
    # Transactions 0, 2 and 4 are user 0's register, demand and claim at
    # blocks 1, 3 and 5, and transaction 1 is user 1's register at block 2;
    # the claim transitions.
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    txs = [BlockTx._make(rec[0]) for rec in trace.records]
    txs[k] = txs[k]._replace(**{field: value})
    if block is None:
        message = f"transaction {k} of the schedule: {message}"
    else:
        message = f"block {block}: {message}"
    with pytest.raises(SimulationError) as raised:
        list(_execute(_make_machine(trace.config), txs, DEFAULT_COST_MODEL))
    assert (raised.value.block, str(raised.value)) == (block, message)
    records = tuple((tx, *rec[1:]) for tx, rec in zip(txs, trace.records))
    result = replay(dataclasses.replace(trace, records=records))
    assert result == chainsim.ReplayResult(False, block, message)


def test_a_register_block_that_goes_back_raises_at_the_next_block():
    # User 1's register moves from block 2 to block 999, so the demand at
    # block 3 goes back, as it would after any other call at block 999.
    message = "block 3: block 3 precedes the last block seen, 999"
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    txs = [BlockTx._make(rec[0]) for rec in trace.records]
    txs[1] = txs[1]._replace(block=999)
    with pytest.raises(SimulationError) as raised:
        list(_execute(_make_machine(trace.config), txs, DEFAULT_COST_MODEL))
    assert (raised.value.block, str(raised.value)) == (3, message)
    # Block 999 starts epoch 250, so a replay of the recorded outcomes
    # already diverges at the register.
    records = tuple((tx, *rec[1:]) for tx, rec in zip(txs, trace.records))
    result = replay(dataclasses.replace(trace, records=records))
    assert result == chainsim.ReplayResult(False, 999, "epoch diverged at block 999")


def test_a_register_at_a_repeated_block_runs_and_replays():
    # The machine allows a repeated block, so user 1 may register at user
    # 0's block 1.
    trace = run_simulation(SimConfig(users=2, resources=2, epochs=3, seed=4))
    txs = [BlockTx._make(rec[0]) for rec in trace.records]
    txs[1] = txs[1]._replace(block=1)
    fresh = list(_execute(_make_machine(trace.config), txs, DEFAULT_COST_MODEL))
    assert [rec[1:] for rec in fresh] == [rec[1:] for rec in trace.records]
    records = tuple((tx, *rec[1:]) for tx, rec in zip(txs, trace.records))
    assert replay(dataclasses.replace(trace, records=records))


def test_a_late_registration_is_charged_the_transition_it_runs():
    # Epoch 2 starts at block 5; user 1 registers there, after user 0's
    # demand of epoch 1, so the registration runs the transition.
    config = SimConfig(users=2, resources=2, epochs=3, seed=4)
    txs = [
        (1, KIND_REGISTER, 0, None),
        (3, KIND_DEMAND, 0, (2, 3)),
        (5, KIND_REGISTER, 1, None),
        (6, KIND_CLAIM, 0, None),
    ]
    records = [
        _named(rec) for rec in _execute(_make_machine(config), txs, DEFAULT_COST_MODEL)
    ]
    assert [rec.epoch for rec in records] == [1, 1, 2, 2]
    charged = DEFAULT_COST_MODEL.cost(KIND_UPDATE, 2, 0, 1)
    assert [rec.update_cost for rec in records] == [None, None, charged, None]
    assert records[3].task_count > 0


@pytest.mark.parametrize("user", [True, 1.0, 0.0], ids=["true", "one-float", "zero-float"])
@pytest.mark.parametrize("k, block", [(2, 3), (4, 5)], ids=["demand", "claim"])
def test_a_user_id_equal_to_a_registered_int_is_rejected(k, block, user):
    # Transactions 2 and 4 are user 0's demand at block 3 and its claim
    # at block 5.  True and 1.0 hash as user 1, and 0.0 as user 0.
    message = f"user id must be an integer, got {user!r}"
    config = SimConfig(users=2, resources=2, epochs=3, seed=4)
    trace = run_simulation(config)
    txs = [BlockTx._make(rec[0]) for rec in trace.records]
    machine = _make_machine(config)
    list(_execute(machine, txs[:k], DEFAULT_COST_MODEL))
    before = copy.deepcopy(vars(machine))
    call = txs[k]
    with pytest.raises(MachineError) as raised:
        if call.kind == KIND_DEMAND:
            machine.demand(user, call.vector, block)
        else:
            machine.claim(user, block)
    assert str(raised.value) == message
    assert vars(machine) == before
    for read in (machine.caller_snapshot, machine.balance_of):
        with pytest.raises(MachineError, match=f"^{message}$"):
            read(user)
    txs[k] = call._replace(user=user)
    records = tuple((tx, *rec[1:]) for tx, rec in zip(txs, trace.records))
    result = replay(dataclasses.replace(trace, records=records))
    assert result == chainsim.ReplayResult(False, block, f"block {block}: {message}")


@pytest.mark.parametrize(
    "text",
    ["", "\n", "call_kind,m,epoch,user\n", "kind,m,epoch,user,cost_units\n"],
    ids=["empty", "blank-first-line", "short-header", "renamed-column"],
)
def test_read_cost_csv_rejects_a_wrong_header(tmp_path, text):
    path = tmp_path / "costs.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_cost_csv(str(path))
    assert str(info.value) == f"unexpected cost CSV columns in {path}"


def test_read_cost_csv_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("call_kind,m,epoch,user,cost_units\n\nclaim,2,3,0,7\n\nclaim,x\n")
    with pytest.raises(ValueError, match="^line 5: expected 5 fields$"):
        read_cost_csv(str(path))
    path.write_text("call_kind,m,epoch,user,cost_units\n\nclaim,2,3,0,7\n\n")
    assert read_cost_csv(str(path)) == [CostRecord("claim", 2, 3, 0, 7)]
