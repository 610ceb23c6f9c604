import collections
import copy
import dataclasses
import gc
import math
import random
import sys
import tracemalloc
import warnings

import pytest

from fairpool import (
    AllocationMachine,
    DemandSet,
    MachineConfig,
    MachineError,
    MachineOverflowError,
    ResourceVector,
    accounting_gap,
    fixed_floor_div,
    fixed_point_reference,
    pdrf_allocate,
)
from fairpool.chainsim import (
    DEFAULT_COST_MODEL,
    KIND_REGISTER,
    SimConfig,
    _execute,
    _make_machine,
    build_schedule,
    replay,
    run_simulation,
)
from fairpool.machine import DEFAULT_PRECISION, INT_LIMIT

P = 1_000_000


def make_machine(m=2, es=4, offset=0, er=(9, 18)):
    return AllocationMachine(
        MachineConfig(
            resource_count=m,
            epoch_span=es,
            offset=offset,
            epoch_reserve=ResourceVector(er),
        )
    )


# --- fixed_floor_div -------------------------------------------------------


def test_fixed_floor_div_basics():
    assert fixed_floor_div(7, 2) == 3
    assert fixed_floor_div(P * 9, 1) == 9_000_000
    assert fixed_floor_div(3_000_000 * 9_000_000, 13_500_000) == 2_000_000


def test_fixed_floor_div_guards():
    with pytest.raises(MachineError):
        fixed_floor_div(1, 0)
    with pytest.raises(MachineError):
        fixed_floor_div(-1, 2)
    with pytest.raises(MachineOverflowError):
        fixed_floor_div(INT_LIMIT + 1, 2)


# --- init -------------------------------------------------------------------


def test_init_pools_and_epoch():
    machine = make_machine(er=(1500, 1500))
    assert machine.epoch == 1
    assert machine.reserve_pool(0) == ResourceVector([1500, 1500])
    assert machine.reserve_pool(1) == ResourceVector([0, 0])
    assert machine.cycle_count == 0


@pytest.mark.parametrize("parity", [-1, 2, 1.0, 0.0, True])
def test_reserve_pool_rejects_a_parity_other_than_0_or_1(parity):
    machine = make_machine(er=(1500, 1500))
    with pytest.raises(ValueError, match=f"got {parity}"):
        machine.reserve_pool(parity)


def test_init_zero_reserve_is_inert_but_valid():
    machine = AllocationMachine(
        MachineConfig(1, 2, 0, ResourceVector([0]))
    )
    assert machine.reserve_pool(0) == ResourceVector([0])


def test_init_validation():
    with pytest.raises(ValueError):
        MachineConfig(0, 2, 0, ResourceVector([1]))
    with pytest.raises(ValueError):
        MachineConfig(1, 0, 0, ResourceVector([1]))
    with pytest.raises(ValueError):
        MachineConfig(2, 2, 0, ResourceVector([1]))


@pytest.mark.parametrize("reserve", [(9, 18), [9, 18]], ids=["tuple", "list"])
def test_config_builds_a_plain_epoch_reserve_as_a_vector(reserve):
    config = MachineConfig(2, 4, 0, reserve)
    assert type(config.epoch_reserve) is ResourceVector
    assert config.epoch_reserve == (9, 18)
    machine = AllocationMachine(config)
    assert machine.update_state(4)  # the transition scales the reserve
    assert machine.total_injected() == (18, 36)
    assert machine.reserve_pool(1) == (9, 18)


@pytest.mark.parametrize(
    "reserve, message",
    [
        ((5, -7), "resource quantity must be non-negative, got -7"),
        ([5, 7.0], "resource quantity must be an integer, got 7.0"),
        ((True, 7), "resource quantity must be an integer, got True"),
        (5, "'int' object is not iterable"),
        ((), "resource vector must have at least one component"),
    ],
    ids=["negative", "float", "bool", "not-iterable", "empty"],
)
def test_config_rejects_an_invalid_epoch_reserve_naming_the_field(reserve, message):
    with pytest.raises(ValueError) as info:
        MachineConfig(2, 4, 0, reserve)
    assert str(info.value) == f"epoch_reserve: {message}"


def test_config_keeps_a_vector_epoch_reserve_as_it_is():
    reserve = ResourceVector([9, 18])
    assert MachineConfig(2, 4, 0, reserve).epoch_reserve is reserve


def test_epoch_at_deployment_block():
    machine = make_machine(es=20, offset=100)
    machine.update_state(100)
    assert machine.epoch == 1


# --- update_state ----------------------------------------------------------


def test_update_state_transition_and_cycle_count():
    machine = make_machine()
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1, 4]), 0)
    machine.demand(1, ResourceVector([3, 1]), 1)
    assert machine.update_state(4) is True
    # k' = min(3e6*9*1e6/13.5e6, 3e6*18*1e6/21e6)
    assert machine.cycle_count == 2_000_000
    assert machine.epoch == 2
    # replenishment went to the new demand pool (parity 1)
    assert machine.reserve_pool(1) == ResourceVector([9, 18])
    assert machine.reserve_pool(0) == ResourceVector([9, 18])


def test_update_state_idempotent_within_epoch():
    machine = make_machine()
    machine.register_user(0)
    machine.demand(0, ResourceVector([1, 1]), 0)
    assert machine.update_state(5) is True
    before = machine.snapshot()
    assert machine.update_state(5) is False
    assert machine.update_state(7) is False
    assert machine.snapshot() == before


def test_update_state_without_demands_gives_zero_cycles():
    machine = make_machine()
    machine.update_state(4)
    assert machine.epoch == 2
    assert machine.cycle_count == 0


def test_transition_after_an_epoch_without_demands_reads_no_old_sums():
    # Epoch 4 uses the pool of epoch 1's demands, but nobody demanded in
    # epoch 3, so it has nothing to pay out and must not read those sums.
    machine = AllocationMachine(MachineConfig(1, 4, 0, ResourceVector([100])))
    machine.register_user(0)
    machine.demand(0, ResourceVector([3]), 0)
    assert machine.claim(0, 4).task_count == 33
    assert machine.update_state(8) and machine.cycle_count == 0
    assert machine.update_state(12) and machine.epoch == 4
    assert machine.cycle_count == 0
    with pytest.raises(MachineError, match="no demand registered in epoch 3"):
        machine.claim(0, 12)


def test_update_state_rejects_blocks_before_offset():
    machine = make_machine(offset=10)
    with pytest.raises(MachineError):
        machine.update_state(9)


@pytest.mark.parametrize(
    "call",
    [
        lambda machine: machine.update_state(2),
        lambda machine: machine.demand(0, ResourceVector([1, 1]), 2),
        lambda machine: machine.claim(1, 2),
    ],
    ids=["update_state", "demand", "claim"],
)
def test_block_below_last_seen_rejected(call):
    machine = make_machine()
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(1, ResourceVector([3, 1]), 1)
    machine.update_state(5)  # epoch 2: user 1 may claim, user 0 demand
    before = machine.snapshot()
    with pytest.raises(MachineError, match="precedes the last block seen"):
        call(machine)
    assert machine.snapshot() == before
    # the same block again is still a no-op
    assert machine.update_state(5) is False


def test_epoch_monotone_over_nondecreasing_blocks():
    machine = make_machine(es=3)
    seen = [machine.epoch]
    rng = random.Random(11)
    block = 0
    for _ in range(50):
        block += rng.randint(0, 4)
        machine.update_state(block)
        seen.append(machine.epoch)
    assert seen == sorted(seen)


def test_replenishment_once_per_transition_even_after_idle_epochs():
    machine = make_machine(es=2, er=(10, 10))
    # jump straight to epoch 5: one transition, one replenishment
    machine.update_state(8)
    assert machine.epoch == 5
    assert machine.total_injected() == ResourceVector([20, 20])
    # epoch 5 spans blocks 8 and 9; block 10 starts epoch 6
    assert machine.update_state(9) is False
    assert machine.update_state(10)
    assert (machine.epoch, machine.transitions) == (6, 2)


# --- update_state's early return ---------------------------------------------
#
# make_machine(es=4, offset=10): epoch e spans blocks 4e+6 .. 4e+9.


def test_update_state_same_block_twice_is_a_no_op():
    machine = make_machine(offset=10)
    for block, transition in [(10, False), (14, True)]:
        assert machine.update_state(block) is transition
        before = copy.deepcopy(vars(machine))
        assert machine.update_state(block) is False
        assert vars(machine) == before


def test_update_state_transitions_on_the_first_block_of_an_epoch_only():
    machine = make_machine(offset=10)
    for block, epoch, transition in [
        (13, 1, False),  # the last block of epoch 1
        (14, 2, True),
        (17, 2, False),
        (18, 3, True),
    ]:
        assert machine.update_state(block) is transition
        assert (machine.epoch, machine.transitions) == (epoch, epoch - 1)


@pytest.mark.parametrize("last, block", [(12, 11), (12, 9), (16, 15), (16, 13)])
def test_update_state_block_below_last_seen_changes_nothing(last, block):
    machine = make_machine(offset=10)
    machine.update_state(last)
    before = copy.deepcopy(vars(machine))
    with pytest.raises(MachineError, match="precede"):
        machine.update_state(block)
    assert vars(machine) == before


def test_update_state_retries_an_overflowing_transition():
    # As in test_transition_overflow_leaves_state_unchanged: the
    # transition into epoch 2 needs a numerator of 2**128.
    machine = AllocationMachine(
        MachineConfig(1, 4, 0, ResourceVector([2**24]), precision=2**40)
    )
    machine.register_user(0)
    machine.demand(0, ResourceVector([1]), 0)
    before = copy.deepcopy(vars(machine))
    for block in (4, 5, 7):  # every later block of epoch 2 retries it
        with pytest.raises(MachineOverflowError):
            machine.update_state(block)
        assert vars(machine) == before
    assert machine.update_state(8)  # epoch 3 reads the other parity's sums
    assert machine.epoch == 3


class _Block(int):
    """An int subclass: ``update_state`` takes it, the in-line check does not."""


def _outcome(call):
    try:
        return "returned", call()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


# make_machine(offset=10): epoch 2 spans blocks 14 .. 17; the last block
# seen is 15.
@pytest.mark.parametrize(
    "block",
    [15, 17, 18, 22, 14, 9, True, _Block(16), 5.0, "5", None],
    ids=["same", "epoch-last", "next-epoch", "two-ahead", "back", "before-offset",
         "true", "int-subclass", "float", "str", "none"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda machine, block: machine.demand(1, ResourceVector([1, 2]), block),
        lambda machine, block: machine.claim(0, block),
    ],
    ids=["demand", "claim"],
)
def test_demand_and_claim_treat_a_block_as_update_state_does(call, block):
    # ``demand`` and ``claim`` repeat update_state's early return in line;
    # each must act as update_state(block) followed by the same call.
    machine = make_machine(offset=10)
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([3, 1]), 10)
    machine.update_state(15)
    reference = copy.deepcopy(machine)
    expected = _outcome(lambda: (reference.update_state(block), call(reference, block))[1])
    assert _outcome(lambda: call(machine, block)) == expected
    assert vars(machine) == vars(reference)


# --- demand -----------------------------------------------------------------


def test_demand_reciprocal_share_values():
    machine = make_machine()
    machine.register_user(0)
    machine.register_user(1)
    rec0 = machine.demand(0, ResourceVector([1, 4]), 0)
    assert rec0.recip_share == 4_500_000
    # min over components: 9e6 then 4.5e6, one running-minimum update
    assert rec0.min_updates == 1
    rec1 = machine.demand(1, ResourceVector([3, 1]), 1)
    assert rec1.recip_share == 3_000_000
    assert rec1.min_updates == 0


def test_demand_uniform_vector_recip():
    machine = make_machine(m=3, es=6, er=(70, 70, 70))
    machine.register_user(0)
    rec = machine.demand(0, ResourceVector([1, 1, 1]), 0)
    assert rec.recip_share == P * 70
    assert rec.min_updates == 0


def test_demand_guards():
    machine = make_machine()
    machine.register_user(0)
    with pytest.raises(MachineError):
        machine.demand(9, ResourceVector([1, 1]), 0)  # unregistered
    with pytest.raises(MachineError):
        machine.demand(0, ResourceVector([0, 0]), 0)  # all-zero
    machine.demand(0, ResourceVector([1, 1]), 0)
    with pytest.raises(MachineError):
        machine.demand(0, ResourceVector([2, 2]), 1)  # double demand


def test_demand_zero_component_skipped_in_minimum():
    machine = make_machine(er=(9, 18))
    machine.register_user(0)
    rec = machine.demand(0, ResourceVector([0, 2]), 0)
    assert rec.recip_share == (P * 18) // 2


def test_demand_against_zero_reserve_rejected():
    machine = make_machine(er=(9, 0))
    machine.register_user(0)
    with pytest.raises(MachineError):
        machine.demand(0, ResourceVector([1, 1]), 0)
    # but a demand that skips the empty resource is fine
    rec = machine.demand(0, ResourceVector([1, 0]), 0)
    assert rec.recip_share == P * 9


def test_demand_exceeding_scaled_reserve_rejected():
    machine = make_machine(er=(1, 1))
    machine.register_user(0)
    with pytest.raises(MachineError):
        machine.demand(0, ResourceVector([P + 1, 1]), 0)


def test_register_guards():
    machine = make_machine(es=4)
    machine.register_user(0)
    with pytest.raises(MachineError):
        machine.register_user(0)
    machine.register_user(1)
    machine.register_user(2)


def test_registration_is_the_same_under_every_warnings_filter():
    # The machine caps no users per epoch: how many calls an epoch holds is
    # the harness's schedule, so more users than one call per block fits
    # register and run as any others, with warnings raised as errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        machine = make_machine(es=4)
        for user in range(5):
            machine.register_user(user)
        assert machine.balance_of(4) == (0, 0)
        config = SimConfig(users=2, resources=2, epochs=3, seed=0)
        txs = build_schedule(config)
        txs.append((txs[-1][0] + 1, KIND_REGISTER, 2, None))
        records = tuple(_execute(_make_machine(config), txs, DEFAULT_COST_MODEL))
        assert [rec[0] for rec in records] == txs
        trace = dataclasses.replace(run_simulation(config), records=records)
        assert replay(trace)


@pytest.mark.parametrize(
    "user, message",
    [
        (0, "user 0 is already registered"),
        (1, "user 1 is already registered"),
        (3, "user 3 is out of order: the next user id is 2"),
        (-1, "user -1 is out of order: the next user id is 2"),
        (2**64, f"user {2**64} is out of order: the next user id is 2"),
    ],
    ids=["first", "last", "past-the-next", "minus-one", "2**64"],
)
def test_register_takes_only_the_next_id(user, message):
    # A user's id is its registration position.
    machine = make_machine(es=6)
    machine.register_user(0)
    machine.register_user(1)
    before = vars(copy.deepcopy(machine))
    with pytest.raises(MachineError) as raised:
        machine.register_user(user)
    assert (type(raised.value), str(raised.value)) == (MachineError, message)
    assert vars(machine) == before
    machine.register_user(2)
    assert machine.balance_of(2) == (0, 0)


# --- claim -------------------------------------------------------------------


def run_worked_epoch():
    machine = make_machine()
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1, 4]), 0)
    machine.demand(1, ResourceVector([3, 1]), 1)
    return machine


def test_claim_worked_example():
    machine = run_worked_epoch()
    r0 = machine.claim(0, 4)
    assert (r0.task_count, r0.share, r0.clamped) == (3, ResourceVector([3, 12]), False)
    r1 = machine.claim(1, 5)
    assert (r1.task_count, r1.share) == (2, ResourceVector([6, 2]))
    assert machine.reserve_pool(0) == ResourceVector([0, 4])
    assert machine.balance_of(0) == ResourceVector([3, 12])
    assert machine.balance_of(1) == ResourceVector([6, 2])


@pytest.mark.parametrize("pool", [None, (2, 5)], ids=["unclamped", "clamped"])
def test_claim_returns_the_tuple_it_checked_and_builds_no_vector(monkeypatch, pool):
    machine = run_worked_epoch()
    machine.update_state(4)  # the transition's total_injected is a vector
    if pool is not None:
        machine._reserves = (pool, machine._reserves[1])
    built = []
    init = ResourceVector.__init__

    def counted(self, quantities):
        built.append(tuple(self))
        init(self, quantities)

    monkeypatch.setattr(ResourceVector, "__init__", counted)
    for user, block in ((0, 4), (1, 5)):
        before = machine.balance_of(user)
        receipt = machine.claim(user, block)
        assert type(receipt.share) is tuple
        gained = tuple(a - b for a, b in zip(machine.balance_of(user), before))
        assert receipt.share == gained
    assert built == []


def test_claim_max_share_user_gets_cycle_floor():
    machine = run_worked_epoch()
    receipt = machine.claim(1, 4)  # user 1 holds the largest dominant share
    assert receipt.task_count == machine.cycle_count // P


def test_claim_zero_cycles_zero_share():
    machine = make_machine(er=(5, 5))
    machine.register_user(0)
    machine.demand(0, ResourceVector([1, 1]), 0)
    machine.update_state(4)
    # second transition without fresh demands: stale parity, k' for the
    # claiming pool of epoch 3 was never fed demands
    machine.update_state(8)
    assert machine.epoch == 3
    with pytest.raises(MachineError):
        machine.claim(0, 8)  # demand is 2 epochs old, guard fires


def test_claim_zero_cycle_count_pays_zero_share():
    # Two users whose demands dwarf the tiny pool floor their reciprocal
    # shares to 1; the scaled demand sum then swamps the cycle-count
    # numerator and claims pay out nothing, without clamping.
    machine = make_machine(m=1, es=4, er=(1,))
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([P]), 0)
    machine.demand(1, ResourceVector([P]), 1)
    machine.update_state(4)
    assert machine.cycle_count == 0
    receipt = machine.claim(0, 4)
    assert receipt.task_count == 0
    assert receipt.share == ResourceVector([0])
    assert not receipt.clamped


def test_claim_guards():
    machine = run_worked_epoch()
    with pytest.raises(MachineError):
        machine.claim(7, 4)  # unregistered
    machine.register_user(2)
    with pytest.raises(MachineError):
        machine.claim(2, 4)  # never demanded
    machine.claim(0, 4)
    with pytest.raises(MachineError):
        machine.claim(0, 5)  # double claim
    # claiming in the demand epoch itself is rejected
    fresh = run_worked_epoch()
    with pytest.raises(MachineError):
        fresh.claim(0, 1)


def _claim_and_next_demand(demand_first):
    machine = make_machine(er=(100, 67))
    machine.register_user(0)
    machine.demand(0, ResourceVector([1, 2]), 0)
    if demand_first:
        machine.demand(0, ResourceVector([2, 1]), 4)
    receipt = machine.claim(0, 5 if demand_first else 4)
    if not demand_first:
        machine.demand(0, ResourceVector([2, 1]), 5)
    return receipt, machine.snapshot(), machine._sds, machine._max_recip


def test_claim_and_next_demand_in_either_order():
    # The next round's demand is kept at the other parity, so making it
    # first does not forfeit the claim on last round's demand.
    claim_first = _claim_and_next_demand(demand_first=False)
    assert claim_first[0].task_count == 33
    assert _claim_and_next_demand(demand_first=True) == claim_first


def test_parity_separation():
    machine = make_machine(es=2)
    for epoch in range(1, 8):
        block = (epoch - 1) * 2
        machine.update_state(block)
        assert machine.epoch == epoch
        assert machine.demand_pool_parity() == (epoch + 1) % 2


def test_recip_share_floor_contract():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(1, 5)
        er = tuple(rng.randint(1, 500) for _ in range(m))
        machine = make_machine(m=m, es=2, er=er)
        machine.register_user(0)
        vec = ResourceVector(
            [rng.randint(0, 9) for _ in range(m - 1)] + [rng.randint(1, 9)]
        )
        rec = machine.demand(0, vec, 0)
        ds = rec.recip_share
        # floored minimum of p*r/d over demanded components
        candidates = [
            (P * er[r]) // vec[r] for r in range(m) if vec[r] > 0
        ]
        assert ds == min(candidates)
        tight = [
            r for r in range(m) if vec[r] > 0 and (P * er[r]) // vec[r] == ds
        ]
        r = tight[0]
        assert ds * vec[r] <= P * er[r] < (ds + 1) * vec[r]
        # never exceeds the precision-scaled reserve of a demanded resource
        assert ds <= P * min(er[r] for r in range(m) if vec[r] > 0)
        assert ds >= 1


# --- conservation over random call sequences --------------------------------


def test_accounting_identity_random_sequences():
    rng = random.Random(13)
    clamp_events = 0
    for trial in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        er = tuple(rng.randint(n, 40 * n) for _ in range(m))
        machine = make_machine(m=m, es=2 * n, er=er)
        for u in range(n):
            machine.register_user(u)
        demanded: set[int] = set()
        for epoch in range(1, rng.randint(3, 8)):
            base = (epoch - 1) * 2 * n
            machine.update_state(base)
            claimers = sorted(demanded)
            rng.shuffle(claimers)
            demanded = set()
            block = base
            for u in claimers:
                receipt = machine.claim(u, block)
                clamp_events += receipt.clamped
                assert accounting_gap(machine) == (0,) * m
                block += 1
            for u in range(n):
                if rng.random() < 0.7:
                    vec = ResourceVector(
                        [rng.randint(0, 5) for _ in range(m - 1)]
                        + [rng.randint(1, 5)]
                    )
                    machine.demand(u, vec, block)
                    demanded.add(u)
                    assert accounting_gap(machine) == (0,) * m
                    block += 1
    assert clamp_events == 0


@pytest.mark.parametrize("seed", range(8))
def test_stored_total_injected_tracks_transition_count(seed):
    # total_injected() is stored at each transition; after every call,
    # valid or rejected, it must equal the reserve times (1 + transitions)
    # and the pools plus balances must account for all of it.
    rng = random.Random(seed)
    n, m, es = 4, 3, 8
    er = tuple(rng.randint(20, 60) for _ in range(m))
    machine = make_machine(m=m, es=es, er=er)

    def check():
        expected = ResourceVector(er).scale(1 + machine.transitions)
        assert machine.total_injected() == expected
        assert accounting_gap(machine) == (0,) * m

    check()
    for u in range(n):
        machine.register_user(u)
        check()
    block = 0
    for u in range(n):
        machine.demand(u, ResourceVector([rng.randint(1, 5) for _ in range(m)]), block)
        block += 1
        check()
    # idle epochs 2-4: jump from epoch 1 straight to epoch 5
    block = 4 * es
    assert machine.update_state(block)
    assert (machine.epoch, machine.transitions) == (5, 1)
    check()
    for _ in range(300):
        block += rng.choice((0, 1, 1, 2, 3, es, 3 * es))
        u = rng.randrange(n)
        kind = rng.choice(("demand", "claim", "update_state"))
        try:
            if kind == "demand":
                vec = [rng.randint(0, 4) for _ in range(m - 1)] + [rng.randint(1, 4)]
                machine.demand(u, ResourceVector(vec), block)
            elif kind == "claim":
                machine.claim(u, block)
            else:
                machine.update_state(block)
        except MachineError:
            pass  # duplicate, late or unbacked calls are rejected
        check()
    assert machine.transitions > 10


def test_snapshot_fields():
    machine = run_worked_epoch()
    snap = machine.snapshot()
    assert set(snap) == {"epoch", "reserves", "cycle_count", "balances"}
    assert snap["epoch"] == 1
    assert snap["reserves"] == ((9, 18), (0, 0))
    assert snap["balances"] == {0: (0, 0), 1: (0, 0)}


# --- overflow leaves the state unchanged -----------------------------------


def _state(machine, user):
    """Every field a call can write: the snapshot, the sums and minima, and
    each of the user's fields (both parities' demand, reciprocal and
    stamp, and the balance)."""
    per_parity = [
        (machine._demand[s][user], machine._recip[s][user],
         machine._demand_epoch[s][user])
        for s in (0, 1)
    ]
    return (
        machine.snapshot(),
        copy.deepcopy(machine._sds),
        list(machine._max_recip),
        per_parity,
        machine._balance[user],
    )


def test_demand_overflow_leaves_state_unchanged():
    machine = AllocationMachine(
        MachineConfig(
            resource_count=2,
            epoch_span=4,
            offset=0,
            epoch_reserve=ResourceVector([2**64, 2**64]),
            precision=2**63,
        )
    )
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1, 2]), 0)  # sums reach 2**126, 2**127
    machine.update_state(1)
    before = _state(machine, 1)
    with pytest.raises(MachineOverflowError):
        machine.demand(1, ResourceVector([1, 2]), 1)  # component 1 needs 2**128
    assert _state(machine, 1) == before
    assert not any(accounting_gap(machine))


def test_claim_overflow_leaves_state_unchanged():
    machine = run_worked_epoch()
    machine._balance[0] = (0, INT_LIMIT)  # the share [3, 12] overflows it
    machine.update_state(4)
    before = _state(machine, 0)
    with pytest.raises(MachineOverflowError):
        machine.claim(0, 4)
    assert _state(machine, 0) == before
    machine._balance[0] = (0, 0)
    assert machine.claim(0, 4).share == ResourceVector([3, 12])


# --- a claim clears the reciprocal it paid on -------------------------------


def test_a_registered_machine_keeps_seven_per_user_lists():
    # Three users, two resources and two parities, so only a per-user
    # list holds three entries.
    machine = make_machine(es=6)
    for user in range(3):
        machine.register_user(user)
    lists = [
        name
        for name, value in vars(machine).items() if type(value) is list
        for column in (value, *value) if type(column) is list and len(column) == 3
    ]
    assert len(lists) == 7, lists


def test_a_claim_clears_the_reciprocal_it_paid_on():
    machine = run_worked_epoch()
    recips = list(machine._recip[0])  # epoch 1's demands, read by epoch 2's claims
    assert all(recips)
    machine.claim(0, 4)
    assert machine._recip[0] == [0, recips[1]]


def test_a_second_claim_in_the_epoch_raises_and_changes_nothing():
    machine = run_worked_epoch()
    machine.claim(0, 4)
    before = _state(machine, 0)
    assert before[3][0] == ((1, 4), 0, 1)  # parity 0: demand, cleared reciprocal, stamp
    with pytest.raises(MachineError) as raised:
        machine.claim(0, 5)
    assert str(raised.value) == "user 0 already claimed in epoch 2"
    assert _state(machine, 0) == before


def test_a_paid_demand_two_epochs_old_is_still_reported_as_no_demand():
    # The stamp check comes first, so the cleared reciprocal of epoch 1's
    # demand does not turn epoch 4's claim into a second claim.
    machine = run_worked_epoch()
    machine.claim(0, 4)
    assert machine._recip[0][0] == 0
    with pytest.raises(MachineError) as raised:
        machine.claim(0, 12)  # epoch 4 reads parity 0 again
    assert str(raised.value) == "user 0 has no demand registered in epoch 3"


def test_an_overflowing_claim_keeps_its_reciprocal_and_the_retry_pays():
    machine = run_worked_epoch()
    recip = machine._recip[0][0]
    machine._balance[0] = (0, INT_LIMIT)  # the share [3, 12] overflows it
    with pytest.raises(MachineOverflowError):
        machine.claim(0, 4)
    assert machine._recip[0][0] == recip
    machine._balance[0] = (0, 0)
    assert machine.claim(0, 5).share == (3, 12)
    assert machine._recip[0][0] == 0


def test_transition_overflow_leaves_state_unchanged():
    machine = AllocationMachine(
        MachineConfig(
            resource_count=1,
            epoch_span=4,
            offset=0,
            epoch_reserve=ResourceVector([2**24]),
            precision=2**40,
        )
    )
    machine.register_user(0)
    machine.demand(0, ResourceVector([1]), 0)  # reciprocal 2**64

    def state():
        return (
            machine.epoch,
            machine.transitions,
            machine.cycle_count,
            machine.total_injected(),
            machine.snapshot(),
        )

    before = state()
    for _ in range(2):  # the retry at the same block raises again
        with pytest.raises(MachineOverflowError):
            machine.claim(0, 4)  # the cycle-count numerator needs 2**128
        assert state() == before


# --- headroom: both sides of each bound in MachineConfig's docstring ---------


@pytest.mark.parametrize("precision", [2**64 - 1, 2**64])
def test_cycle_count_numerator_bound(precision):
    # Reserve 1 and demand [1] store the reciprocal p, so the numerator
    # at the transition is p**2.
    machine = AllocationMachine(
        MachineConfig(1, 2, 0, ResourceVector([1]), precision=precision)
    )
    machine.register_user(0)
    machine.demand(0, ResourceVector([1]), 0)
    if precision**2 > INT_LIMIT:
        with pytest.raises(MachineOverflowError):
            machine.update_state(2)
        assert machine.epoch == 1
    else:
        assert machine.update_state(2)
        assert machine.cycle_count == precision
        assert machine.claim(0, 2).task_count == 1


@pytest.mark.parametrize("reserve", [2**64 - 1, 2**64])
def test_scaled_demand_sum_bound(reserve):
    # Two users demanding [1] each store the reciprocal p * P, so the sum
    # is 2 * p * P: 2**128 - 2**64 fits, 2**128 does not.
    machine = AllocationMachine(
        MachineConfig(1, 4, 0, ResourceVector([reserve]), precision=2**63)
    )
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1]), 0)
    if 2 * 2**63 * reserve > INT_LIMIT:
        with pytest.raises(MachineOverflowError):
            machine.demand(1, ResourceVector([1]), 1)
    else:
        assert machine.demand(1, ResourceVector([1]), 1).recip_share == 2**63 * reserve


@pytest.mark.parametrize("extra", [0, 1])
def test_default_precision_pool_bound(extra):
    # At the default precision a 1-unit demand stores the reciprocal p * P,
    # so the cycle-count numerator is p**2 * P**2: the largest pool whose
    # transition fits is isqrt(INT_LIMIT) // p, about 2**44 units.
    pool = math.isqrt(INT_LIMIT) // DEFAULT_PRECISION + extra
    assert pool.bit_length() == 45
    machine = AllocationMachine(MachineConfig(1, 2, 0, ResourceVector([pool])))
    machine.register_user(0)
    machine.demand(0, ResourceVector([1]), 0)

    def state():
        return _state(machine, 0), machine.transitions, machine.total_injected()

    if extra:
        before = state()
        with pytest.raises(MachineOverflowError):
            machine.update_state(2)
        assert state() == before
    else:
        assert machine.update_state(2)
        assert machine.claim(0, 2).share == ResourceVector([pool])


# --- memory per user ------------------------------------------------------------


def test_retained_bytes_per_user():
    # One list per field, indexed by the user's id, with shared immutable
    # balances, retains about 61 B per user after registration and 149 B
    # after one demand and one claim (CPython 3.11, m = 5).  Each bound
    # sits below the 149 and 238 B of the same lists behind a user -> index
    # dict, so that layout fails it, as does one object per user holding
    # its own small lists (445 and 477 B).
    n, m = 20_000, 5
    rng = random.Random(8)
    vectors = [ResourceVector([rng.randint(1, 10) for _ in range(m)]) for _ in range(n)]
    config = MachineConfig(m, 2 * n, 1, ResourceVector((150 * n,) * m))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        machine = AllocationMachine(config)
        for u in range(n):
            machine.register_user(u)
        registered = (tracemalloc.get_traced_memory()[0] - base) / n
        for u in range(n):
            machine.demand(u, vectors[u], 1 + n + u)  # epoch 1
        for u in range(n):
            machine.claim(u, 1 + 2 * n + u)  # epoch 2
        cycled = (tracemalloc.get_traced_memory()[0] - base) / n
    finally:
        tracemalloc.stop()
    assert not any(accounting_gap(machine))
    assert registered < 100, f"{registered:.0f} B per registered user"
    assert cycled < 200, f"{cycled:.0f} B per user after a demand and a claim"


# --- seeded call-sequence fuzzer ----------------------------------------------


def _copy_state(machine):
    """A copy of the machine that shares only immutable values.

    Lists are copied, and so are the lists they hold (the per-parity
    sums and user fields).  Any other value is shared, so it must be
    hashable: an int, a tuple such as the pair of pools, the frozen
    config or a vector.
    """

    def fresh(value):
        if type(value) is list:
            return [list(v) if type(v) is list else v for v in value]
        hash(value)
        return value

    twin = copy.copy(machine)
    for name, value in vars(machine).items():
        setattr(twin, name, fresh(value))
    return twin


def _fuzz_sequence(rng, precision, reserve_high, seen, m=None):
    """Drive one fresh machine through random calls, checking after each.

    Registers a prefix of the users in order, then draws registrations
    (of the next id, a duplicate, or one out of order: -1 or past the
    next), demands and claims (some by a user never registered, late,
    duplicate or unbacked), bare ``update_state`` calls, stale blocks and
    jumps across idle epochs.  After every call:

    * a registration passed iff its id was the next one, and a rejected
      one names a duplicate or the next id;
    * a rejected call left the state as it was, or as ``update_state``
      alone at that block would have left it;
    * ``accounting_gap`` is zero, and names the units once a pool, at
      the end, loses some;
    * a claim's task count equals ``fixed_point_reference`` over the
      demands of the epoch before, against the pool they were made on;
    * ``caller_snapshot`` equals ``snapshot()`` on the epoch, the pools,
      the cycle count and the caller's balance (and raises for a caller
      never registered).

    ``m`` resource types, or a draw of 1 to 3 when None.
    """
    n = rng.randint(1, 4)
    m = m or rng.randint(1, 3)
    er = [rng.randint(0, reserve_high) for _ in range(m)]
    er[rng.randrange(m)] = rng.randint(1, reserve_high)
    es = rng.randint(2 * n, 2 * n + 3)
    offset = rng.randint(0, 3)
    machine = AllocationMachine(
        MachineConfig(m, es, offset, ResourceVector(er), precision)
    )
    demands: dict[int, dict[int, tuple[int, ...]]] = {}  # epoch -> user -> vector
    pools: dict[int, tuple[int, ...]] = {}  # epoch -> demand pool
    expected: dict[int, dict[int, int]] = {}  # claim epoch -> user -> tasks
    block = offset
    registered = rng.randint(0, n)
    for u in range(registered):
        machine.register_user(u)
    for _ in range(rng.randint(10, 20)):
        kind = rng.choice(("register", "update") + ("demand", "claim") * 3)
        block = max(block + rng.choice((0, 1, 1, 1, es, es, 3 * es, -1)), offset)
        user = rng.randrange(n)
        if kind == "register":
            # The next id (a duplicate once all n are in), one of the n,
            # -1, or one past the next; user n is never registered.
            late = rng.randint(registered + 1, n + 1)
            user = rng.choice((min(registered, n - 1), user, -1, late))
        elif kind == "claim" and rng.random() < 0.8:
            epoch = max(machine.epoch, (block - offset) // es + 1)
            user = rng.choice(list(demands.get(epoch - 1, [user])))
        elif rng.random() < 0.05:
            user = rng.choice((-1, n))  # never registered
        before = _copy_state(machine)
        try:
            if kind == "register":
                machine.register_user(user)
                assert user == registered
                registered += 1
            elif kind == "demand":
                vec = [rng.randrange(6) for _ in range(m)]  # randint(0, 5)'s draws
                vec[rng.randrange(m)] = rng.randint(1, 5)
                rec = machine.demand(user, ResourceVector(vec), block)
                pool = machine.reserve_pool(machine.demand_pool_parity()).quantities
                assert pools.setdefault(rec.epoch, pool) == pool
                demands.setdefault(rec.epoch, {})[user] = tuple(vec)
            elif kind == "claim":
                receipt = machine.claim(user, block)
                e = receipt.epoch
                if e not in expected:
                    users = list(demands[e - 1])
                    outcome = fixed_point_reference(
                        [demands[e - 1][u] for u in users], pools[e - 1], precision
                    )
                    expected[e] = dict(zip(users, outcome.task_counts))
                assert receipt.task_count == expected[e][user]
            elif machine.update_state(block):
                kind = "transition"
        except MachineError as exc:
            seen[kind, type(exc).__name__] += 1
            if kind == "register":
                assert user != registered
                if 0 <= user < registered:
                    assert str(exc) == f"user {user} is already registered"
                else:
                    seen[kind, "out of order"] += 1
                    assert str(exc) == (
                        f"user {user} is out of order: the next user id is {registered}"
                    )
            if vars(machine) != vars(before):
                try:
                    before.update_state(block)
                except MachineError:
                    pass
                assert vars(machine) == vars(before)
        else:
            seen[kind, "ok"] += 1
        assert not any(accounting_gap(machine))
        full = machine.snapshot()
        balances = full.pop("balances")
        if user in balances:
            assert machine.caller_snapshot(user) == (
                full["epoch"], full["reserves"], full["cycle_count"], balances[user]
            )
        else:
            with pytest.raises(MachineError, match="is not registered"):
                machine.caller_snapshot(user)
    # Units a pool loses, even past zero, show as the gap in their resource.
    r = rng.randrange(m)
    lost = rng.choice((1, rng.randint(2, 10**9)))
    pools = [list(pool) for pool in machine._reserves]
    pools[rng.randrange(2)][r] -= lost
    machine._reserves = tuple(map(tuple, pools))
    assert accounting_gap(machine) == tuple(lost if i == r else 0 for i in range(m))


@pytest.mark.parametrize(
    "precision, reserve_highs, m, sequences",
    [
        (DEFAULT_PRECISION, (40,), None, 1000),
        # precision * reserve near 2**64 strains the cycle-count numerator,
        # near 2**126 the scaled demand sums
        (2**62 - 1, (6, 2**64), None, 1000),
        # Hundreds of resource types.  With reserves up to 10**4, few of the
        # 64 resources draw a zero reserve, so most demands can be met.
        (DEFAULT_PRECISION, (10**4,), 64, 600),
    ],
    ids=["default-precision", "near-128-bit-bound", "64-resource-types"],
)
def test_call_sequence_fuzzer(precision, reserve_highs, m, sequences):
    rng = random.Random(precision)
    seen = collections.Counter()
    for _ in range(sequences):
        _fuzz_sequence(rng, precision, rng.choice(reserve_highs), seen, m)
    # Every kind of call both passed and was rejected, many times over.
    for kind in ("register", "demand", "claim"):
        assert seen[kind, "ok"] >= 100 and seen[kind, "MachineError"] >= 100
    # Registrations rejected both as duplicates and as out of order.
    out_of_order = seen["register", "out of order"]
    assert 100 <= out_of_order <= seen["register", "MachineError"] - 100
    assert seen["transition", "ok"] >= 500
    if precision > DEFAULT_PRECISION:
        assert seen["demand", "MachineOverflowError"] >= 100
        assert seen["claim", "MachineOverflowError"] >= 100


# --- edges of single checks ---------------------------------------------------


def test_claim_clamps_share_to_what_the_pool_holds():
    machine = run_worked_epoch()
    machine.update_state(4)  # user 0's share is 3 tasks of [1, 4]: [3, 12]
    machine._reserves = ((2, 5), machine._reserves[1])
    receipt = machine.claim(0, 4)
    assert receipt.task_count == 3
    assert receipt.share == ResourceVector([2, 5])
    assert receipt.clamped
    assert machine.reserve_pool(0) == ResourceVector([0, 0])
    assert machine.balance_of(0) == ResourceVector([2, 5])


@pytest.mark.parametrize("reserve", [2**64 - 1, 2**64])
def test_demand_reserve_operand_bound(reserve):
    # Demand [1] divides p * P by 1: 2**128 - 2**64 fits, 2**128 does not.
    p = 2**64
    machine = AllocationMachine(
        MachineConfig(1, 2, 0, ResourceVector([reserve]), precision=p)
    )
    machine.register_user(0)
    if p * reserve > INT_LIMIT:
        with pytest.raises(MachineOverflowError, match=f"value {p * reserve} "):
            machine.demand(0, ResourceVector([1]), 0)
    else:
        assert machine.demand(0, ResourceVector([1]), 0).recip_share == p * reserve


@pytest.mark.parametrize(
    "pool, vector",
    [
        ((9, -1), (1, 1)),  # a pool driven negative by a fault
        ((9, 18), (1, -1)),  # negative, typed past the entry check
        ((9, 18), (2**128, 1)),
        ((9, 18), (2**128, -1)),
        ((9, 18), (-1, 2**128)),
        ((2**128, 18), (1, 1)),
    ],
)
def test_demand_raises_what_fixed_floor_div_raises_first(pool, vector):
    # The inline division check defers to fixed_floor_div, resource by
    # resource, for every operand it rejects.  The vector is typed as a
    # ResourceVector without its check, as a fault would store it, so
    # the entry check passes it through.
    machine = make_machine()
    machine.register_user(0)
    machine._reserves = (pool, machine._reserves[1])
    with pytest.raises(MachineError) as expected:
        for r, d in enumerate(vector):
            fixed_floor_div(P * pool[r], d)
    with pytest.raises(type(expected.value)) as got:
        machine.demand(0, tuple.__new__(ResourceVector, vector), 0)
    assert str(got.value) == str(expected.value)
    assert machine._demand_epoch[0] == [0]


@pytest.mark.parametrize(
    "recip, k_prime, max_recip",
    [
        (-1, None, None),  # a negative numerator
        (None, 2**128, None),
        (None, None, 0),  # a zero scale
        (-1, None, 0),  # both rejected: the scale's check comes first
        (None, None, -1),
        (None, None, 2**128),
        (None, 2**128, 2**128),
    ],
)
def test_claim_raises_what_fixed_floor_div_raises_first(recip, k_prime, max_recip):
    # The claim's inline division defers to fixed_floor_div for any
    # operand its check rejects, and the rejected claim changes nothing.
    machine = run_worked_epoch()
    machine.update_state(4)
    if recip is not None:
        machine._recip[0][0] = recip
    if k_prime is not None:
        machine._k_prime = k_prime
    if max_recip is not None:
        machine._max_recip[0] = max_recip
    with pytest.raises(MachineError) as expected:
        fixed_floor_div(
            machine._recip[0][0] * machine._k_prime, machine._max_recip[0] * P
        )
    before = _state(machine, 0)
    with pytest.raises(type(expected.value)) as got:
        machine.claim(0, 4)
    assert str(got.value) == str(expected.value)
    assert _state(machine, 0) == before


_USER_CALLS = {
    "demand": lambda machine, user: machine.demand(user, ResourceVector([1, 1]), 0),
    "claim": lambda machine, user: machine.claim(user, 4),
    "caller_snapshot": lambda machine, user: machine.caller_snapshot(user),
    "balance_of": lambda machine, user: machine.balance_of(user),
}


_NOT_REGISTERED = "user {!s} is not registered"
_NOT_INTEGER = "user id must be an integer, got {!r}"


# Users 0 and 1 are registered.  -1 must not read the last user, 2 is the
# next position, 2**64 hashes as 8; "0" and [0] are not integers, so they
# fail the id rule register_user applies before any range check.
@pytest.mark.parametrize(
    "call, user, message",
    [
        pytest.param(
            call, user, message, id=call if label is None else f"{call}-{label}"
        )
        for user, label, message in [
            (7, None, _NOT_REGISTERED), (-1, "minus-one", _NOT_REGISTERED),
            (2, "next", _NOT_REGISTERED), (2**64, "2**64", _NOT_REGISTERED),
            ("0", "string", _NOT_INTEGER), ([0], "list", _NOT_INTEGER),
        ]
        for call in _USER_CALLS
    ],
)
def test_unregistered_user_error(call, user, message):
    machine = run_worked_epoch()
    before = vars(copy.deepcopy(machine))
    with pytest.raises(MachineError) as raised:
        _USER_CALLS[call](machine, user)
    assert type(raised.value) is MachineError
    assert str(raised.value) == message.format(user)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__
    assert vars(machine) == before


@pytest.mark.parametrize(
    "vector",
    [(1.5, 2), (True, 1), [1, 2.0], ("1", 2), 5, None],
    ids=["fractional", "bool", "list", "string", "non-iterable", "missing"],
)
@pytest.mark.parametrize("user", [0, 7], ids=["registered", "unregistered"])
def test_demand_checks_its_vector_before_anything_else(vector, user):
    # Block 4 starts epoch 2, so an accepted demand would transition.
    machine = run_worked_epoch()
    if vector is None:
        message = "demand carries no vector"
    else:
        with pytest.raises((TypeError, ValueError)) as raised:
            ResourceVector(vector)
        message = str(raised.value)
    before = vars(copy.deepcopy(machine))
    with pytest.raises(MachineError) as got:
        machine.demand(user, vector, 4)
    assert type(got.value) is MachineError
    assert str(got.value) == message
    assert vars(machine) == before
    assert machine.transitions == 0


def test_a_list_demand_changed_after_the_call_leaves_the_claims_alone():
    # README's worked example, demanding with lists its caller then changes.
    machine = make_machine()
    machine.register_user(0)
    machine.register_user(1)
    first, second = [1, 4], [3, 1]
    machine.demand(0, first, 2)
    machine.demand(1, second, 3)
    first[1], second[1] = 6, 0
    r0, r1 = machine.claim(0, 4), machine.claim(1, 5)
    assert (r0.share, r0.clamped) == ((3, 12), False)
    assert (r1.share, r1.clamped) == ((6, 2), False)


def test_demand_keeps_a_plain_vector_as_an_exact_tuple():
    machine = make_machine(es=6)
    for user in range(3):
        machine.register_user(user)
    plain, listed, vector = tuple([1, 4]), [3, 1], ResourceVector([2, 2])
    records = [
        machine.demand(user, demand, user)
        for user, demand in enumerate((plain, listed, vector))
    ]
    stored = machine._demand[0]  # epoch 1's demands, by user index
    assert stored[0] is plain and stored[2] is vector
    assert type(stored[1]) is tuple and stored[1] == (3, 1)
    assert all(r.vector is kept for r, kept in zip(records, stored))
    # The collector untracks an exact tuple of ints, never a subclass.
    gc.collect()
    assert not gc.is_tracked(stored[0]) and not gc.is_tracked(stored[1])


@pytest.mark.parametrize("precision", [2**59 - 1, 2**59, 2**62])
def test_claim_reciprocal_operand_bound(precision):
    # User 1 demands [1] from a pool of 2**10 and stores the reciprocal
    # p * 2**10, while user 0's demand of [2**20] sets the minimum.  The
    # claim's numerator recip * k' stays within the transition's
    # max_recip * 2**10 * p, so a claim whose transition succeeded pays.
    # 2**59 - 1 is no multiple of 2**10, so its floors leave 511 tasks.
    tasks = 511 if precision % 2**10 else 512
    machine = AllocationMachine(
        MachineConfig(1, 4, 0, ResourceVector([2**10]), precision=precision)
    )
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([2**20]), 0)
    machine.demand(1, ResourceVector([1]), 1)
    assert machine.update_state(4)
    receipt = machine.claim(1, 4)
    assert receipt.task_count == tasks and not receipt.clamped
    assert machine.balance_of(1) == (tasks,)
    assert machine.reserve_pool(0) == ResourceVector([2**10 - tasks])
    assert not any(accounting_gap(machine))


@pytest.mark.parametrize(
    "demands, reserves, low, exact",
    [
        ([(0, 1), (3, 2)], (2, 6), (5, 0), (4, 0)),  # one above exact
        ([(0, 1), (3, 1)], (1, 7), (4, 0), (6, 0)),  # two below exact
    ],
    ids=["above", "two-below"],
)
def test_low_precision_counts_run_above_and_below_exact_pdrf(
    demands, reserves, low, exact
):
    # At p = 10 the floored reciprocals p * R_r // d_r are coarse enough to
    # move a count either way from exact pdrf; at p = 100 and 10**6 both
    # instances are exact.  The machine and fixed_point_reference agree.
    assert pdrf_allocate(
        DemandSet.from_vectors(demands), ResourceVector(reserves)
    ).task_counts == exact
    for precision, expected in ((10, low), (100, exact), (P, exact)):
        machine = AllocationMachine(
            MachineConfig(2, 4, 0, ResourceVector(reserves), precision)
        )
        for user, demand in enumerate(demands):
            machine.register_user(user)
            machine.demand(user, ResourceVector(demand), 0)
        counts = tuple(machine.claim(user, 4).task_count for user in (0, 1))
        outcome = fixed_point_reference(demands, reserves, precision)
        assert counts == outcome.task_counts == expected, precision


def test_transition_overflow_is_not_terminal():
    # User 0's demand stores the reciprocal 2**64, so the transition into
    # epoch 2, which reads its sums, needs a numerator of 2**128.
    machine = AllocationMachine(
        MachineConfig(1, 4, 0, ResourceVector([2**24]), precision=2**40)
    )
    machine.register_user(0)
    machine.register_user(1)
    machine.demand(0, ResourceVector([1]), 0)
    for call, args in [
        (machine.claim, (0, 4)),
        (machine.demand, (1, ResourceVector([1]), 6)),
        (machine.update_state, (7,)),
    ]:
        with pytest.raises(MachineOverflowError):
            call(*args)
        assert machine.epoch == 1
        assert not any(accounting_gap(machine))
    # Nobody demanded in epoch 3, so epoch 4 reads no sums.
    assert machine.update_state(13)
    assert (machine.epoch, machine.cycle_count) == (4, 0)
    with pytest.raises(MachineError, match="no demand registered in epoch 3"):
        machine.claim(0, 13)  # user 0's demand of epoch 1 is never claimed
    machine.demand(1, ResourceVector([2**10]), 14)
    receipt = machine.claim(1, 17)
    assert (receipt.epoch, receipt.task_count) == (5, 2**14)
    assert receipt.share == ResourceVector([2**24])
    assert not any(accounting_gap(machine))


# --- config settings are integers ------------------------------------------


class _Int(int):
    pass


@pytest.mark.parametrize(
    "field, value",
    [
        ("resource_count", 2.0),
        ("resource_count", True),
        ("epoch_span", 4.0),
        ("epoch_span", "4"),
        ("offset", 0.0),
        ("offset", False),
        ("precision", 1.5),
        ("precision", True),
    ],
)
def test_config_rejects_a_setting_that_is_not_an_integer(field, value):
    settings = dict(resource_count=2, epoch_span=4, offset=0, epoch_reserve=[9, 18])
    settings[field] = value
    with pytest.raises(ValueError) as info:
        MachineConfig(**settings)
    assert str(info.value) == f"{field} must be an integer, got {value!r}"


def test_config_accepts_int_subclasses_other_than_bool():
    config = MachineConfig(_Int(2), _Int(4), _Int(0), [9, 18], precision=_Int(10))
    machine = AllocationMachine(config)
    machine.register_user(0)
    machine.demand(0, ResourceVector([1, 2]), 0)
    assert machine.claim(0, 4).task_count == 9


def test_an_int_subclass_id_names_its_position():
    machine = make_machine()
    machine.register_user(_Int(0))
    machine.register_user(1)
    record = machine.demand(_Int(1), (3, 1), 1)
    assert type(record.user) is _Int
    assert machine.claim(_Int(1), 4).share == machine.balance_of(_Int(1)) == (9, 3)
    assert machine.caller_snapshot(1) == machine.caller_snapshot(_Int(1))


def test_config_rejects_a_zero_precision():
    with pytest.raises(ValueError, match="precision must be positive"):
        MachineConfig(1, 4, 0, ResourceVector([8]), precision=0)


def test_claim_share_overflow_leaves_state_unchanged():
    machine = AllocationMachine(MachineConfig(1, 4, 0, ResourceVector([8]), precision=1))
    machine.register_user(0)
    machine.demand(0, ResourceVector([4]), 1)
    assert machine.update_state(4)  # into epoch 2, whose claims read parity 0
    # Scaled count 2**64 * 2**63 // 1 = 2**127 fits; its share 4 * 2**127
    # does not.
    machine._max_recip[0] = 1
    machine._recip[0][0] = 2**64
    machine._k_prime = 2**63
    before = machine.snapshot()
    with pytest.raises(MachineOverflowError):
        machine.claim(0, 5)
    assert machine.snapshot() == before


# --- O(m) per call, counted -----------------------------------------------------


def _opcodes(call):
    """Bytecodes run by ``call()`` and every Python frame it enters."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def _walk_counted(base, walks):
    """A subclass of ``base`` that counts iterations and ``in`` tests,
    which a C loop such as ``sum`` or ``map`` runs with no bytecode."""

    def __iter__(self):
        walks[base.__name__, "__iter__"] += 1
        return base.__iter__(self)

    def __contains__(self, item):
        walks[base.__name__, "__contains__"] += 1
        return base.__contains__(self, item)

    return type(f"Counted{base.__name__}", (base,), {
        "__iter__": __iter__, "__contains__": __contains__,
    })


def _count_walks(machine):
    """Swap every per-user container of ``machine`` for one that counts
    walks, and return the counter."""
    walks = collections.Counter()
    counted_list = _walk_counted(list, walks)
    for name in ("_demand", "_recip", "_demand_epoch"):
        setattr(machine, name, [counted_list(c) for c in getattr(machine, name)])
    machine._balance = counted_list(machine._balance)
    return walks


def _per_call_counts(n):
    """Bytecodes per call at n users, for the same vectors and pools, with
    every per-user container swapped for one that counts walks."""
    machine = AllocationMachine(
        MachineConfig(5, 2 * n, 0, ResourceVector([900, 1800, 2700, 3600, 4500]))
    )
    for user in range(n):
        machine.register_user(user)
    walks = _count_walks(machine)
    vector = ResourceVector([3, 1, 4, 1, 5])
    counts = {
        "demand, plain tuple": _opcodes(lambda: machine.demand(0, (2, 7, 1, 8, 2), 1)),
        "demand, vector": _opcodes(lambda: machine.demand(1, vector, 2)),
        "update_state, no transition": _opcodes(lambda: machine.update_state(3)),
        "claim, transition": _opcodes(lambda: machine.claim(0, 2 * n)),
        "claim": _opcodes(lambda: machine.claim(1, 2 * n + 1)),
    }
    assert machine.transitions == 1
    assert not walks, f"per-user containers walked at n = {n}: {dict(walks)}"
    return counts


def test_calls_run_as_many_bytecodes_at_any_user_count():
    # The machine is O(m) per call with no loop over users: each call runs
    # the same bytecodes at every n and never walks a per-user container.
    # Counts differ between Python versions, so none is pinned.
    assert _per_call_counts(10) == _per_call_counts(1_000) == _per_call_counts(100_000)
