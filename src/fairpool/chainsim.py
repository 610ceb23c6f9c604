"""Deterministic simulated-chain harness: one call per block.

Drives an AllocationMachine through a fixed schedule (a registration
epoch followed by alternating claim/demand epochs), draws workloads from
a seeded generator, and annotates every call with abstract cost units
from a configurable affine model.  Costs are annotations only; machine
state never depends on them.

The harness checks every block against its own ledger of claimed
shares and its own prediction of both pools, in O(m) per block and
O(n) per epoch (``_execute``).  A trace record is flat and holds no
per-user state: the call's outcome and cost, then the epoch, both pools
and the cycle count after the call.  Balances are checked but not
recorded, since the claimed shares imply them.

Transactions, records and cost rows are exact tuples laid out as the
NamedTuples ``BlockTx``, ``TraceRecord`` and ``CostRecord`` and read by
position; ``TraceRecord._make(rec)`` is a named view.  The GC untracks
an exact tuple once nothing in it is tracked, never a NamedTuple, so a
kept trace adds no per-block work to later collections.  The machine's
records, which nothing keeps, stay NamedTuples.
"""

from __future__ import annotations

import csv
import json
import random
from itertools import chain, islice
from dataclasses import asdict, dataclass, fields
from operator import add, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

# Not called here, but perfbench's tracer replaces ``pdrf_allocate`` by
# name in this module as well as in ``alloc``.
from .alloc import pdrf_allocate, pdrf_task_counts  # noqa: F401
from .machine import AllocationMachine, MachineConfig, MachineError, accounting_gap
from .reference import reference_task_counts
from .vectors import ResourceVector, _not_integer, require_integers

GENERATOR_ID = "python-random-mt19937"
TRACE_FORMAT = "fairpool-trace-v1"

KIND_REGISTER = "register"
KIND_DEMAND = "demand"
KIND_CLAIM = "claim"
KIND_UPDATE = "update_state"


class SimulationError(Exception):
    """Machine error with the offending block attached.

    ``block`` is None for a transaction whose block is missing or not an
    int; its message names the transaction's position in the schedule.
    """

    def __init__(self, block: int | None, message: str) -> None:
        super().__init__(message if block is None else f"block {block}: {message}")
        self.block = block


@dataclass(frozen=True)
class SimConfig:
    users: int
    resources: int
    epochs: int
    demand_low: int = 1
    demand_high: int = 10
    per_user_reserve: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        require_integers(
            self, "users", "resources", "epochs", "demand_low", "demand_high",
            "per_user_reserve",
        )
        if self.users < 1 or self.resources < 1 or self.epochs < 1:
            raise ValueError("users, resources and epochs must be at least 1")
        if self.demand_low < 1:
            raise ValueError("demand_low must be at least 1")
        if self.demand_high < self.demand_low:
            raise ValueError("demand_high must be >= demand_low")
        # Every demand component is at least demand_low >= 1, so an empty
        # reserve would stop the run at its first demand.
        if self.per_user_reserve < 1:
            raise ValueError("per_user_reserve must be at least 1")

    @property
    def epoch_span(self) -> int:
        """Two blocks per user: one call per block, a demand and a claim each."""
        return 2 * self.users

    @property
    def epoch_reserve(self) -> ResourceVector:
        per_resource = self.users * self.per_user_reserve
        return ResourceVector((per_resource,) * self.resources)


# Call kind -> (its setup surcharge field, how many of a user's first
# calls of that kind pay it).
_SETUP = {
    KIND_DEMAND: ("demand_setup", 2),
    KIND_CLAIM: ("claim_setup", 1),
    KIND_UPDATE: ("update_setup", 1),
}


@dataclass(frozen=True)
class CostModel:
    """Affine per-call cost in the resource count, plus a branch surcharge.

    The field names are the override keys of ``as_dict``,
    ``from_overrides`` and ``--coefficients``.  ``claim``, ``demand`` and
    ``update_state`` are each call kind's (slope, intercept) pair; the
    defaults are the fitted stabilized-call costs from the reference
    deployment benchmarks.  ``branch_unit`` prices each update of the
    running reciprocal-share minimum during a demand call.  Setup
    surcharges model first-call buffer initialization and are off by
    default.  Each field must be an integer other than a bool, as
    ``require_integers`` takes one, or for a call kind a pair of them, a
    list stored as a tuple; anything else raises ValueError.
    """

    claim: tuple[int, int] = (15_130, 36_486)
    demand: tuple[int, int] = (13_616, 47_245)
    update_state: tuple[int, int] = (11_295, 23_539)
    branch_unit: int = 500
    demand_setup: int = 0  # added to a user's first two demand calls
    claim_setup: int = 0  # added to a user's first claim call
    update_setup: int = 0  # added to the first executed transition

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            pair = type(f.default) is tuple
            values = tuple(value) if pair and isinstance(value, (list, tuple)) else (value,)
            if len(values) != 1 + pair or any(map(_not_integer, values)):
                want = "a pair of integers" if pair else "an integer"
                raise ValueError(f"cost coefficient {f.name!r} must be {want}: {value!r}")
            object.__setattr__(self, f.name, values if pair else value)
        # Call kind -> ((slope, intercept), setup surcharge, first calls
        # that pay it), read once per model.  Not a field, so ``fields``,
        # ``asdict``, ``==`` and the repr see only the coefficients.
        per_kind = {
            kind: (getattr(self, kind), getattr(self, setup), first_calls)
            for kind, (setup, first_calls) in _SETUP.items()
        }
        object.__setattr__(self, "_per_kind", per_kind)

    def cost(self, kind: str, m: int, branch_events: int, ordinal: int) -> int:
        """Cost of the ordinal-th call of this kind (per user, 1-based)."""
        if m < 1:
            raise ValueError("resource count must be at least 1")
        try:
            (slope, intercept), setup, first_calls = self._per_kind[kind]
        except KeyError:
            raise ValueError(f"no cost model for call kind {kind!r}") from None
        total = slope * m + intercept + self.branch_unit * branch_events
        if ordinal <= first_calls:
            total += setup
        return total

    def as_dict(self) -> dict:
        """Coefficients by override key: a [slope, intercept] pair per call
        kind, a plain integer for each surcharge."""
        return {
            key: list(value) if type(value) is tuple else value
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_overrides(cls, overrides: object) -> "CostModel":
        """Defaults with ``overrides`` (keyed as in ``as_dict``) applied.

        Raises ValueError unless ``overrides`` is an object of known keys.
        """
        if not isinstance(overrides, Mapping):
            raise ValueError(f"cost coefficients must be an object, got {overrides!r}")
        names = {f.name for f in fields(cls)}
        for key in overrides:
            if key not in names:
                raise ValueError(f"unknown cost coefficient {key!r}")
        return cls(**overrides)


DEFAULT_COST_MODEL = CostModel()

# The last epoch of a run that holds calls ``CostModel.cost`` may
# surcharge, for every call kind: a user's first two demands land in
# epochs 1 and 2, its first claim in epoch 2, and the first executed
# update is the transition into epoch 2.
WARMUP_EPOCHS = 2


class BlockTx(NamedTuple):
    block: int
    kind: str
    user: int
    vector: tuple[int, ...] | None = None


class CostRecord(NamedTuple):
    call_kind: str
    m: int
    epoch: int
    user: int
    cost_units: int


class TraceRecord(NamedTuple):
    tx: BlockTx
    epoch: int
    # Demand blocks carry the accepted demand vector (the transaction's own
    # tuple); claim blocks carry the share.
    vector: tuple[int, ...] | None
    task_count: int | None
    clamped: bool
    cost_units: int
    # Cost of the epoch transition this block's call executed, if any.
    update_cost: int | None
    # Both pools and the cycle count after the call.
    reserves: tuple[tuple[int, ...], tuple[int, ...]]
    cycle_count: int


@dataclass(frozen=True)
class Trace:
    header: dict
    records: tuple[tuple, ...]  # laid out as TraceRecord

    @property
    def config(self) -> SimConfig:
        return SimConfig(**self.header["config"])

    @property
    def costs(self) -> tuple[tuple, ...]:
        """One cost row per executed call, read off the records and laid
        out as ``CostRecord``.

        A transition's row comes before the row of the call it rode on;
        both carry the record's epoch and the caller.
        """
        m = self.header["config"]["resources"]
        rows: list[tuple] = []
        for (_, kind, user, _), epoch, _, _, _, cost_units, update_cost, _, _ in (
            self.records
        ):
            if update_cost is not None:
                rows.append((KIND_UPDATE, m, epoch, user, update_cost))
            if kind != KIND_REGISTER:
                rows.append((kind, m, epoch, user, cost_units))
        return tuple(rows)

    def clamp_count(self) -> int:
        return sum(1 for rec in self.records if rec[4])  # clamped


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    diverged_at: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def draw_ints(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """What ``count`` calls of ``rng.randint(low, high)`` return, leaving
    ``rng`` (a ``random.Random``) in the same state: it runs the rejection
    loop of CPython's ``randrange`` (``_randbelow_with_getrandbits``)
    inline, so it makes the same ``getrandbits`` calls.  The tests and
    the golden digests check this on every supported Python."""
    width = high - low + 1
    if width < 1:
        raise ValueError(f"empty range for draw_ints: [{low}, {high}]")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    append = out.append
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        append(low + r)
    return out


def build_schedule(config: SimConfig) -> list[tuple]:
    """One call per block: epoch 1 registers then demands, later epochs
    claim then demand.  Demand vectors are drawn fresh every epoch from
    the seeded generator, so the schedule is fully determined by the
    config.  They are plain tuples; the machine checks each one, so a
    replayed schedule is checked too.

    Each epoch's components are one ``draw_ints`` call: the values of
    ``randint(demand_low, demand_high)``, user by user and component by
    component.  The golden trace tests pin them.
    """
    rng = random.Random(config.seed)
    n, m = config.users, config.resources
    low, high = config.demand_low, config.demand_high
    txs: list[tuple] = []
    block = 1
    for epoch in range(1, config.epochs + 1):
        first = KIND_REGISTER if epoch == 1 else KIND_CLAIM
        for user in range(n):
            txs.append((block, first, user, None))
            block += 1
        # One flat draw, split into consecutive m-tuples, one per user.
        vectors = zip(*[iter(draw_ints(rng, low, high, n * m))] * m)
        for user, vector in enumerate(vectors):
            txs.append((block, KIND_DEMAND, user, vector))
            block += 1
    return txs


def _make_machine(config: SimConfig) -> AllocationMachine:
    return AllocationMachine(
        MachineConfig(
            resource_count=config.resources,
            epoch_span=config.epoch_span,
            offset=1,
            epoch_reserve=config.epoch_reserve,
        )
    )


def _execute(
    machine: AllocationMachine,
    txs: Iterable[tuple],
    cost_model: CostModel,
) -> Iterator[tuple]:
    """Run one call per block, checking conservation as it goes, and
    yield each block's record once its checks have passed.

    A record carries the call's outcome, its cost and, in
    ``update_cost``, the cost of the epoch transition the call executed,
    so nothing about a block is kept anywhere else.  A call's cost
    ordinal counts that user's calls of that kind so far; a
    transition's is the machine's transition count.  The machine must be
    fresh: both callers build it with ``_make_machine``.

    The machine checks each demand's vector, so a missing, non-iterable
    or invalid one raises ``SimulationError`` at its block, as does a
    transaction without exactly four fields, at the block its first
    field names; one with no first field, such as ``()``, ``None`` or an
    int, raises it with no block, naming its position in the schedule,
    as does any transaction whose block is not an int.  A registration
    runs ``update_state`` at its block first, so no block goes back (one
    may repeat) and a transition it runs is charged like any other.

    The harness keeps a ledger from the calls' receipts, each user's
    balance by id: a zero entry at registration plus every claimed share.
    After each call it reads the caller's balance, both pools and the
    injected total (``caller_snapshot``, ``total_injected()``) and
    checks, in O(m):

    - the caller's balance equals its ledger entry, which catches a
      wrong credit;
    - the pools and the injected total are as predicted, from a fresh
      machine's: a transition adds one epoch reserve to the injected
      total and to the pool at parity ``1 - epoch % 2``, then a claim
      takes exactly its receipt's share from the pool claims drain
      (parity ``epoch % 2``) and must not leave it negative; nothing
      else moves a unit.  So a unit that leaves, enters or moves between
      the pools raises at its block, as does a wrong injected total, on
      the first block and on transitions too.  A pair equal to the
      prediction is made of tuples, which cannot change, so it becomes
      the next prediction and a block that replaces neither is checked
      by identity.  Any other pair is compared as tuples by value, so
      lists holding the predicted units pass, checked on every block;
      else the block raises naming a negative pool, else the gap the
      ledger leaves (O(n), on this path only), else both pairs.

    Each transition and the last block also recount, O(n): every
    balance in ``snapshot()`` must equal the ledger's, and
    ``accounting_gap`` must be zero.  A non-caller's balance changed
    outside any call, even driven negative, is seen only there or at
    that user's next call; a full recount on every block would see it
    at the next block, at O(n) per block.

    A record keeps the epoch, both pools and the cycle count from that
    ``caller_snapshot``, but no balance.  The pools are the machine's
    stored pair, so the records of blocks that change neither pool share
    one tuple.  A recorded balance could never be the first thing to
    differ between two runs, such as a run and its ``replay``: each run
    checks every balance it reads against its own ledger, and the ledger
    is the sum of that run's claimed shares, which ``replay`` compares
    block by block.  So up to the first block where a share differs or a
    check raises, both runs' balances are equal, and the record needs no
    per-user state.  A record is a tuple literal in ``TraceRecord``'s
    layout, which the GC untracks once it has untracked the pools.
    """
    txs = tuple(txs)
    last = len(txs) - 1
    m = machine.config.resource_count
    zeros = (0,) * m
    reserve = tuple(machine.config.epoch_reserve)
    calls: dict[str, list[int]] = {KIND_DEMAND: [], KIND_CLAIM: []}  # per user, so far
    ledger: list[tuple[int, ...]] = []  # each user's balance, from receipts
    transitions = machine.transitions
    predicted: tuple = (reserve, zeros)  # both pools, as the block should leave them
    total: tuple = reserve  # the injected total, as the block should leave it
    for index, tx in enumerate(txs):
        try:
            block, kind, user, vector = tx
        except (TypeError, ValueError) as exc:
            raise _malformed_error(index, tx) from exc
        task_count: int | None = None
        clamped = False
        cost_units = 0
        update_cost: int | None = None
        try:
            if kind == KIND_REGISTER:
                vector = None
                machine.update_state(block)
                machine.register_user(user)
                ledger.append(zeros)
                calls[KIND_DEMAND].append(0)
                calls[KIND_CLAIM].append(0)
            elif kind == KIND_DEMAND or kind == KIND_CLAIM:
                branch_events = 0
                if kind == KIND_DEMAND:  # the record shares the schedule's tuple
                    branch_events = machine.demand(user, vector, block).min_updates
                else:
                    _, _, task_count, vector, clamped = machine.claim(user, block)
                    ledger[user] = tuple(map(add, ledger[user], vector))
                ordinals = calls[kind]
                ordinal = ordinals[user] = ordinals[user] + 1
                cost_units = cost_model.cost(kind, m, branch_events, ordinal)
            else:
                raise MachineError(f"unknown call kind {kind!r}")
            after = machine.transitions
            if after != transitions:  # the call transitioned
                transitions = after
                update_cost = cost_model.cost(KIND_UPDATE, m, 0, after)
        except MachineError as exc:
            raise _error_at(index, block, str(exc)) from exc
        epoch, reserves, cycle_count, balance = machine.caller_snapshot(user)
        injected = machine.total_injected()
        if update_cost is not None:  # one epoch reserve refills the demand pool
            r = 1 - epoch % 2
            refill = tuple(map(add, predicted[r], reserve))
            predicted = (predicted[0], refill) if r else (refill, predicted[1])
            total = tuple(map(add, total, reserve))
        if kind == KIND_CLAIM:  # its share leaves the pool claims drain
            s = epoch % 2
            drained = tuple(map(sub, predicted[s], vector))
            predicted = (predicted[0], drained) if s else (drained, predicted[1])
        if reserves is not predicted or injected is not total:
            if (
                reserves != predicted
                or injected != total
                or kind == KIND_CLAIM and min(drained) < 0
            ):
                _check_prediction(block, reserves, injected, predicted, total, ledger)
            else:  # equal to plain tuples, so tuples themselves
                predicted, total = reserves, injected
        expected = ledger[user]
        if balance != expected:
            raise _balance_error(block, user, balance, expected)
        if update_cost is not None or index == last:
            balances = machine.snapshot()["balances"]
            if list(balances.values()) != ledger:
                for uid, balance in balances.items():
                    expected = ledger[uid] if uid < len(ledger) else zeros
                    if balance != expected:
                        raise _balance_error(block, uid, balance, expected)
            _check_gap(block, accounting_gap(machine))
        yield (
            tx, epoch, vector, task_count, clamped, cost_units, update_cost,
            reserves, cycle_count,
        )


def _error_at(index: int, block: object, message: str) -> SimulationError:
    """The error at the ``index``-th transaction's block, or, for a block
    that is not an int, at its position in the schedule."""
    if _not_integer(block):
        return SimulationError(None, f"transaction {index} of the schedule: {message}")
    return SimulationError(block, message)


def _malformed_error(index: int, tx: object) -> SimulationError:
    """The error for a transaction that does not unpack into four fields:
    at the block its first field names, or, for one with no first field
    or none at all, at its position in the schedule."""
    try:
        return _error_at(index, tx[0], f"transaction has {len(tx)} fields, not 4")
    except (TypeError, LookupError):
        return SimulationError(
            None, f"transaction {index} of the schedule has no block: {tx!r}"
        )


def _check_prediction(
    block: int, reserves: tuple, injected: tuple, predicted: tuple, total: tuple,
    ledger: list,
) -> None:
    """Pass pools and an injected total that hold the predicted units,
    whatever sequences hold them.  Otherwise raise ``SimulationError`` at
    ``block`` naming a negative pool, else the gap the ledger leaves,
    else, for units moved between the pools, both pairs."""
    pools = tuple(map(tuple, reserves))
    if min(pools[0] + pools[1]) < 0:
        raise SimulationError(
            block, f"conservation identity violated: a pool is negative: {reserves}"
        )
    injected = tuple(injected)
    if pools != predicted or injected != total:
        held = map(sum, zip(*pools, *ledger))  # O(n)
        _check_gap(block, tuple(map(sub, injected, held)))
        raise SimulationError(
            block,
            f"conservation identity violated: pools {pools} and injected total "
            f"{injected}, predicted {predicted} and {tuple(total)}",
        )


def _check_gap(block: int, gap: tuple[int, ...]) -> None:
    if any(gap):
        raise SimulationError(block, f"conservation identity violated: gap {gap}")


def _balance_error(
    block: int, user: int, balance: tuple[int, ...], expected: tuple[int, ...]
) -> SimulationError:
    """The error for a machine balance that differs from the ledger's."""
    gap = tuple(map(sub, expected, balance))
    return SimulationError(
        block,
        f"conservation identity violated: gap {gap} in user {user}'s balance",
    )


def run_simulation(
    config: SimConfig, cost_model: CostModel = DEFAULT_COST_MODEL
) -> Trace:
    """Drive a full schedule and return the recorded trace."""
    records = _execute(_make_machine(config), build_schedule(config), cost_model)
    # Held in 1,024-record tuples, which the GC untracks, so no tracked
    # container holds every record.
    chunks = list(iter(lambda: tuple(islice(records, 1024)), ()))
    records = tuple(chain.from_iterable(chunks))
    header = {
        "format": TRACE_FORMAT,
        "generator": GENERATOR_ID,
        "config": asdict(config),
        "cost_model": cost_model.as_dict(),
    }
    return Trace(header=header, records=records)


# (position, name) of each record field ``replay`` compares, in order.
_COMPARED_FIELDS = tuple(
    (index, name) for index, name in enumerate(TraceRecord._fields)
    if name not in ("tx", "cost_units", "update_cost")
)


def replay(trace: Trace, cost_model: CostModel = DEFAULT_COST_MODEL) -> ReplayResult:
    """Re-execute the trace's transactions and compare every outcome.

    Blocks are re-run and compared one at a time, so the result names
    the first block that diverges or raises (``diverged_at`` is None for
    a transaction with no block, and the reason names its position).
    Cost units are annotations, not state, so they are not compared and
    a different cost model, the default included, never causes
    divergence.  Whole records are compared first; only two that differ
    are compared field by field, which also names the field.
    """
    fresh_records = _execute(
        _make_machine(trace.config), (rec[0] for rec in trace.records), cost_model
    )
    try:
        for fresh, recorded in zip(fresh_records, trace.records):
            if fresh == recorded:
                continue
            for index, name in _COMPARED_FIELDS:
                if fresh[index] != recorded[index]:
                    block = recorded[0][0]
                    return ReplayResult(False, block, f"{name} diverged at block {block}")
    except SimulationError as exc:
        return ReplayResult(False, exc.block, str(exc))
    return ReplayResult(True)


@dataclass(frozen=True)
class CrosscheckReport:
    epochs_checked: int
    claims_checked: int
    matches: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (epoch, user, machine, ref)
    delta_counts: dict[int, int]  # fixed-point minus exact-rational task counts

    @property
    def match_rate(self) -> float:
        if self.claims_checked == 0:
            return 1.0
        return self.matches / self.claims_checked

    @property
    def max_abs_delta(self) -> int:
        return max((abs(d) for d in self.delta_counts), default=0)


def crosscheck_trace(trace: Trace) -> CrosscheckReport:
    """Recompute every claim from the recorded demands and compare.

    For each epoch, the demand set and the demand-pool reserves recorded
    in the trace are fed to the batch fixed-point reference (must match
    the machine's task counts exactly) and to the exact-rational
    precomputed allocator (reported as deltas).  Both read the recorded
    tuples as they are: every demand passed the machine's entry check,
    and a pool is what the machine held, so no vector is rebuilt.
    """
    demands_by_epoch: dict[int, dict[int, tuple[int, ...]]] = {}
    pool_by_epoch: dict[int, tuple[int, ...]] = {}
    claims_by_epoch: dict[int, dict[int, int]] = {}
    for (_, kind, user, _), epoch, vector, task_count, _, _, _, reserves, _ in (
        trace.records
    ):
        if kind == KIND_DEMAND:
            assert vector is not None
            demands_by_epoch.setdefault(epoch, {})[user] = vector
            # The epoch's first demand block records the pool it was read from.
            pool_by_epoch.setdefault(epoch, reserves[(epoch + 1) % 2])
        elif kind == KIND_CLAIM:
            assert task_count is not None
            claims_by_epoch.setdefault(epoch, {})[user] = task_count

    epochs_checked = 0
    claims_checked = 0
    matches = 0
    mismatches: list[tuple[int, int, int, int]] = []
    delta_counts: dict[int, int] = {}
    for epoch, claims in sorted(claims_by_epoch.items()):
        demands = demands_by_epoch.get(epoch - 1)
        if not demands:
            continue
        pool = pool_by_epoch[epoch - 1]
        expected = reference_task_counts(demands, pool)
        rational = pdrf_task_counts(list(demands.values()), pool)
        rational_by_user = dict(zip(demands, rational))
        epochs_checked += 1
        for user, machine_tasks in sorted(claims.items()):
            claims_checked += 1
            if machine_tasks == expected[user]:
                matches += 1
            elif len(mismatches) < 10:
                mismatches.append((epoch, user, machine_tasks, expected[user]))
            delta = expected[user] - rational_by_user[user]
            delta_counts[delta] = delta_counts.get(delta, 0) + 1
    return CrosscheckReport(
        epochs_checked=epochs_checked,
        claims_checked=claims_checked,
        matches=matches,
        mismatches=tuple(mismatches),
        delta_counts=delta_counts,
    )


def write_trace_file(trace: Trace, path: str) -> None:
    """Line-per-block text export with a JSON header line."""
    vec_format = ",".join(["%d"] * trace.header["config"]["resources"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(trace.header, sort_keys=True) + "\n")
        fh.writelines(
            "%d %d %s %d %s %d %d\n" % (
                block, epoch, kind, user, vec_format % vector if vector else "-",
                cost_units, clamped,
            )
            for (block, kind, user, _), epoch, vector, _, clamped, cost_units, _, _, _
            in trace.records
        )


COST_CSV_COLUMNS = CostRecord._fields


def write_cost_csv(records: Iterable[tuple], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COST_CSV_COLUMNS)
        writer.writerows(records)


def read_cost_csv(path: str) -> list[tuple]:
    """Rows written by ``write_cost_csv``, as plain tuples like
    ``Trace.costs``; ValueError names the first bad line."""
    out: list[tuple] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(COST_CSV_COLUMNS):
            raise ValueError(f"unexpected cost CSV columns in {path}")
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != len(COST_CSV_COLUMNS):
                raise ValueError(
                    f"line {reader.line_num}: expected "
                    f"{len(COST_CSV_COLUMNS)} fields"
                )
            kind, *numbers = row
            try:
                out.append((kind, *map(int, numbers)))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out
