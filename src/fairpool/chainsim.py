"""Deterministic simulated-chain harness: one call per block.

Drives an AllocationMachine through a fixed schedule (a registration
epoch followed by alternating claim/demand epochs), draws workloads from
a seeded generator, and annotates every call with abstract cost units
from a configurable affine model.  Costs are annotations only; machine
state never depends on them.

The harness checks conservation against its own ledger of claimed
shares.  Every block it checks, in O(m), what the call can change: the
caller's balance must equal its ledger entry, the two pools must hold no
negative quantity, and the pools plus the ledger's total must equal
everything injected.  It reads these with one ``caller_snapshot`` call,
as plain tuples.  The pool and total checks run only where one of their
inputs is a new object: the machine's stored pool pair, its injected
total, or the ledger's total.  Claims and transitions replace them; a
demand block replaces none, so it would re-check the same immutable
tuples, and a fault that moves units must replace one.  On each epoch
transition and on the last block it also recounts every balance, O(n),
so a run costs O(m) per block averaged over an epoch.  A trace record is
flat and holds no per-user state: the call's outcome and cost, then the
epoch, both pools and the cycle count after the call.  Balances are
checked but not recorded, since the claimed shares imply them.  Records
are NamedTuples: immutable, and copied with ``._replace``.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import asdict, dataclass, fields
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

# Not called here, but perfbench's tracer replaces ``pdrf_allocate`` by
# name in this module as well as in ``alloc``.
from .alloc import pdrf_allocate, pdrf_task_counts  # noqa: F401
from .machine import AllocationMachine, MachineConfig, MachineError, accounting_gap
from .reference import reference_task_counts
from .vectors import ResourceVector

GENERATOR_ID = "python-random-mt19937"
TRACE_FORMAT = "fairpool-trace-v1"

KIND_REGISTER = "register"
KIND_DEMAND = "demand"
KIND_CLAIM = "claim"
KIND_UPDATE = "update_state"


class SimulationError(Exception):
    """Machine error with the offending block attached."""

    def __init__(self, block: int, message: str) -> None:
        super().__init__(f"block {block}: {message}")
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
    default.
    """

    claim: tuple[int, int] = (15_130, 36_486)
    demand: tuple[int, int] = (13_616, 47_245)
    update_state: tuple[int, int] = (11_295, 23_539)
    branch_unit: int = 500
    demand_setup: int = 0  # added to a user's first two demand calls
    claim_setup: int = 0  # added to a user's first claim call
    update_setup: int = 0  # added to the first executed transition

    def cost(self, kind: str, m: int, branch_events: int, ordinal: int) -> int:
        """Cost of the ordinal-th call of this kind (per user, 1-based)."""
        if m < 1:
            raise ValueError("resource count must be at least 1")
        if kind not in _SETUP:
            raise ValueError(f"no cost model for call kind {kind!r}")
        slope, intercept = getattr(self, kind)
        total = slope * m + intercept + self.branch_unit * branch_events
        setup, first_calls = _SETUP[kind]
        if ordinal <= first_calls:
            total += getattr(self, setup)
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

        Raises ValueError unless ``overrides`` is an object whose values
        are integers, or two-integer pairs for the per-kind keys.
        """
        if not isinstance(overrides, Mapping):
            raise ValueError(f"cost coefficients must be an object, got {overrides!r}")
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in overrides.items():
            if key not in defaults:
                raise ValueError(f"unknown cost coefficient {key!r}")
            pair = type(defaults[key]) is tuple
            values = value if pair else [value]
            shaped = not pair or isinstance(value, (list, tuple)) and len(value) == 2
            if not shaped or any(type(v) is not int for v in values):
                want = "a pair of integers" if pair else "an integer"
                raise ValueError(f"cost coefficient {key!r} must be {want}: {value!r}")
            kwargs[key] = tuple(values) if pair else value
        return cls(**kwargs)


DEFAULT_COST_MODEL = CostModel()

# Per call kind, the last epoch of a run that holds calls ``CostModel.cost``
# may surcharge: a user's first two demands land in epochs 1 and 2, its
# first claim in epoch 2, and the first executed update is the transition
# into epoch 2.
WARMUP_MAX_EPOCH = {KIND_DEMAND: 2, KIND_CLAIM: 2, KIND_UPDATE: 2}


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
    records: tuple[TraceRecord, ...]

    @property
    def config(self) -> SimConfig:
        return SimConfig(**self.header["config"])

    @property
    def costs(self) -> tuple[CostRecord, ...]:
        """One cost row per executed call, read off the records.

        A transition's row comes before the row of the call it rode on;
        both carry the record's epoch and the caller.
        """
        m = self.header["config"]["resources"]
        rows: list[CostRecord] = []
        for rec in self.records:
            if rec.update_cost is not None:
                rows.append(
                    CostRecord(KIND_UPDATE, m, rec.epoch, rec.tx.user, rec.update_cost)
                )
            if rec.tx.kind != KIND_REGISTER:
                rows.append(
                    CostRecord(rec.tx.kind, m, rec.epoch, rec.tx.user, rec.cost_units)
                )
        return tuple(rows)

    def clamp_count(self) -> int:
        return sum(1 for rec in self.records if rec.clamped)


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    diverged_at: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def build_schedule(config: SimConfig) -> list[BlockTx]:
    """One call per block: epoch 1 registers then demands, later epochs
    claim then demand.  Demand vectors are drawn fresh every epoch from
    the seeded generator, so the schedule is fully determined by the
    config.  They are plain tuples; ``_execute`` checks each one where
    it enters the machine, so a replayed schedule is checked too.
    """
    rng = random.Random(config.seed)
    n, m = config.users, config.resources
    low, stop = config.demand_low, config.demand_high + 1
    draw = rng.randrange
    txs: list[BlockTx] = []
    block = 1
    for epoch in range(1, config.epochs + 1):
        if epoch == 1:
            for user in range(n):
                txs.append(BlockTx(block, KIND_REGISTER, user))
                block += 1
        else:
            for user in range(n):
                txs.append(BlockTx(block, KIND_CLAIM, user))
                block += 1
        # The draw order (user by user, component by component) is part
        # of the seeded schedule; the golden trace test pins it.
        # ``randrange(low, high + 1)`` is what ``randint(low, high)`` calls.
        vectors = [tuple([draw(low, stop) for _ in range(m)]) for _ in range(n)]
        for user in range(n):
            txs.append(BlockTx(block, KIND_DEMAND, user, vectors[user]))
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
    txs: Iterable[BlockTx],
    cost_model: CostModel,
) -> Iterator[TraceRecord]:
    """Run one call per block, checking conservation as it goes, and
    yield each block's record once its checks have passed.

    A record carries the call's outcome, its cost and, in
    ``update_cost``, the cost of the epoch transition the call executed,
    so nothing about a block is kept anywhere else.  A call's cost
    ordinal counts that user's calls of that kind so far; a
    transition's is the machine's transition count, since every run
    starts from a fresh machine.

    A demand's vector is checked as a ``ResourceVector`` where it enters
    the machine; a missing, non-iterable or invalid one raises
    ``SimulationError`` at its block, as does a transaction without
    exactly four fields, at the block its first field names.  The
    harness keeps its own ledger from the calls' receipts: each user's
    balance (a zero entry at registration, plus every claimed share) and
    ``held``, their per-resource total, and runs the checks the module
    docstring lists.  A pool's negative quantity is an explicit check,
    since no ``ResourceVector`` is built; the recount compares every
    balance in ``snapshot()`` with the ledger, then checks
    ``accounting_gap``.  The transition count is read once per call
    block and compared with the count after the last transition.

    The pool and total checks remember the pool pair, the injected
    vector and ``held`` that last passed them, and run again only when
    one of the three is a different object: on a claim, a transition
    and the first block.  Tuples of ints cannot change behind an
    unchanged identity, so an object that passed still would.  The pair
    is remembered only while it and both pools are plain tuples, and
    the injected vector only while it is a tuple; a list swapped in is
    checked on every block.  A fault inside a call raises
    ``SimulationError`` at that block: a wrong credit fails the caller's
    balance check, and a pool losing units, units moved between the
    pools until one is negative, or a changed injected total must
    replace one of the three.  A non-caller's balance changed outside
    any call is not seen per block; it raises at that user's next call,
    the next transition or the final block, whichever comes first, and
    so does one driven negative, since neither comparison validates a
    balance.  This is the one fault a full recount on every block would
    catch sooner, on the next block, at O(n) per block.

    A record keeps the epoch, both pools and the cycle count from that
    ``caller_snapshot``, but no balance.  The pools are the machine's
    stored pair, so the records of blocks that change neither pool share
    one tuple.  A recorded balance could never be the first thing to
    differ between two runs, such as a run and its ``replay``: each run
    checks every balance it reads against its own ledger, and the ledger
    is the sum of that run's claimed shares, which ``replay`` compares
    block by block.  So up to the first block where a share differs or a
    check raises, both runs' balances are equal, and the record needs no
    per-user state.
    """
    txs = list(txs)
    last = len(txs) - 1
    m = machine.config.resource_count
    zeros = (0,) * m
    calls: dict[str, dict[int, int]] = {KIND_DEMAND: {}, KIND_CLAIM: {}}  # so far
    ledger: dict[int, tuple[int, ...]] = {}  # user -> balance, from receipts
    held = zeros  # per-resource total of the ledger
    transitions = machine.transitions
    # The pool pair, injected vector and ``held`` that last passed the
    # pool and total checks.
    passed: tuple = (None, None, None)
    for index, tx in enumerate(txs):
        try:
            block, kind, user, vector = tx
        except ValueError as exc:
            message = f"transaction has {len(tx)} fields, not 4"
            raise SimulationError(tx[0], message) from exc
        task_count: int | None = None
        clamped = False
        cost_units = 0
        update_cost: int | None = None
        try:
            if kind == KIND_REGISTER:
                vector = None
                machine.register_user(user)
                ledger[user] = zeros
            elif kind in calls:
                branch_events = 0
                if kind == KIND_DEMAND:
                    # The entry check; the record shares the schedule's tuple.
                    if vector is None:
                        raise SimulationError(block, "demand carries no vector")
                    try:
                        checked = ResourceVector(vector)
                    except (TypeError, ValueError) as exc:  # not iterable, or invalid
                        raise SimulationError(block, str(exc)) from exc
                    branch_events = machine.demand(user, checked, block).min_updates
                else:
                    _, _, task_count, vector, clamped = machine.claim(user, block)
                    ledger[user] = tuple(map(add, ledger[user], vector))
                    held = tuple(map(add, held, vector))
                after = machine.transitions
                if after != transitions:  # the call transitioned
                    transitions = after
                    update_cost = cost_model.cost(KIND_UPDATE, m, 0, after)
                per_user = calls[kind]
                ordinal = per_user[user] = per_user.get(user, 0) + 1
                cost_units = cost_model.cost(kind, m, branch_events, ordinal)
            else:
                raise MachineError(f"unknown call kind {kind!r}")
        except MachineError as exc:
            raise SimulationError(block, str(exc)) from exc
        epoch, reserves, cycle_count, balance = machine.caller_snapshot(user)
        injected = machine.total_injected()
        if reserves is not passed[0] or injected is not passed[1] or held is not passed[2]:
            pool0, pool1 = reserves
            if min(pool0 + pool1) < 0:
                raise SimulationError(
                    block,
                    f"conservation identity violated: a pool is negative: {reserves}",
                )
            accounted = tuple([a + b + h for a, b, h in zip(pool0, pool1, held)])
            if injected != accounted:
                _check_gap(block, tuple(map(sub, injected, accounted)))
            # Only tuples cannot change behind an unchanged identity.
            if type(reserves) is type(pool0) is type(pool1) is tuple and isinstance(
                injected, tuple
            ):
                passed = reserves, injected, held
        expected = ledger[user]
        if balance != expected:
            raise _balance_error(block, user, balance, expected)
        if update_cost is not None or index == last:
            balances = machine.snapshot()["balances"]
            if balances != ledger:
                for uid, balance in balances.items():
                    expected = ledger.get(uid, zeros)
                    if balance != expected:
                        raise _balance_error(block, uid, balance, expected)
            _check_gap(block, accounting_gap(machine))
        yield TraceRecord(
            tx, epoch, vector, task_count, clamped, cost_units, update_cost,
            reserves, cycle_count,
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
    machine = _make_machine(config)
    txs = build_schedule(config)
    records = tuple(_execute(machine, txs, cost_model))
    header = {
        "format": TRACE_FORMAT,
        "generator": GENERATOR_ID,
        "config": asdict(config),
        "cost_model": cost_model.as_dict(),
    }
    return Trace(header=header, records=records)


# The record fields ``replay`` compares, in the order it names them.
_COMPARED_FIELDS = (
    "epoch", "vector", "task_count", "clamped", "reserves", "cycle_count"
)
_compared = itemgetter(*(TraceRecord._fields.index(f) for f in _COMPARED_FIELDS))


def replay(trace: Trace, cost_model: CostModel = DEFAULT_COST_MODEL) -> ReplayResult:
    """Re-execute the trace's transactions and compare every outcome.

    Blocks are re-run and compared one at a time, so the result names
    the first block that diverges or raises.  Cost units are
    annotations, not state, so they are not compared and a different
    cost model, the default included, never causes divergence.  Whole
    records are compared first; only two that differ are compared field
    by field, which also names the field.
    """
    fresh_records = _execute(
        _make_machine(trace.config), (rec.tx for rec in trace.records), cost_model
    )
    try:
        for fresh, recorded in zip(fresh_records, trace.records):
            if fresh == recorded:
                continue
            got, want = _compared(fresh), _compared(recorded)
            if got != want:
                field_name = next(
                    name for name, a, b in zip(_COMPARED_FIELDS, got, want) if a != b
                )
                return ReplayResult(
                    False,
                    recorded.tx.block,
                    f"{field_name} diverged at block {recorded.tx.block}",
                )
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
    for rec in trace.records:
        if rec.tx.kind == KIND_DEMAND:
            assert rec.vector is not None
            per_user = demands_by_epoch.setdefault(rec.epoch, {})
            per_user[rec.tx.user] = rec.vector
            if rec.epoch not in pool_by_epoch:
                parity = (rec.epoch + 1) % 2
                pool_by_epoch[rec.epoch] = rec.reserves[parity]
        elif rec.tx.kind == KIND_CLAIM:
            assert rec.task_count is not None
            claims_by_epoch.setdefault(rec.epoch, {})[rec.tx.user] = rec.task_count

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
                rec.tx.block, rec.epoch, rec.tx.kind, rec.tx.user,
                vec_format % rec.vector if rec.vector else "-",
                rec.cost_units, rec.clamped,
            )
            for rec in trace.records
        )


COST_CSV_COLUMNS = CostRecord._fields


def write_cost_csv(records: Iterable[CostRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COST_CSV_COLUMNS)
        writer.writerows(records)


def read_cost_csv(path: str) -> list[CostRecord]:
    """Rows written by ``write_cost_csv``; ValueError names the first bad line."""
    out: list[CostRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != COST_CSV_COLUMNS:
            raise ValueError(f"unexpected cost CSV columns in {path}")
        for row in reader:
            # DictReader fills a short row with None and files a long
            # row's extra fields under the key None.
            if None in row or None in row.values():
                raise ValueError(
                    f"line {reader.line_num}: expected "
                    f"{len(COST_CSV_COLUMNS)} fields"
                )
            try:
                out.append(
                    CostRecord(
                        call_kind=row["call_kind"],
                        m=int(row["m"]),
                        epoch=int(row["epoch"]),
                        user=int(row["user"]),
                        cost_units=int(row["cost_units"]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out
