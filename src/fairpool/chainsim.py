"""Deterministic simulated-chain harness: one call per block.

Drives an AllocationMachine through a fixed schedule (a registration
epoch followed by alternating claim/demand epochs), draws workloads from
a seeded generator, and annotates every call with abstract cost units
from a configurable affine model.  Costs are annotations only; machine
state never depends on them.

The harness checks conservation against its own ledger of claimed
shares.  Every block it checks, in O(m), what the call can change: the
two pools plus the ledger's total must equal everything injected, and
the caller's balance must equal its ledger entry.  On each epoch
transition and on the last block it also recounts every balance, O(n),
so a run costs O(m) per block averaged over an epoch.  A trace record's
``snapshot`` holds the epoch, both pools, the cycle count and the
caller's balance; on recount blocks it is the machine's full
``snapshot()``, with every user's balance.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .alloc import pdrf_allocate
from .machine import AllocationMachine, MachineConfig, MachineError, accounting_gap
from .reference import reference_task_counts
from .vectors import DemandSet, ResourceVector

GENERATOR_ID = "python-random-mt19937"
TRACE_FORMAT = "fairpool-trace-v1"

KIND_REGISTER = "register"
KIND_DEMAND = "demand"
KIND_CLAIM = "claim"
KIND_UPDATE = "update_state"
KIND_NOOP = "noop"


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
        if self.per_user_reserve < 0:
            raise ValueError("per_user_reserve must be non-negative")

    @property
    def epoch_span(self) -> int:
        return 2 * self.users

    @property
    def epoch_reserve(self) -> ResourceVector:
        per_resource = self.users * self.per_user_reserve
        return ResourceVector((per_resource,) * self.resources)

    def as_dict(self) -> dict:
        return {
            "users": self.users,
            "resources": self.resources,
            "epochs": self.epochs,
            "demand_low": self.demand_low,
            "demand_high": self.demand_high,
            "per_user_reserve": self.per_user_reserve,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CostModel:
    """Affine per-call cost in the resource count, plus a branch surcharge.

    Default coefficients are the fitted stabilized-call costs from the
    reference deployment benchmarks; ``branch_unit`` prices each update
    of the running reciprocal-share minimum during a demand call.
    Setup surcharges model first-call buffer initialization and are off
    by default.
    """

    claim_slope: int = 15_130
    claim_intercept: int = 36_486
    demand_slope: int = 13_616
    demand_intercept: int = 47_245
    update_slope: int = 11_295
    update_intercept: int = 23_539
    branch_unit: int = 500
    demand_setup: int = 0  # added to a user's first two demand calls
    claim_setup: int = 0  # added to a user's first claim call
    update_setup: int = 0  # added to the first executed transition

    def base_cost(self, kind: str, m: int, branch_events: int = 0) -> int:
        if m < 1:
            raise ValueError("resource count must be at least 1")
        if kind == KIND_CLAIM:
            return self.claim_slope * m + self.claim_intercept
        if kind == KIND_DEMAND:
            return (
                self.demand_slope * m
                + self.demand_intercept
                + self.branch_unit * branch_events
            )
        if kind == KIND_UPDATE:
            return self.update_slope * m + self.update_intercept
        raise ValueError(f"no cost model for call kind {kind!r}")

    def cost(self, kind: str, m: int, branch_events: int, ordinal: int) -> int:
        """Cost of the ordinal-th call of this kind (per user, 1-based)."""
        total = self.base_cost(kind, m, branch_events)
        if kind == KIND_DEMAND and ordinal <= 2:
            total += self.demand_setup
        elif kind == KIND_CLAIM and ordinal == 1:
            total += self.claim_setup
        elif kind == KIND_UPDATE and ordinal == 1:
            total += self.update_setup
        return total

    def as_dict(self) -> dict:
        return {
            "claim": [self.claim_slope, self.claim_intercept],
            "demand": [self.demand_slope, self.demand_intercept],
            "update_state": [self.update_slope, self.update_intercept],
            "branch_unit": self.branch_unit,
            "demand_setup": self.demand_setup,
            "claim_setup": self.claim_setup,
            "update_setup": self.update_setup,
        }

    @classmethod
    def from_overrides(cls, overrides: Mapping[str, object]) -> "CostModel":
        kwargs: dict[str, int] = {}
        pairs = {
            "claim": ("claim_slope", "claim_intercept"),
            "demand": ("demand_slope", "demand_intercept"),
            "update_state": ("update_slope", "update_intercept"),
        }
        for key, value in overrides.items():
            if key in pairs:
                slope_field, intercept_field = pairs[key]
                slope, intercept = value  # type: ignore[misc]
                kwargs[slope_field] = int(slope)
                kwargs[intercept_field] = int(intercept)
            elif key in ("branch_unit", "demand_setup", "claim_setup", "update_setup"):
                kwargs[key] = int(value)  # type: ignore[arg-type]
            else:
                raise ValueError(f"unknown cost coefficient {key!r}")
        return cls(**kwargs)


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class BlockTx:
    block: int
    kind: str
    user: int | None = None
    vector: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CostRecord:
    call_kind: str
    m: int
    epoch: int
    user: int
    cost_units: int


@dataclass(frozen=True)
class TraceRecord:
    tx: BlockTx
    epoch: int
    # Demand blocks echo the demand vector; claim blocks carry the share.
    vector: tuple[int, ...] | None
    task_count: int | None
    clamped: bool
    cost_units: int
    snapshot: dict


@dataclass(frozen=True)
class Trace:
    header: dict
    records: tuple[TraceRecord, ...]
    costs: tuple[CostRecord, ...]

    @property
    def config(self) -> SimConfig:
        return SimConfig(**self.header["config"])

    def clamp_count(self) -> int:
        return sum(1 for rec in self.records if rec.clamped)


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    diverged_at: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def gen_demands(
    n: int, m: int, low: int, high: int, seed: int
) -> list[ResourceVector]:
    """n demand vectors with i.i.d. uniform components on [low, high]."""
    if low > high:
        raise ValueError("low must be <= high")
    if low < 1:
        raise ValueError("low must be at least 1")
    rng = random.Random(seed)
    return _draw_demands(rng, n, m, low, high)


def _draw_demands(
    rng: random.Random, n: int, m: int, low: int, high: int
) -> list[ResourceVector]:
    return [
        ResourceVector(rng.randint(low, high) for _ in range(m)) for _ in range(n)
    ]


def build_schedule(config: SimConfig) -> list[BlockTx]:
    """One call per block: epoch 1 registers then demands, later epochs
    claim then demand.  Demand vectors are drawn fresh every epoch from
    the seeded generator, so the schedule is fully determined by the
    config.
    """
    rng = random.Random(config.seed)
    n = config.users
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
        vectors = _draw_demands(
            rng, n, config.resources, config.demand_low, config.demand_high
        )
        for user in range(n):
            txs.append(
                BlockTx(block, KIND_DEMAND, user, vectors[user].quantities)
            )
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
) -> tuple[list[TraceRecord], list[CostRecord]]:
    """Run one call per block, checking conservation as it goes.

    The harness keeps its own ledger from the calls' receipts: each
    user's balance (a zero entry at registration, plus every claimed
    share) and ``held``, their per-resource total.  A call can change
    only the two pools, the epoch and cycle count, and the caller's
    balance, so every block checks just those, in O(m):

    * ``total_injected() == pool0 + pool1 + held``, component by
      component;
    * the caller's machine balance equals its ledger entry.

    A full O(n) recount, ``accounting_gap`` plus a comparison of every
    machine balance with the ledger, runs on each block where
    ``update_state`` executed a transition and on the last block.  An
    epoch spans two blocks per user, so this averages O(m) per block.
    A fault inside a call (a wrong credit, a pool losing units) raises
    at that block.  A non-caller's balance changed outside any call is
    not seen per block; it raises at that user's next call, the next
    transition or the final block, whichever comes first.  This is the
    one fault a full recount on every block would catch sooner, on the
    next block, at O(n) per block.

    Each record's ``snapshot`` holds ``epoch``, ``reserves``,
    ``cycle_count`` and the caller's ``balance`` (None on a block
    without a caller); recount blocks hold the machine's full
    ``snapshot()`` instead.  Comparing these per block, as ``replay``
    does, still compares everything a full snapshot holds: by induction
    on blocks, two runs that agree at a recount (or at the fresh start)
    and on every later record agree on everything a call could have
    changed since, and full snapshots are compared again at the next
    recount.
    """
    txs = list(txs)
    m = machine.config.resource_count
    records: list[TraceRecord] = []
    costs: list[CostRecord] = []
    demand_calls: dict[int, int] = {}
    claim_calls: dict[int, int] = {}
    updates_executed = 0
    ledger: dict[int, list[int]] = {}  # user -> balance, from receipts
    held = [0] * m  # per-resource total of the ledger
    for index, tx in enumerate(txs):
        vector: tuple[int, ...] | None = None
        task_count: int | None = None
        clamped = False
        cost_units = 0
        transitioned = False
        try:
            if tx.kind == KIND_NOOP:
                pass
            elif tx.kind == KIND_REGISTER:
                assert tx.user is not None
                machine.register_user(tx.user)
                ledger[tx.user] = [0] * m
            elif tx.kind in (KIND_DEMAND, KIND_CLAIM):
                assert tx.user is not None
                if machine.update_state(tx.block):
                    transitioned = True
                    updates_executed += 1
                    costs.append(
                        CostRecord(
                            KIND_UPDATE,
                            m,
                            machine.epoch,
                            tx.user,
                            cost_model.cost(KIND_UPDATE, m, 0, updates_executed),
                        )
                    )
                if tx.kind == KIND_DEMAND:
                    assert tx.vector is not None
                    echo = machine.demand(
                        tx.user, ResourceVector(tx.vector), tx.block
                    )
                    vector = echo.vector.quantities
                    ordinal = demand_calls.get(tx.user, 0) + 1
                    demand_calls[tx.user] = ordinal
                    cost_units = cost_model.cost(
                        KIND_DEMAND, m, echo.min_updates, ordinal
                    )
                    costs.append(
                        CostRecord(KIND_DEMAND, m, echo.epoch, tx.user, cost_units)
                    )
                else:
                    receipt = machine.claim(tx.user, tx.block)
                    vector = receipt.share.quantities
                    task_count = receipt.task_count
                    clamped = receipt.clamped
                    entry = ledger[tx.user]
                    for r, v in enumerate(vector):
                        entry[r] += v
                        held[r] += v
                    ordinal = claim_calls.get(tx.user, 0) + 1
                    claim_calls[tx.user] = ordinal
                    cost_units = cost_model.cost(KIND_CLAIM, m, 0, ordinal)
                    costs.append(
                        CostRecord(KIND_CLAIM, m, receipt.epoch, tx.user, cost_units)
                    )
            else:
                raise MachineError(f"unknown call kind {tx.kind!r}")
        except MachineError as exc:
            raise SimulationError(tx.block, str(exc)) from exc
        reserves = (
            machine.reserve_pool(0).quantities,
            machine.reserve_pool(1).quantities,
        )
        _check_gap(
            tx.block,
            tuple(
                i - a - b - h
                for i, a, b, h in zip(machine.total_injected(), *reserves, held)
            ),
        )
        balance = None
        if tx.kind != KIND_NOOP:
            balance = machine.balance_of(tx.user).quantities
            _check_balance(tx.block, tx.user, balance, ledger[tx.user])
        if transitioned or index == len(txs) - 1:
            _check_gap(tx.block, accounting_gap(machine))
            snapshot = machine.snapshot()
            for uid, machine_balance in snapshot["balances"].items():
                _check_balance(
                    tx.block, uid, machine_balance, ledger.get(uid, [0] * m)
                )
        else:
            snapshot = {
                "epoch": machine.epoch,
                "reserves": reserves,
                "cycle_count": machine.cycle_count,
                "balance": balance,
            }
        records.append(
            TraceRecord(
                tx=tx,
                epoch=machine.epoch,
                vector=vector,
                task_count=task_count,
                clamped=clamped,
                cost_units=cost_units,
                snapshot=snapshot,
            )
        )
    return records, costs


def _check_gap(block: int, gap: tuple[int, ...]) -> None:
    if any(gap):
        raise SimulationError(block, f"conservation identity violated: gap {gap}")


def _check_balance(
    block: int, user: int, balance: tuple[int, ...], expected: list[int]
) -> None:
    """The user's machine balance must equal the harness's ledger entry."""
    if list(balance) != expected:
        gap = tuple(e - b for e, b in zip(expected, balance))
        raise SimulationError(
            block,
            f"conservation identity violated: gap {gap} in user {user}'s balance",
        )


def run_simulation(
    config: SimConfig, cost_model: CostModel = DEFAULT_COST_MODEL
) -> Trace:
    """Drive a full schedule and return the recorded trace."""
    machine = _make_machine(config)
    txs = build_schedule(config)
    records, costs = _execute(machine, txs, cost_model)
    header = {
        "format": TRACE_FORMAT,
        "generator": GENERATOR_ID,
        "config": config.as_dict(),
        "cost_model": cost_model.as_dict(),
    }
    return Trace(header=header, records=tuple(records), costs=tuple(costs))


def replay(trace: Trace, cost_model: CostModel | None = None) -> ReplayResult:
    """Re-execute the trace's transactions and compare every outcome.

    Cost units are annotations, not state, so they are not compared and
    a different cost model never causes divergence.
    """
    config = trace.config
    if cost_model is None:
        cost_model = CostModel.from_overrides(trace.header.get("cost_model", {}))
    machine = _make_machine(config)
    try:
        records, _ = _execute(
            machine, (rec.tx for rec in trace.records), cost_model
        )
    except SimulationError as exc:
        return ReplayResult(False, exc.block, str(exc))
    for fresh, recorded in zip(records, trace.records):
        for field_name in ("epoch", "vector", "task_count", "clamped", "snapshot"):
            if getattr(fresh, field_name) != getattr(recorded, field_name):
                return ReplayResult(
                    False,
                    recorded.tx.block,
                    f"{field_name} diverged at block {recorded.tx.block}",
                )
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
    precomputed allocator (reported as deltas).
    """
    demands_by_epoch: dict[int, dict[int, tuple[int, ...]]] = {}
    pool_by_epoch: dict[int, tuple[int, ...]] = {}
    claims_by_epoch: dict[int, dict[int, int]] = {}
    for rec in trace.records:
        if rec.tx.kind == KIND_DEMAND:
            assert rec.tx.user is not None and rec.vector is not None
            per_user = demands_by_epoch.setdefault(rec.epoch, {})
            per_user[rec.tx.user] = rec.vector
            if rec.epoch not in pool_by_epoch:
                parity = (rec.epoch + 1) % 2
                pool_by_epoch[rec.epoch] = rec.snapshot["reserves"][parity]
        elif rec.tx.kind == KIND_CLAIM:
            assert rec.tx.user is not None and rec.task_count is not None
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
        rational = pdrf_allocate(
            DemandSet(
                (uid, ResourceVector(vec)) for uid, vec in demands.items()
            ),
            ResourceVector(pool),
        )
        rational_by_user = dict(zip(demands.keys(), rational.task_counts))
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(trace.header, sort_keys=True) + "\n")
        for rec in trace.records:
            vec = ",".join(str(v) for v in rec.vector) if rec.vector else "-"
            user = rec.tx.user if rec.tx.user is not None else "-"
            fh.write(
                f"{rec.tx.block} {rec.epoch} {rec.tx.kind} {user} {vec} "
                f"{rec.cost_units} {int(rec.clamped)}\n"
            )


COST_CSV_COLUMNS = ("call_kind", "m", "epoch", "user", "cost_units")


def write_cost_csv(records: Iterable[CostRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COST_CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [rec.call_kind, rec.m, rec.epoch, rec.user, rec.cost_units]
            )


def read_cost_csv(path: str) -> list[CostRecord]:
    out: list[CostRecord] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != COST_CSV_COLUMNS:
            raise ValueError(f"unexpected cost CSV columns in {path}")
        for row in reader:
            out.append(
                CostRecord(
                    call_kind=row["call_kind"],
                    m=int(row["m"]),
                    epoch=int(row["epoch"]),
                    user=int(row["user"]),
                    cost_units=int(row["cost_units"]),
                )
            )
    return out
