"""The benchmark's three workloads.

Each workload drives fairpool from outside through its public functions,
in a closed loop: one client, one process, one thread, the next call
issued when the previous one returns.  A workload has

* ``draw(segments)``: the set-up; every input is generated from the seed
  here, before anything is timed, in chunks that end a segment of
  ``segments`` each;
* ``unit()``: one fixed unit of work, timed, returning a ``Unit`` that
  holds the outputs the checks need;
* ``check(unit, checks)``: the correctness checks of one unit, run after
  its timed region (and, in the traced run, after the wrappers are gone);
* ``measure(seconds, checks)``: units repeated until ``seconds`` have
  passed, reduced to the workload's named end-to-end metrics.

Functions are looked up on their modules at call time (``chainsim.replay``,
not a name bound at import) so that the traced run's wrappers see them.

Every timed region is cut into segments of about 20 ms,
each bracketed by host-speed readings (``hostspeed.Segments``), so each
figure exists in host time and in reference time.  The report prints
host time; the gated figures are reference time.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from typing import Callable

from fairpool import alloc, chainsim, machine, reference
from fairpool.vectors import DemandSet, ResourceVector

from perfbench.hostspeed import Segments


@dataclass
class Checks:
    """Correctness checks: each attempted operation either passes or fails."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {attempted} failed: {what}")

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: str  # what the value was computed from, for the report


@dataclass
class Unit:
    """One unit of work: its host time, its reference time, its op count,
    per-stage figures in host (``times``) and reference (``ref_times``)
    terms, per-op latency percentiles (``latency``), the outputs
    ``check`` needs (dropped after), and the host-speed readings taken
    between its segments."""

    wall_s: float
    ref_s: float
    ops: int
    times: dict[str, float] = field(default_factory=dict)
    ref_times: dict[str, float] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    outputs: dict | None = None
    calibration_s: list[float] = field(default_factory=list)


@dataclass
class Measurement:
    metrics: list[Metric]  # the workload's named metrics, host time
    ops_per_s: float  # the gated figures, reference time
    op_p50_us: float
    op_p90_us: float
    calibration_s: list[float]


def repeat(run_unit: Callable[[], Unit], check, seconds: float, checks: Checks) -> list[Unit]:
    """Run and check units until ``seconds`` of wall time have passed
    (at least one)."""
    units = []
    start = time.perf_counter()
    while True:
        unit = run_unit()
        if check(unit, checks):
            units.append(unit)
        gc.collect()
        if time.perf_counter() - start >= seconds:
            break
    if not units:
        raise RuntimeError("no unit of work completed: " + "; ".join(checks.notes))
    return units


def latency_percentiles(latency_ns, scale) -> dict[str, float]:
    """p50 and p90 in µs of per-op host time, and of reference time
    (each op's time times its segment's factor)."""

    def p50_p90(values) -> tuple[float, float]:
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        return deciles[4] / 1e3, deciles[8] / 1e3

    host = p50_p90(latency_ns)
    ref = p50_p90([t * f for t, f in zip(latency_ns, scale)])
    return {"p50_us": host[0], "p90_us": host[1], "ref_p50_us": ref[0], "ref_p90_us": ref[1],
            "samples": len(latency_ns)}


def units_median(units: list[Unit], key: str) -> float:
    return statistics.median(u.latency[key] for u in units)


class ClockedCosts:
    """fairpool's default cost model, which also times the harness block
    by block.

    ``run_simulation`` and ``replay`` take the cost model as an argument
    and call its ``cost`` once per demand or claim block, right after the
    machine call returns (and once more for an epoch transition, which is
    not timed).  So the time from one such call to the next is one block
    of the harness: its cost record, conservation check, snapshot and
    trace record, then the next block's machine call.  Every ``every``
    blocks the current segment ends and host speed is read; that reading
    is left out of the block it falls in.  The costs are the default
    model's, so the trace is the same as without it.
    """

    def __init__(self, segments: Segments, every: int) -> None:
        self.segments = segments
        self.every = every
        self.model = chainsim.DEFAULT_COST_MODEL
        self.latency = array("q")  # ns per block
        self.scale = array("d")  # each block's segment factor
        self._open = 0  # first block of the current segment
        self._prev: int | None = None

    def as_dict(self) -> dict:
        return self.model.as_dict()

    def cost(self, kind: str, m: int, branch_events: int, ordinal: int) -> int:
        if kind != chainsim.KIND_UPDATE:
            now = time.perf_counter_ns()
            if self._prev is not None:
                self.latency.append(now - self._prev)
            self._prev = now
            if len(self.latency) - self._open >= self.every:
                self.split()
                self._prev = time.perf_counter_ns()
        return self.model.cost(kind, m, branch_events, ordinal)

    def split(self) -> None:
        """End the current segment; its blocks take its factor."""
        factor = self.segments.split()
        self.scale.extend(array("d", [factor]) * (len(self.latency) - self._open))
        self._open = len(self.latency)

    def end_stage(self) -> None:
        self.split()
        self._prev = None


class ChainWorkload:
    """``fairpool run`` + crosscheck + replay of one simulated chain."""

    name = "chain-n200"
    op = "block"
    setup_probes = 15
    block_segment = 50  # blocks per timed segment of run_simulation and replay

    def __init__(self, seed: int, smoke: bool, out_dir: str) -> None:
        users, epochs = (8, 3) if smoke else (200, 11)
        self.config = chainsim.SimConfig(
            users=users, resources=5, epochs=epochs, seed=seed
        )
        self.blocks = 2 * users * epochs
        self.claims = users * (epochs - 1)
        self.trace_path = os.path.join(out_dir, "chain-trace.txt")
        self.csv_path = os.path.join(out_dir, "chain-costs.csv")
        self.trace_file_bytes = 0

    def sizes(self) -> str:
        c = self.config
        return (
            f"users={c.users} resources={c.resources} epochs={c.epochs} "
            f"blocks={self.blocks}"
        )

    def draw(self, segments: Segments) -> None:
        """The simulation draws its own schedule from the config's seed."""

    def unit(self, clocked: bool = False) -> Unit:
        """Each stage ends a segment.  ``clocked`` also times
        ``run_simulation`` and ``replay`` block by block through the cost
        model, ending a segment every ``block_segment`` blocks; the traced
        run leaves it off, so that no host-speed reading falls inside a
        span."""
        segments = Segments()
        costs = ClockedCosts(segments, self.block_segment) if clocked else None
        cost_args = () if costs is None else (costs,)
        times: dict[str, float] = {}
        ref: dict[str, float] = {}

        def stage(name: str, fn, *args):
            wall0, ref0 = segments.wall, segments.ref
            result = fn(*args)
            if costs is None:
                segments.split()
            else:
                costs.end_stage()
            times[name] = segments.wall - wall0
            ref[name] = segments.ref - ref0
            return result

        try:
            trace = stage("run_simulation", chainsim.run_simulation, self.config, *cost_args)
        except chainsim.SimulationError as exc:
            return Unit(0.0, 0.0, 0, outputs={"stopped": str(exc)})
        stage("write_trace_file", chainsim.write_trace_file, trace, self.trace_path)
        stage("write_cost_csv", chainsim.write_cost_csv, trace.costs, self.csv_path)
        report = stage("crosscheck_trace", chainsim.crosscheck_trace, trace)
        replayed = stage("replay", chainsim.replay, trace, *cost_args)
        outputs = {"blocks": len(trace.records), "report": report, "replayed": replayed}
        latency = {} if costs is None else latency_percentiles(costs.latency, costs.scale)
        return Unit(segments.wall, segments.ref, len(trace.records),
                    times, ref, latency, outputs, segments.readings)

    def check(self, unit: Unit, checks: Checks) -> bool:
        """Record the unit's checks; False if the unit did not complete."""
        out, unit.outputs = unit.outputs, None
        # run_simulation checks conservation after every block and raises
        # on the first gap, so a finished run has passed it everywhere.
        if "stopped" in out:
            checks.expect(False, f"simulation stopped: {out['stopped']}")
            return False
        checks.expect(out["blocks"] == self.blocks, "simulation ran every block")
        report = out["report"]
        matched = report.matches if report.claims_checked == self.claims else 0
        checks.count(self.claims, self.claims - matched, "crosscheck claim matches reference")
        checks.expect(out["replayed"].ok, f"replay: {out['replayed'].reason}")
        self.trace_file_bytes = os.path.getsize(self.trace_path)
        os.remove(self.trace_path)
        os.remove(self.csv_path)
        return True

    def measure(self, seconds: float, checks: Checks) -> Measurement:
        units = repeat(lambda: self.unit(clocked=True), self.check, seconds, checks)
        blocks = sum(u.ops for u in units)
        claims = self.claims * len(units)
        sim = ("run_simulation", "write_trace_file", "write_cost_csv")

        def total(stages, ref=False) -> float:
            return sum((u.ref_times if ref else u.times)[s] for u in units for s in stages)

        runs = f"{len(units)} units"
        timed = sum(u.latency["samples"] for u in units)
        per_block = f"{timed} blocks of run_simulation and replay, median of {runs}"
        return Measurement(
            metrics=[
                Metric("sim_blocks_per_s", blocks / total(sim), "blocks/s", f"{blocks} blocks, {runs}"),
                Metric("replay_blocks_per_s", blocks / total(["replay"]), "blocks/s", f"{blocks} blocks, {runs}"),
                Metric("crosscheck_claims_per_s", claims / total(["crosscheck_trace"]), "claims/s", f"{claims} claims, {runs}"),
                Metric("block_p50_us", units_median(units, "p50_us"), "us", per_block),
                Metric("block_p90_us", units_median(units, "p90_us"), "us", per_block),
            ],
            ops_per_s=blocks / total(sim, ref=True),
            op_p50_us=units_median(units, "ref_p50_us"),
            op_p90_us=units_median(units, "ref_p90_us"),
            calibration_s=[r for u in units for r in u.calibration_s],
        )

    def retained_mb(self) -> float:
        """MiB still allocated after run_simulation returns: the trace.

        Run on its own because tracemalloc slows the simulation several
        times over.
        """
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = chainsim.run_simulation(self.config)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del trace
        return (after - before) / 2**20


class MachineWorkload:
    """AllocationMachine alone at n = 100,000 users: no harness, no allocator."""

    name = "machine-n100k"
    op = "call"
    setup_probes = 5
    segment = 3_000  # calls per timed segment
    draw_chunk = 5_000  # vectors per set-up segment

    def __init__(self, seed: int, smoke: bool, out_dir: str) -> None:
        self.seed = seed
        self.users = 200 if smoke else 100_000
        self.resources = 5
        self.epochs = 4
        self.config = machine.MachineConfig(
            resource_count=self.resources,
            epoch_span=2 * self.users,
            offset=1,
            epoch_reserve=ResourceVector((150 * self.users,) * self.resources),
        )
        self.calls = self.users * (1 + 2 * self.epochs)
        self.vectors: list[list[ResourceVector]] = []

    def sizes(self) -> str:
        return (
            f"users={self.users} resources={self.resources} epochs={self.epochs} "
            f"epoch_span={self.config.epoch_span} calls={self.calls}"
        )

    def draw(self, segments: Segments) -> None:
        rng = random.Random(self.seed)
        m = self.resources
        self.vectors = []
        for _ in range(self.epochs):
            epoch: list[ResourceVector] = []
            for lo in range(0, self.users, self.draw_chunk):
                epoch.extend(
                    ResourceVector([rng.randint(1, 10) for _ in range(m)])
                    for _ in range(min(self.draw_chunk, self.users - lo))
                )
                segments.split()
            self.vectors.append(epoch)

    def unit(self) -> Unit:
        """Register every user, then demand in epochs 1..E and claim in
        epochs 2..E+1, one call per block: epoch e starts at block
        ``1 + (e-1)*span`` and holds the claims, then the demands.  Each
        demand or claim is timed on its own; every ``segment`` calls, and
        the registrations, form one segment."""
        n, epochs, span, seg = self.users, self.epochs, self.config.epoch_span, self.segment
        sm = machine.AllocationMachine(self.config)
        register, demand, claim = sm.register_user, sm.demand, sm.claim
        latency = array("q", bytes(8 * 2 * n * epochs))
        scale = array("d", bytes(8 * 2 * n * epochs))
        tasks = array("q", bytes(8 * n * epochs))
        pools: list[tuple[int, ...]] = []
        clock = time.perf_counter_ns
        segments = Segments()

        def close(first: int, last: int) -> None:
            scale[first:last] = array("d", [segments.split()]) * (last - first)

        for u in range(n):
            register(u)
        close(0, 0)
        i = k = 0
        for e in range(1, epochs + 2):
            base = 1 + (e - 1) * span
            if e > 1:
                for lo in range(0, n, seg):
                    first = i
                    for u in range(lo, min(lo + seg, n)):
                        a = clock()
                        receipt = claim(u, base + u)
                        latency[i] = clock() - a
                        i += 1
                        tasks[k] = receipt.task_count
                        k += 1
                    close(first, i)
            if e <= epochs:
                vectors = self.vectors[e - 1]
                for lo in range(0, n, seg):
                    first = i
                    for u in range(lo, min(lo + seg, n)):
                        a = clock()
                        demand(u, vectors[u], base + n + u)
                        latency[i] = clock() - a
                        i += 1
                    close(first, i)
                # Claims drain the other pool, so this one is unchanged
                # since the epoch's first demand.
                pools.append(sm.reserve_pool(sm.demand_pool_parity()).quantities)
        return Unit(segments.wall, segments.ref, self.calls,
                    latency=latency_percentiles(latency, scale),
                    outputs={"machine": sm, "tasks": tasks, "pools": pools},
                    calibration_s=segments.readings)

    def check(self, unit: Unit, checks: Checks) -> bool:
        out, unit.outputs = unit.outputs, None
        n, tasks = self.users, out["tasks"]
        for e, pool in enumerate(out["pools"]):
            demands = {u: vec.quantities for u, vec in enumerate(self.vectors[e])}
            expected = reference.reference_task_counts(demands, pool)
            got = tasks[e * n:(e + 1) * n]
            bad = sum(1 for u in range(n) if got[u] != expected[u])
            checks.count(n, bad, f"epoch {e + 1} claims equal reference_task_counts")
        checks.expect(not any(machine.accounting_gap(out["machine"])), "accounting gap is zero")
        return True

    def measure(self, seconds: float, checks: Checks) -> Measurement:
        units = repeat(self.unit, self.check, seconds, checks)
        calls = sum(u.ops for u in units)
        timed = len(units) * 2 * self.users * self.epochs
        per_run = f"{timed} demand/claim calls, median of {len(units)} units"
        return Measurement(
            metrics=[
                Metric("calls_per_s", calls / sum(u.wall_s for u in units), "calls/s",
                       f"{calls} calls, {len(units)} units"),
                Metric("call_p50_us", units_median(units, "p50_us"), "us", per_run),
                Metric("call_p90_us", units_median(units, "p90_us"), "us", per_run),
            ],
            ops_per_s=calls / sum(u.ref_s for u in units),
            op_p50_us=units_median(units, "ref_p50_us"),
            op_p90_us=units_median(units, "ref_p90_us"),
            calibration_s=[r for u in units for r in u.calibration_s],
        )


class AllocWorkload:
    """A stream of loop-vs-precomputed DRF comparisons, drawn as
    ``fairpool stats`` and acceptance criterion 4 draw them."""

    name = "alloc-mc"
    op = "instance"
    setup_probes = 7
    segment = 30  # instances per timed segment
    draw_chunk = 250  # instances per set-up segment
    # Criterion 4's bound on the fraction of users the loop allocator
    # gives one task more than the precomputed one.  The true fraction
    # is close to it, so the check fails only when the stream shows the
    # fraction is above the bound: when the lower end of a 99.9%
    # interval (z = 3.29) of the mean per-instance fraction exceeds it.
    OVER_BOUND = 0.01
    OVER_Z = 3.29

    def __init__(self, seed: int, smoke: bool, out_dir: str) -> None:
        self.seed = seed
        self.users, self.resources = 10, 4
        self.pool = 40 if smoke else 10_000
        # The traced run covers a fixed prefix so its counts repeat exactly.
        self.traced = 20 if smoke else 2_000
        self.instances: list[tuple[DemandSet, ResourceVector]] = []
        self.over_fraction = 0.0

    def sizes(self) -> str:
        return (
            f"users={self.users} resources={self.resources} demands=1:10 "
            f"shared_reserve=100:1000 pool={self.pool} instances, cycled"
        )

    def draw(self, segments: Segments) -> None:
        rng = random.Random(self.seed)
        n, m = self.users, self.resources
        self.instances = []
        for i in range(self.pool):
            demands = DemandSet.from_vectors(
                [[rng.randint(1, 10) for _ in range(m)] for _ in range(n)]
            )
            shared = rng.randint(100, 1000)
            self.instances.append((demands, ResourceVector((shared,) * m)))
            if (i + 1) % self.draw_chunk == 0 or i + 1 == self.pool:
                segments.split()

    def unit(self, count: int | None = None, seconds: float | None = None) -> Unit:
        """Compare instances in pool order, cycling, until ``count`` are
        done (default: the traced prefix) or ``seconds`` have passed."""
        count = self.traced if count is None else count
        latency = array("q")
        scale = array("d")
        # Outcome totals, not the DiffStats themselves, so memory does
        # not grow with the number of instances a run gets through.  The
        # over fractions are kept for the first pass through the pool
        # only: repeated instances are not new samples.
        under_by_more = 0
        over_fractions = array("d")
        clock = time.perf_counter_ns
        pool = self.instances
        deadline = clock() + int(seconds * 1e9) if seconds is not None else 2**63
        segments = Segments()
        while len(latency) < count and clock() < deadline:
            first = len(latency)
            for i in range(first, min(first + self.segment, count)):
                demands, reserves = pool[i % len(pool)]
                a = clock()
                stats = alloc.compare_pdrf_drf(demands, reserves)
                latency.append(clock() - a)
                under_by_more += stats.under_by_more > 0
                if i < len(pool):
                    over_fractions.append(stats.over / stats.total)
            scale.extend(array("d", [segments.split()]) * (len(latency) - first))
        return Unit(segments.wall, segments.ref, len(latency),
                    latency=latency_percentiles(latency, scale),
                    outputs={"under_by_more": under_by_more, "over_fractions": over_fractions},
                    calibration_s=segments.readings)

    def check(self, unit: Unit, checks: Checks) -> bool:
        out, unit.outputs = unit.outputs, None
        checks.count(unit.ops, out["under_by_more"], "instance has no user under by 2 or more")
        fractions = out["over_fractions"]
        self.over_fraction = statistics.fmean(fractions)
        spread = statistics.stdev(fractions) / math.sqrt(len(fractions)) if len(fractions) > 1 else 0.0
        lower = self.over_fraction - self.OVER_Z * spread
        checks.expect(
            lower <= self.OVER_BOUND,
            f"over fraction {self.over_fraction:.5f} over {len(fractions)} instances "
            f"(lower end {lower:.5f}) is not above {self.OVER_BOUND}",
        )
        return True

    def measure(self, seconds: float, checks: Checks) -> Measurement:
        unit = self.unit(count=2**62, seconds=seconds)
        distinct = min(unit.ops, self.pool)
        self.check(unit, checks)
        samples = f"{unit.ops} instances"
        return Measurement(
            metrics=[
                Metric("instances_per_s", unit.ops / unit.wall_s, "inst/s", samples),
                Metric("instance_p50_us", unit.latency["p50_us"], "us", samples),
                Metric("instance_p90_us", unit.latency["p90_us"], "us", samples),
                Metric("over_fraction", self.over_fraction, "fraction",
                       f"{distinct} distinct instances; criterion 4 bound 0.01"),
            ],
            ops_per_s=unit.ops / unit.ref_s,
            op_p50_us=unit.latency["ref_p50_us"],
            op_p90_us=unit.latency["ref_p90_us"],
            calibration_s=unit.calibration_s,
        )


WORKLOADS = {w.name: w for w in (ChainWorkload, MachineWorkload, AllocWorkload)}
