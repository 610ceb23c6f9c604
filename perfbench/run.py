"""Run one benchmark workload against the fairpool sources of this checkout.

    python3 perfbench/run.py --workload chain-n200 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped (on
chain-n200 the cost model passed in also reads the clock once per block,
see ``workloads.ClockedCosts``); ``--trace 1`` runs one fixed unit of
work untraced and then traced, and reports per-layer metrics and the
tracing overhead.  Both print a readable report, then, as the last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` shrinks every size so the whole run takes a
second or two.

fairpool is imported from ``src/`` beside this directory and nowhere
else; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("alloc", "machine", "reference", "chainsim")
# Counts the tracing wrappers add up from the results of wrapped calls.
COUNTERS = (
    "alloc.drf_allocate.tasks",
    "alloc.dominant_share.count",
    "machine.transitions",
    "machine.clamped_claims",
    "machine.min_updates",
)
# The per-layer metrics of the final JSON line under --trace 1, as
# BENCHMARK.json declares them.  Every workload reports all of them; a
# layer that does not run reads 0.  Per-call times are in the readable
# report and the layers file only, since they do not exist where the
# layer does not run.
RESULT_LAYER_METRICS = (
    ("vectors.ResourceVector.count", "count/op"),
    *((name, "count") for name in COUNTERS),
    ("machine.accounting_gap.count", "count"),
    ("machine.snapshot.count", "count"),
    ("reference.reference_task_counts.count", "count"),
    ("chainsim.trace_file_bytes", "bytes"),
    ("chainsim.trace_retained_mb", "MiB"),
    *((f"{layer}.self_pct", "%") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
)


def load_program() -> None:
    """Put this checkout's ``src`` first on the path and import fairpool."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import fairpool
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fairpool from {SRC}: {exc}")
    if SRC not in Path(fairpool.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fairpool came from {fairpool.__file__}, not {SRC}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                   help="directory for trace files, spans and layer reports")
    p.add_argument("--setup-probe", nargs=2, type=float, metavar=("START", "READING"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(args: argparse.Namespace, probes: int) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes, from spawn until inputs are drawn,
    in host and in reference time.

    Each probe is this script with ``--setup-probe START READING``: the
    monotonic time just before the spawn and the host-speed reading just
    before that.  The probe's first segment runs from START until its
    imports are done; its draw ends a segment every chunk.  It prints its
    host and reference seconds.
    """
    from perfbench.hostspeed import calibrate

    host, ref = [], []
    for _ in range(probes):
        reading = calibrate()
        start = time.monotonic()
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--out", args.out,
               "--setup-probe", repr(start), repr(reading)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
        wall, scaled = done.stdout.split()[-2:]
        host.append(float(wall))
        ref.append(float(scaled))
    return host, ref


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def emit(checks, metrics: dict[str, tuple[float, str]]) -> None:
    line = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))


def show(name: str, value: float, unit: str, samples: str = "") -> None:
    print(f"  {name:<42} {value:>16.6g} {unit:<10} {samples}")


def run_end_to_end(args, wl, checks) -> dict[str, tuple[float, str]]:
    from perfbench.hostspeed import REFERENCE_CALIBRATION_S, Segments

    setup_host, setup_ref = setup_seconds(args, 1 if args.smoke else wl.setup_probes)
    wl.draw(Segments())
    m = wl.measure(args.seconds, checks)
    rss = peak_rss_mb()
    print("end-to-end metrics (untraced):")
    show("setup_s", statistics.median(setup_host), "s",
         f"median of {len(setup_host)} set-ups: " + " ".join(f"{s:.4f}" for s in setup_host))
    show("peak_rss_mb", rss, "MiB", "ru_maxrss of this process")
    show("error_rate", checks.failed / checks.attempted, "fraction",
         f"{checks.failed} of {checks.attempted} checked operations failed")
    for metric in m.metrics:
        show(metric.name, metric.value, metric.unit, metric.samples)
    cal = statistics.median(m.calibration_s)
    print(f"host speed: calibration loop median {cal * 1e3:.4f} ms over "
          f"{len(m.calibration_s)} readings, reference {REFERENCE_CALIBRATION_S * 1e3:g} ms")
    print("gated metrics (reference time, see perfbench/README.md):")
    show("ops_per_s", m.ops_per_s, "op/s", f"one op is one {wl.op}")
    show("op_p50_us", m.op_p50_us, "us")
    show("op_p90_us", m.op_p90_us, "us")
    show("setup_s", statistics.median(setup_ref), "s",
         f"median of {len(setup_ref)}: " + " ".join(f"{s:.4f}" for s in setup_ref))
    return {
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "ops_per_s": (m.ops_per_s, "op/s"),
        "op_p50_us": (m.op_p50_us, "us"),
        "op_p90_us": (m.op_p90_us, "us"),
    }


def layer_metrics(wl, tracer, traced) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the layers that ran in the traced unit."""
    summary = {k: v for k, v in tracer.summary().items() if v["calls"]}
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {
        "vectors.ResourceVector.count": (counts["vectors.ResourceVector.count"] / traced.ops, "count/op"),
    }
    for name, row in sorted(summary.items()):
        out[f"{name}.us"] = (row["ns"] / row["calls"] / 1e3, "us")
        out[f"{name}.count"] = (row["calls"], "count")
    ran = {name.split(".")[0] for name in summary}
    for name in COUNTERS:
        if name.split(".")[0] in ran:
            out[name] = (counts[name], "count")
    if "chainsim" in ran:
        sim = summary["chainsim.run_simulation"]
        out["chainsim.run_simulation.self_us_per_block"] = (
            sim["self_ns"] / (sim["calls"] * wl.blocks) / 1e3, "us")
        for name in ("build_schedule", "write_trace_file", "write_cost_csv"):
            out[f"chainsim.{name}.s"] = (summary[f"chainsim.{name}"]["ns"] / 1e9, "s")
        for name in ("crosscheck_trace", "replay"):
            out[f"chainsim.{name}.self_s"] = (summary[f"chainsim.{name}"]["self_ns"] / 1e9, "s")
        out["chainsim.trace_file_bytes"] = (wl.trace_file_bytes, "bytes")
    for layer in LAYERS:
        self_ns = sum(r["self_ns"] for k, r in summary.items() if k.startswith(layer + "."))
        out[f"{layer}.self_pct"] = (100 * self_ns / 1e9 / traced.wall_s, "%")
    return out


def check_run_simulation(tracer, traced, checks) -> None:
    """On chain-n200, run_simulation's direct children plus its self time
    must add up to its duration, and that duration must agree with the
    time this script measured around the call."""
    (sid,) = tracer.ids_named("chainsim.run_simulation")
    dur = tracer.end[sid] - tracer.start[sid]
    by_child: dict[str, int] = {}
    for c in tracer.children_of(sid):
        by_child[tracer.name(c)] = by_child.get(tracer.name(c), 0) + tracer.end[c] - tracer.start[c]
    self_ns = dur - sum(by_child.values())
    print("run_simulation breakdown (traced):")
    for name, ns in sorted(by_child.items(), key=lambda kv: -kv[1]):
        show(name, ns / 1e9, "s", f"{100 * ns / dur:.1f}%")
    show("self", self_ns / 1e9, "s", f"{100 * self_ns / dur:.1f}%")
    outer_ns = traced.times["run_simulation"] * 1e9
    show("children + self", (sum(by_child.values()) + self_ns) / 1e9, "s",
         f"span {dur / 1e9:.6f} s, measured around the call {outer_ns / 1e9:.6f} s")
    checks.expect(self_ns >= 0 and abs(dur - outer_ns) <= max(1e6, 0.01 * outer_ns),
                  "run_simulation span agrees with its children and the outer clock")


def run_traced(args, wl, checks) -> dict[str, tuple[float, str]]:
    from perfbench import spans
    from perfbench.hostspeed import Segments

    wl.draw(Segments())
    plain = wl.unit()
    completed = wl.check(plain, checks)
    gc.collect()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = wl.unit()
    completed = wl.check(traced, checks) and completed
    gc.collect()
    if not completed:
        raise SystemExit("perfbench: the unit of work did not complete: "
                         + "; ".join(checks.notes))
    checks.expect(tracer.check_nesting() == 0, "spans nest inside their parents")
    layers = layer_metrics(wl, tracer, traced)
    if wl.name == "chain-n200":
        check_run_simulation(tracer, traced, checks)
        layers["chainsim.trace_retained_mb"] = (wl.retained_mb(), "MiB")
    overhead = 100 * (traced.ref_s / plain.ref_s - 1)
    layers["trace.overhead_pct"] = (overhead, "%")

    run_id = f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    spans_path = os.path.join(args.out, f"spans-{wl.name}-seed{args.seed}.csv.gz")
    tracer.write_spans(spans_path, run_id)
    layers_path = os.path.join(args.out, f"layers-{wl.name}-seed{args.seed}.json")
    with open(layers_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "sizes": wl.sizes(),
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}},
                  fh, indent=2)

    print(f"tracing overhead ({wl.op}s of one unit of work, reference time):")
    show("untraced", plain.ops / plain.ref_s, f"{wl.op}s/s",
         f"{plain.ref_s:.4f} s (host {plain.wall_s:.4f} s)")
    show("traced", traced.ops / traced.ref_s, f"{wl.op}s/s",
         f"{traced.ref_s:.4f} s (host {traced.wall_s:.4f} s)")
    print(f"per-layer metrics ({len(tracer)} spans written to {spans_path}):")
    for name, (value, unit) in layers.items():
        show(name, value, unit)

    return {name: (layers.get(name, (0,))[0], unit) for name, unit in RESULT_LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_program()
    from perfbench import workloads
    from perfbench.workloads import Checks

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(args.out, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.out)
    if args.setup_probe:
        from perfbench.hostspeed import Segments

        start, reading = args.setup_probe
        segments = Segments(reading, start)
        segments.split()  # spawn until imports are done
        wl.draw(segments)
        print(segments.wall, segments.ref, flush=True)
        os._exit(0)  # the inputs need not be freed

    print(f"fairpool benchmark: workload {wl.name} ({wl.sizes()})")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}, "
          f"python {platform.python_version()}, closed loop with one client"
          + (", smoke sizes" if args.smoke else ""))
    checks = Checks()
    run = run_traced if args.trace else run_end_to_end
    metrics = run(args, wl, checks)
    for note in checks.notes:
        print(f"CHECK FAILED: {note}")
    emit(checks, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
