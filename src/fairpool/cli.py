"""Command line front end: simulate, cross-check, gather statistics, fit costs."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from collections import Counter
from typing import Iterator, Sequence

from .alloc import compare_pdrf_drf
from .chainsim import (
    DEFAULT_COST_MODEL,
    KIND_CLAIM,
    KIND_DEMAND,
    KIND_UPDATE,
    WARMUP_EPOCHS,
    CostModel,
    SimConfig,
    SimulationError,
    crosscheck_trace,
    draw_ints,
    read_cost_csv,
    run_simulation,
    write_cost_csv,
    write_trace_file,
)
from .regression import RegressionFit, fit_linear
from .vectors import DemandSet, ResourceVector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

# A config-file list for one of these flags is joined into the flag's text.
_SEPARATORS = {"demand_range": ":", "reserve_range": ":", "sweep": ","}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface reserves 2 for
    # invariant violations, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 1 <= LO <= HI, got {text!r}")
    return lo, hi


def _parse_sweep(text: str) -> list[int]:
    values = [_positive_int(part) for part in text.split(",")]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("sweep values must be distinct")
    return values


def _parse_cost_model(text: str) -> CostModel:
    try:
        return CostModel.from_overrides(json.loads(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fairpool",
        description=(
            "Multi-resource fair allocation: simulated-chain runs, oracle "
            "cross-checks, approximation statistics and cost fits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run simulations, write traces and cost CSV")
    cross = sub.add_parser(
        "crosscheck",
        help="recompute every claim with the fixed-point and exact references",
    )
    stats = sub.add_parser(
        "stats",
        help="Monte-Carlo comparison of loop vs precomputed allocation",
    )
    for cmd in (run, cross, stats):
        cmd.add_argument("--users", type=_positive_int, default=10, help="user count")
        cmd.add_argument(
            "--resources", type=_positive_int, default=2, help="resource type count"
        )
        cmd.add_argument(
            "--demand-range",
            type=_parse_range,
            default=(1, 10),
            metavar="LO:HI",
            help="inclusive bounds for demand components",
        )
        cmd.add_argument("--seed", type=int, default=0, help="base generator seed")
        cmd.add_argument(
            "--trials", type=_positive_int, default=1, help="runs or instances"
        )
        cmd.add_argument(
            "--config", metavar="PATH", help="JSON config file; explicit flags win"
        )
        cmd.add_argument("--out", metavar="DIR", default="out", help="output directory")
    for cmd in (run, cross):
        cmd.add_argument(
            "--epochs", type=_positive_int, default=11, help="epochs to simulate"
        )
        cmd.add_argument(
            "--per-user-reserve",
            type=int,
            default=150,
            help="replenished units per user per resource per epoch",
        )
        cmd.add_argument(
            "--sweep",
            type=_parse_sweep,
            metavar="M1,M2,...",
            help="resource counts to sweep (overrides --resources)",
        )
    run.add_argument(
        "--coefficients",
        type=_parse_cost_model,
        default=DEFAULT_COST_MODEL,
        metavar="JSON",
        help='cost-model overrides, e.g. \'{"branch_unit": 0, "claim": [1, 2]}\'',
    )
    stats.add_argument(
        "--reserve-range",
        type=_parse_range,
        default=(100, 1000),
        metavar="LO:HI",
        help="inclusive bounds for per-instance reserves",
    )
    stats.add_argument(
        "--independent-reserves",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="draw each resource's reserve independently "
        "(default: one shared draw per instance)",
    )

    costfit = sub.add_parser("costfit", help="fit cost-vs-resources lines to costs.csv")
    costfit.add_argument("csv_path", metavar="COSTS.CSV")
    costfit.add_argument("--out", metavar="DIR", help="output directory")
    costfit.add_argument(
        "--gas-limit", type=_positive_int, metavar="G",
        help="also print, per call kind, the largest m whose fitted cost is at most G",
    )

    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The config file's settings as flags of the same subcommand, for the
    flags' own parsers to check.  Keys are flag names with ``_`` for ``-``.
    ``true``/``false`` become ``--flag``/``--no-flag``; a list for a range
    or a sweep is joined with that flag's separator; other lists and
    objects pass as JSON text, strings and numbers as the flag's text."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = raw.keys() - (vars(args).keys() - {"command", "config"})
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    flags = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            flags.append(flag if value else "--no-" + flag[2:])
            continue
        if isinstance(value, list) and key in _SEPARATORS:
            value = _SEPARATORS[key].join(map(str, value))
        elif not isinstance(value, str):
            value = json.dumps(value)
        flags.append(f"{flag}={value}")
    return flags


def _run_all(args: argparse.Namespace, model: CostModel):
    """Check every run's settings on the sweep/trial grid and create the
    output directory; the returned iterator yields (m, trial, trace)."""
    low, high = args.demand_range
    grid = [
        (m, trial, SimConfig(
            users=args.users,
            resources=m,
            epochs=args.epochs,
            demand_low=low,
            demand_high=high,
            per_user_reserve=args.per_user_reserve,
            seed=args.seed + trial,
        ))
        for m in args.sweep or [args.resources]
        for trial in range(args.trials)
    ]
    os.makedirs(args.out, exist_ok=True)
    return ((m, trial, run_simulation(config, model)) for m, trial, config in grid)


def cmd_run(args: argparse.Namespace) -> int:
    runs = _run_all(args, args.coefficients)
    csv_path = os.path.join(args.out, "costs.csv")
    rows_per_trace: list[int] = []

    def costs() -> Iterator[tuple]:
        # Stream each trace's rows; drop the trace before the next run.
        for m, trial, trace in runs:
            path = os.path.join(args.out, f"trace_m{m}_trial{trial}.txt")
            write_trace_file(trace, path)
            print(f"wrote {path} ({len(trace.records)} blocks)")
            rows = trace.costs
            del trace
            rows_per_trace.append(len(rows))
            yield from rows

    try:
        write_cost_csv(costs(), csv_path)  # a failed run leaves no cost file
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"wrote {csv_path} ({sum(rows_per_trace)} cost records)")
    print(f"{len(rows_per_trace)} trace(s) complete")
    return EXIT_OK


def _write_json(out: str, name: str, payload: dict) -> None:
    """Write ``payload`` as indented JSON to ``out``/``name`` and say so."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


def cmd_crosscheck(args: argparse.Namespace) -> int:
    total_claims = 0
    total_epochs = 0
    delta_counts: Counter[int] = Counter()
    clamp_events = 0
    try:
        for m, trial, trace in _run_all(args, DEFAULT_COST_MODEL):
            report = crosscheck_trace(trace)
            clamp_events += trace.clamp_count()
            del trace  # drop it before the next run
            total_claims += report.claims_checked
            total_epochs += report.epochs_checked
            delta_counts.update(report.delta_counts)
            if report.mismatches:
                epoch, user, got, want = report.mismatches[0]
                print(
                    f"MISMATCH at m={m} trial={trial} epoch={epoch} "
                    f"user={user}: machine={got} reference={want}",
                    file=sys.stderr,
                )
                return EXIT_VIOLATION
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    # Each trace's first mismatch returned above, so every claim matched.
    summary = {
        "epochs_checked": total_epochs,
        "claims_checked": total_claims,
        "matches": total_claims,
        "match_rate": 1.0,
        "clamp_events": clamp_events,
        "fixed_minus_rational_histogram": {
            str(k): v for k, v in sorted(delta_counts.items())
        },
        "max_abs_fixed_minus_rational": max(map(abs, delta_counts), default=0),
    }
    print(
        f"checked {total_claims} claims over {total_epochs} epochs: "
        f"match rate 1.000000, clamp events {clamp_events}"
    )
    print(f"fixed-vs-rational deltas: {summary['fixed_minus_rational_histogram']}")
    _write_json(args.out, "crosscheck.json", summary)
    return EXIT_OK


def _wilson_interval(count: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for the proportion count / total.

    Unlike the Wald interval it keeps a positive width at a zero count:
    0 of N gives [0, hi] with hi > 0.
    """
    z = 1.96
    denom = total + z * z
    center = (count + z * z / 2) / denom
    half = z * math.sqrt(count * (total - count) / total + z * z / 4) / denom
    # The ends are exactly 0 and 1 at count 0 and count total; clamp away
    # the rounding error of center - half and center + half there.
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == total else min(1.0, center + half)
    return (lo, hi)


def _rate(count: int, total: int) -> dict:
    return {
        "count": count,
        "fraction": count / total,
        "ci95": list(_wilson_interval(count, total)),
    }


def cmd_stats(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    low, high = args.demand_range
    r_low, r_high = args.reserve_range
    n = args.users
    m = args.resources
    tally: Counter[int] = Counter()  # per-user deltas, loop minus precomputed
    # Each trial draws what n rows of m ``randint(low, high)`` calls, then
    # m (or one shared) ``randint(r_low, r_high)`` calls would draw.
    for _ in range(args.trials):
        flat = draw_ints(rng, low, high, n * m)
        demands = DemandSet.from_vectors(zip(*[iter(flat)] * m))
        if args.independent_reserves:
            reserves = ResourceVector(draw_ints(rng, r_low, r_high, m))
        else:
            reserves = ResourceVector(draw_ints(rng, r_low, r_high, 1) * m)
        tally.update(compare_pdrf_drf(demands, reserves).deltas)
    # --users and --trials are positive, so total is at least 1.
    total = tally.total()
    under_more = sum(count for delta, count in tally.items() if delta > 1)
    summary = {
        "trials": args.trials,
        "users": n,
        "resources": m,
        "demand_range": list(args.demand_range),
        "reserve_range": list(args.reserve_range),
        "reserve_mode": "independent" if args.independent_reserves else "shared",
        "user_samples": total,
        "under_by_one": _rate(tally[1], total),
        "over": _rate(sum(count for delta, count in tally.items() if delta < 0), total),
        "exact": {"count": tally[0], "fraction": tally[0] / total},
        "under_by_more": under_more,
        "delta_histogram": {str(k): v for k, v in sorted(tally.items())},
    }
    print(
        f"{args.trials} instances, {total} user samples: "
        f"under-by-one {summary['under_by_one']['fraction']:.4f} "
        f"(95% CI {summary['under_by_one']['ci95']}), "
        f"over {summary['over']['fraction']:.6f}, "
        f"under by 2+ {under_more}"
    )
    _write_json(args.out, "stats.json", summary)
    return EXIT_OK


def _largest_m(fit: RegressionFit, limit: int) -> str:
    """The largest m >= 1 whose fitted cost is at most ``limit``, "none" if
    m = 1 costs more, "unbounded" if the line never rises and some m fits."""
    if fit.slope > 0:
        m = math.floor((limit - fit.intercept) / fit.slope)
        return str(m) if m >= 1 else "none"
    return "unbounded" if fit.slope < 0 or fit.intercept <= limit else "none"


def cmd_costfit(args: argparse.Namespace) -> int:
    try:
        records = read_cost_csv(args.csv_path)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.csv_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # One fit per kind, of its stabilized records.
    fits: dict[str, RegressionFit] = {}
    for kind in (KIND_DEMAND, KIND_CLAIM, KIND_UPDATE):
        points = [
            (m, cost_units) for call_kind, m, epoch, _, cost_units in records
            if call_kind == kind and epoch > WARMUP_EPOCHS
        ]
        if not points:
            continue
        try:
            fits[kind] = fit_linear(points)
        except ValueError:
            print(
                f"cannot fit: {kind}: need records at two or more distinct "
                "resource counts",
                file=sys.stderr,
            )
            return EXIT_USAGE
    if not fits:
        print("no stabilized cost records found", file=sys.stderr)
        return EXIT_USAGE
    payload: dict[str, dict] = {}
    for kind, fit in fits.items():
        print(
            f"{kind}: cost = {float(fit.slope):.3f} * m + "
            f"{float(fit.intercept):.3f}  (R^2 = {float(fit.r_squared):.8f})"
        )
        if args.gas_limit:
            print(f"{kind}: largest m with fitted cost <= {args.gas_limit}: "
                  f"{_largest_m(fit, args.gas_limit)}")
        payload[kind] = {
            "slope": float(fit.slope),
            "intercept": float(fit.intercept),
            "r_squared": float(fit.r_squared),
        }
    if args.out:
        _write_json(args.out, "costfit.json", payload)
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "crosscheck": cmd_crosscheck,
    "stats": cmd_stats,
    "costfit": cmd_costfit,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The config's flags go right after the subcommand, ahead of
            # the command line's, so explicit flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args), *argv[at:]])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
