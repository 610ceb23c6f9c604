"""Command line front end: simulate, cross-check, gather statistics, fit costs."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .alloc import compare_pdrf_drf
from .chainsim import (
    KIND_CLAIM,
    KIND_DEMAND,
    KIND_UPDATE,
    CostModel,
    CostRecord,
    SimConfig,
    SimulationError,
    crosscheck_trace,
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

_DEFAULTS = {
    "users": 10,
    "resources": 2,
    "epochs": 11,
    "demand_range": (1, 10),
    "per_user_reserve": 150,
    "seed": 0,
    "trials": 1,
    "sweep": None,
    "out": "out",
    "reserve_range": (100, 1000),
    "independent_reserves": False,
    "coefficients": {},
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface reserves 2 for
    # invariant violations, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class Settings:
    users: int
    resources: int
    epochs: int
    demand_range: tuple[int, int]
    per_user_reserve: int
    seed: int
    trials: int
    sweep: list[int] | None
    out: str
    reserve_range: tuple[int, int]
    independent_reserves: bool
    coefficients: dict

    def sim_config(self, resources: int, seed: int) -> SimConfig:
        low, high = self.demand_range
        return SimConfig(
            users=self.users,
            resources=resources,
            epochs=self.epochs,
            demand_low=low,
            demand_high=high,
            per_user_reserve=self.per_user_reserve,
            seed=seed,
        )

    def cost_model(self) -> CostModel:
        return CostModel.from_overrides(self.coefficients)

    def sweep_values(self) -> list[int]:
        return list(self.sweep) if self.sweep else [self.resources]


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"range low {lo} exceeds high {hi}")
    return lo, hi


def _parse_sweep(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part]
    if not values:
        raise ValueError("sweep list is empty")
    if len(set(values)) != len(values):
        raise ValueError("sweep values must be distinct")
    if any(v < 1 for v in values):
        raise ValueError("sweep values must be at least 1")
    return values


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--users", type=int, help="number of registered users")
    sub.add_argument("--resources", type=int, help="number of resource types")
    sub.add_argument("--epochs", type=int, help="number of epochs to simulate")
    sub.add_argument(
        "--demand-range",
        metavar="LO:HI",
        help="inclusive bounds for demand components",
    )
    sub.add_argument(
        "--per-user-reserve",
        type=int,
        help="replenished units per user per resource per epoch",
    )
    sub.add_argument("--seed", type=int, help="base seed for the generator")
    sub.add_argument("--trials", type=int, help="independent runs or instances")
    sub.add_argument(
        "--sweep",
        metavar="M1,M2,...",
        help="resource counts to sweep (overrides --resources)",
    )
    sub.add_argument("--config", metavar="PATH", help="JSON config file")
    sub.add_argument("--out", metavar="DIR", help="output directory")


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
    _add_common_flags(run)

    cross = sub.add_parser(
        "crosscheck",
        help="recompute every claim with the fixed-point and exact references",
    )
    _add_common_flags(cross)

    stats = sub.add_parser(
        "stats",
        help="Monte-Carlo comparison of loop vs precomputed allocation",
    )
    _add_common_flags(stats)
    stats.add_argument(
        "--reserve-range",
        metavar="LO:HI",
        help="inclusive bounds for per-instance reserves",
    )
    stats.add_argument(
        "--independent-reserves",
        action="store_true",
        default=None,
        help="draw each resource's reserve independently "
        "(default: one shared draw per instance)",
    )

    costfit = sub.add_parser(
        "costfit", help="fit cost-vs-resources lines from a cost CSV"
    )
    costfit.add_argument("csv_path", metavar="COSTS.CSV")
    costfit.add_argument("--out", metavar="DIR", help="output directory")

    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _merge_settings(args: argparse.Namespace) -> Settings:
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)

    def pick(name: str):
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            return cli_value
        if name in file_values:
            return file_values[name]
        return _DEFAULTS[name]

    demand_range = pick("demand_range")
    if isinstance(demand_range, str):
        demand_range = _parse_range(demand_range)
    reserve_range = pick("reserve_range")
    if isinstance(reserve_range, str):
        reserve_range = _parse_range(reserve_range)
    sweep = pick("sweep")
    if isinstance(sweep, str):
        sweep = _parse_sweep(sweep)

    settings = Settings(
        users=int(pick("users")),
        resources=int(pick("resources")),
        epochs=int(pick("epochs")),
        demand_range=(int(demand_range[0]), int(demand_range[1])),
        per_user_reserve=int(pick("per_user_reserve")),
        seed=int(pick("seed")),
        trials=int(pick("trials")),
        sweep=list(sweep) if sweep else None,
        out=str(pick("out")),
        reserve_range=(int(reserve_range[0]), int(reserve_range[1])),
        independent_reserves=bool(pick("independent_reserves")),
        coefficients=dict(pick("coefficients")),
    )
    if settings.demand_range[0] > settings.demand_range[1]:
        raise ValueError("demand range low exceeds high")
    if settings.reserve_range[0] > settings.reserve_range[1]:
        raise ValueError("reserve range low exceeds high")
    if settings.trials < 1:
        raise ValueError("trials must be at least 1")
    return settings


def _run_all(settings: Settings):
    """Yield (resources, trial, trace) over the sweep/trial grid."""
    model = settings.cost_model()
    for m in settings.sweep_values():
        for trial in range(settings.trials):
            config = settings.sim_config(m, settings.seed + trial)
            yield m, trial, run_simulation(config, model)


def cmd_run(settings: Settings) -> int:
    os.makedirs(settings.out, exist_ok=True)
    all_costs: list[CostRecord] = []
    n_traces = 0
    try:
        for m, trial, trace in _run_all(settings):
            path = os.path.join(settings.out, f"trace_m{m}_trial{trial}.txt")
            write_trace_file(trace, path)
            all_costs.extend(trace.costs)
            n_traces += 1
            print(f"wrote {path} ({len(trace.records)} blocks)")
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    csv_path = os.path.join(settings.out, "costs.csv")
    write_cost_csv(all_costs, csv_path)
    print(f"wrote {csv_path} ({len(all_costs)} cost records)")
    print(f"{n_traces} trace(s) complete")
    return EXIT_OK


def cmd_crosscheck(settings: Settings) -> int:
    os.makedirs(settings.out, exist_ok=True)
    total_claims = 0
    total_matches = 0
    total_epochs = 0
    delta_counts: dict[int, int] = {}
    clamp_events = 0
    try:
        for m, trial, trace in _run_all(settings):
            report = crosscheck_trace(trace)
            clamp_events += trace.clamp_count()
            total_claims += report.claims_checked
            total_matches += report.matches
            total_epochs += report.epochs_checked
            for delta, count in report.delta_counts.items():
                delta_counts[delta] = delta_counts.get(delta, 0) + count
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
    match_rate = 1.0 if total_claims == 0 else total_matches / total_claims
    summary = {
        "epochs_checked": total_epochs,
        "claims_checked": total_claims,
        "matches": total_matches,
        "match_rate": match_rate,
        "clamp_events": clamp_events,
        "fixed_minus_rational_histogram": {
            str(k): v for k, v in sorted(delta_counts.items())
        },
        "max_abs_fixed_minus_rational": max(
            (abs(d) for d in delta_counts), default=0
        ),
    }
    path = os.path.join(settings.out, "crosscheck.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(
        f"checked {total_claims} claims over {total_epochs} epochs: "
        f"match rate {match_rate:.6f}, clamp events {clamp_events}"
    )
    print(f"fixed-vs-rational deltas: {summary['fixed_minus_rational_histogram']}")
    print(f"wrote {path}")
    return EXIT_OK if match_rate == 1.0 else EXIT_VIOLATION


def _wilson_interval(count: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for the proportion count / total.

    Unlike the Wald interval it keeps a positive width at a zero count:
    0 of N gives [0, hi] with hi > 0.
    """
    if total == 0:
        return (0.0, 1.0)
    z = 1.96
    denom = total + z * z
    center = (count + z * z / 2) / denom
    half = z * math.sqrt(count * (total - count) / total + z * z / 4) / denom
    # The ends are exactly 0 and 1 at count 0 and count total; clamp away
    # the rounding error of center - half and center + half there.
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == total else min(1.0, center + half)
    return (lo, hi)


def cmd_stats(settings: Settings) -> int:
    os.makedirs(settings.out, exist_ok=True)
    rng = random.Random(settings.seed)
    low, high = settings.demand_range
    r_low, r_high = settings.reserve_range
    n = settings.users
    m = settings.resources
    total = under = over = exact = under_more = 0
    histogram: dict[int, int] = {}
    for _ in range(settings.trials):
        demands = DemandSet.from_vectors(
            [
                [rng.randint(low, high) for _ in range(m)]
                for _ in range(n)
            ]
        )
        if settings.independent_reserves:
            reserves = ResourceVector(
                rng.randint(r_low, r_high) for _ in range(m)
            )
        else:
            shared = rng.randint(r_low, r_high)
            reserves = ResourceVector((shared,) * m)
        stats = compare_pdrf_drf(demands, reserves)
        total += stats.total
        under += stats.under_by_one
        over += stats.over
        exact += stats.exact
        under_more += stats.under_by_more
        for delta in stats.deltas:
            histogram[delta] = histogram.get(delta, 0) + 1
    summary = {
        "trials": settings.trials,
        "users": n,
        "resources": m,
        "demand_range": list(settings.demand_range),
        "reserve_range": list(settings.reserve_range),
        "reserve_mode": "independent" if settings.independent_reserves else "shared",
        "user_samples": total,
        "under_by_one": {
            "count": under,
            "fraction": under / total if total else 0.0,
            "ci95": list(_wilson_interval(under, total)),
        },
        "over": {
            "count": over,
            "fraction": over / total if total else 0.0,
            "ci95": list(_wilson_interval(over, total)),
        },
        "exact": {
            "count": exact,
            "fraction": exact / total if total else 0.0,
        },
        "under_by_more": under_more,
        "delta_histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    path = os.path.join(settings.out, "stats.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    print(
        f"{settings.trials} instances, {total} user samples: "
        f"under-by-one {summary['under_by_one']['fraction']:.4f} "
        f"(95% CI {summary['under_by_one']['ci95']}), "
        f"over {summary['over']['fraction']:.6f}, "
        f"under by 2+ {under_more}"
    )
    print(f"wrote {path}")
    return EXIT_OK


# Warm-up exclusions by epoch: a user's first two demands land in epochs
# 1 and 2, the first claim in epoch 2; the first two executed epoch
# updates happen at the transitions into epochs 2 and 3.
_WARMUP_MAX_EPOCH = {KIND_DEMAND: 2, KIND_CLAIM: 2, KIND_UPDATE: 3}


def _fit_or_none(points: list[tuple[int, int]]) -> RegressionFit | None:
    try:
        return fit_linear(points)
    except ValueError:
        return None


def costfit_from_records(
    records: Sequence[CostRecord],
) -> dict[str, dict[str, RegressionFit]]:
    """Per-kind fits on stabilized records: raw points and per-m means."""
    fits: dict[str, dict[str, RegressionFit]] = {}
    for kind in (KIND_DEMAND, KIND_CLAIM, KIND_UPDATE):
        stable = [
            rec
            for rec in records
            if rec.call_kind == kind and rec.epoch > _WARMUP_MAX_EPOCH[kind]
        ]
        if not stable:
            continue
        points = [(rec.m, rec.cost_units) for rec in stable]
        by_m: dict[int, list[int]] = {}
        for rec in stable:
            by_m.setdefault(rec.m, []).append(rec.cost_units)
        mean_points = [
            (m, Fraction(sum(costs), len(costs))) for m, costs in sorted(by_m.items())
        ]
        raw_fit = _fit_or_none(points)
        mean_fit = _fit_or_none(mean_points)
        if raw_fit is None or mean_fit is None:
            raise ValueError(
                f"{kind}: need records at two or more distinct resource counts"
            )
        fits[kind] = {"records": raw_fit, "means": mean_fit}
    return fits


def cmd_costfit(csv_path: str, out: str | None) -> int:
    try:
        records = read_cost_csv(csv_path)
    except (OSError, ValueError) as exc:
        print(f"cannot load {csv_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        fits = costfit_from_records(records)
    except ValueError as exc:
        print(f"cannot fit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not fits:
        print("no stabilized cost records found", file=sys.stderr)
        return EXIT_USAGE
    payload: dict[str, dict] = {}
    for kind, pair in fits.items():
        fit = pair["records"]
        mean_fit = pair["means"]
        print(
            f"{kind}: cost = {float(fit.slope):.3f} * m + "
            f"{float(fit.intercept):.3f}  (R^2 = {float(fit.r_squared):.8f}; "
            f"per-m means: {float(mean_fit.slope):.3f} * m + "
            f"{float(mean_fit.intercept):.3f})"
        )
        payload[kind] = {
            "slope": float(fit.slope),
            "intercept": float(fit.intercept),
            "r_squared": float(fit.r_squared),
            "mean_slope": float(mean_fit.slope),
            "mean_intercept": float(mean_fit.intercept),
        }
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "costfit.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "costfit":
            return cmd_costfit(args.csv_path, args.out)
        settings = _merge_settings(args)
        if args.command == "run":
            return cmd_run(settings)
        if args.command == "crosscheck":
            return cmd_crosscheck(settings)
        if args.command == "stats":
            return cmd_stats(settings)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
