import json

import pytest

from fairpool.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, _wilson_interval, main


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_trace_and_costs(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--users", "3",
        "--resources", "2",
        "--epochs", "3",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert (out / "trace_m2_trial0.txt").exists()
    assert (out / "costs.csv").exists()
    assert "1 trace(s) complete" in capsys.readouterr().out


def test_run_sweep_times_trials(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--users", "2",
        "--epochs", "2",
        "--sweep", "2,5,10",
        "--trials", "3",
        "--out", str(out),
    )
    assert code == EXIT_OK
    traces = list(out.glob("trace_*.txt"))
    assert len(traces) == 9


def test_usage_error_exit_code():
    assert run_cli("run", "--demand-range", "9:1", "--out", "/tmp/x") == EXIT_USAGE


def test_unknown_flag_exit_code():
    assert run_cli("run", "--bogus") == EXIT_USAGE


def test_missing_subcommand_exit_code():
    assert run_cli() == EXIT_USAGE


def test_crosscheck_reports_full_match(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "crosscheck",
        "--users", "4",
        "--resources", "3",
        "--epochs", "5",
        "--trials", "2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "match rate 1.000000" in captured
    summary = json.loads((out / "crosscheck.json").read_text())
    assert summary["match_rate"] == 1.0
    assert summary["clamp_events"] == 0
    assert summary["max_abs_fixed_minus_rational"] <= 1


def test_stats_writes_summary(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "stats",
        "--users", "4",
        "--resources", "3",
        "--trials", "200",
        "--seed", "1",
        "--reserve-range", "50:500",
        "--out", str(out),
    )
    assert code == EXIT_OK
    summary = json.loads((out / "stats.json").read_text())
    assert summary["user_samples"] == 800
    assert summary["reserve_mode"] == "shared"
    assert 0.0 <= summary["under_by_one"]["fraction"] <= 1.0
    lo, hi = summary["under_by_one"]["ci95"]
    assert lo <= summary["under_by_one"]["fraction"] <= hi
    assert summary["under_by_more"] == 0


def test_wilson_interval_has_width_at_zero_count():
    for total in (1, 10, 800, 10_000):
        lo, hi = _wilson_interval(0, total)
        assert lo == 0 < hi
        lo, hi = _wilson_interval(total, total)
        assert lo < hi == 1
    assert _wilson_interval(0, 10)[1] == pytest.approx(1.96**2 / (10 + 1.96**2))
    assert _wilson_interval(5, 10) == pytest.approx((0.2366, 0.7634), abs=1e-4)


def test_stats_independent_reserve_mode(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "stats",
        "--users", "3",
        "--resources", "2",
        "--trials", "50",
        "--independent-reserves",
        "--out", str(out),
    )
    assert code == EXIT_OK
    summary = json.loads((out / "stats.json").read_text())
    assert summary["reserve_mode"] == "independent"


def test_costfit_round_trip_recovers_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    # branch surcharge off so demand costs are exactly affine in m
    config.write_text(json.dumps({"coefficients": {"branch_unit": 0}}))
    code = run_cli(
        "run",
        "--users", "3",
        "--epochs", "6",
        "--sweep", "2,5,10",
        "--config", str(config),
        "--out", str(out),
    )
    assert code == EXIT_OK
    capsys.readouterr()
    code = run_cli("costfit", str(out / "costs.csv"), "--out", str(out))
    assert code == EXIT_OK
    fits = json.loads((out / "costfit.json").read_text())
    assert fits["claim"]["slope"] == 15130.0
    assert fits["claim"]["intercept"] == 36486.0
    assert fits["claim"]["r_squared"] == 1.0
    assert fits["demand"]["slope"] == 13616.0
    assert fits["demand"]["intercept"] == 47245.0
    assert fits["demand"]["r_squared"] == 1.0
    assert fits["update_state"]["slope"] == 11295.0
    assert fits["update_state"]["intercept"] == 23539.0


def test_costfit_insufficient_m_values(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--users", "2", "--epochs", "4", "--out", str(out)
    )
    assert code == EXIT_OK
    capsys.readouterr()
    # single m in the CSV cannot anchor a line
    assert run_cli("costfit", str(out / "costs.csv")) == EXIT_USAGE


def test_costfit_missing_file():
    assert run_cli("costfit", "/nonexistent/costs.csv") == EXIT_USAGE


def test_config_file_with_flag_override(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"users": 2, "epochs": 2, "resources": 4, "out": str(out)})
    )
    code = run_cli("run", "--config", str(config), "--resources", "3")
    assert code == EXIT_OK
    assert (out / "trace_m3_trial0.txt").exists()


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"userz": 2}))
    assert run_cli("run", "--config", str(config)) == EXIT_USAGE


def test_config_file_invalid_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{broken")
    assert run_cli("run", "--config", str(config)) == EXIT_USAGE


def test_unwritable_output_path(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    code = run_cli(
        "run", "--users", "1", "--epochs", "1", "--out", str(blocker / "sub")
    )
    assert code == EXIT_USAGE
    assert "cannot write output" in capsys.readouterr().err


def test_exit_codes_are_distinct():
    assert EXIT_OK == 0
    assert EXIT_USAGE == 1
    assert EXIT_VIOLATION == 2
