import gc
import hashlib
import json
import weakref

import pytest

from fairpool import AllocationMachine, chainsim, cli
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


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_each_trace_is_dropped_before_the_next_run(tmp_path, monkeypatch, command):
    original, traces = cli.run_simulation, []

    def tracked(config, model):
        gc.collect()
        assert all(ref() is None for ref in traces)
        trace = original(config, model)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, "run_simulation", tracked)
    argv = ["--users", "3", "--epochs", "3", "--sweep", "2,3", "--trials", "2"]
    assert run_cli(command, *argv, "--out", str(tmp_path / "out")) == EXIT_OK
    assert len(traces) == 4


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


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("--no-independent-reserves",
         "4079f25b08acef192bb3112f725ae6db18e9184be59944a7e87635d7fbd51987"),
        ("--independent-reserves",
         "b692630979bdab22a4dd2874e803bc120c62996c54c9061b227f1031db96b311"),
    ],
    ids=["shared", "independent"],
)
def test_stats_json_golden_digest(tmp_path, mode, digest):
    # Pins every count, rate and histogram bin of two seeded comparisons
    # of the DRF loop and precomputed DRF, so a rewrite of the allocator
    # core that changes any task count changes the file.
    out = tmp_path / "out"
    argv = ["--users", "10", "--resources", "4", "--trials", "400", "--seed", "3"]
    assert run_cli("stats", *argv, mode, "--out", str(out)) == EXIT_OK
    assert hashlib.sha256((out / "stats.json").read_bytes()).hexdigest() == digest


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
    code = run_cli(
        "costfit", str(out / "costs.csv"), "--out", str(out), "--gas-limit", "30000000"
    )
    assert code == EXIT_OK
    # The published lines under a 30,000,000 block gas limit, as README states.
    lines = capsys.readouterr().out.splitlines()
    for kind, m in (("demand", 2199), ("claim", 1980), ("update_state", 2653)):
        assert f"{kind}: largest m with fitted cost <= 30000000: {m}" in lines
    fits = json.loads((out / "costfit.json").read_text())
    assert fits["claim"]["slope"] == 15130.0
    assert fits["claim"]["intercept"] == 36486.0
    assert fits["claim"]["r_squared"] == 1.0
    assert fits["demand"]["slope"] == 13616.0
    assert fits["demand"]["intercept"] == 47245.0
    assert fits["demand"]["r_squared"] == 1.0
    assert fits["update_state"]["slope"] == 11295.0
    assert fits["update_state"]["intercept"] == 23539.0


def test_costfit_fits_updates_from_epoch_3(tmp_path, capsys):
    # Only the transition into epoch 2 carries update_setup, so a
    # three-epoch run's epoch-3 updates are stabilized records.
    out = tmp_path / "out"
    code = run_cli(
        "run", "--users", "3", "--epochs", "3", "--sweep", "2,3", "--out", str(out)
    )
    assert code == EXIT_OK
    capsys.readouterr()
    assert run_cli("costfit", str(out / "costs.csv")) == EXIT_OK
    assert "update_state: cost = 11295.000 * m + 23539.000" in capsys.readouterr().out


def test_costfit_recovers_every_override_through_the_warm_up(tmp_path, capsys):
    # Every setup surcharge is on, and costfit skips the epochs that pay
    # them, so each kind's fit is its override line exactly.
    out = tmp_path / "out"
    coefficients = {
        "claim": [7, 11],
        "demand": [5, 3],
        "update_state": [2, 9],
        "branch_unit": 0,
        "demand_setup": 1000,
        "claim_setup": 700,
        "update_setup": 300,
    }
    code = run_cli(
        "run",
        "--users", "3",
        "--epochs", "5",
        "--sweep", "2,5,10",
        "--coefficients", json.dumps(coefficients),
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert run_cli("costfit", str(out / "costs.csv"), "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    fits = json.loads((out / "costfit.json").read_text())
    assert sorted(fits) == ["claim", "demand", "update_state"]
    for kind, fit in fits.items():
        assert list(fit) == ["slope", "intercept", "r_squared"]  # one fit per kind
        assert [fit["slope"], fit["intercept"]] == coefficients[kind]
        assert fit["r_squared"] == 1.0


def test_costfit_insufficient_m_values(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--users", "2", "--epochs", "4", "--out", str(out)
    )
    assert code == EXIT_OK
    capsys.readouterr()
    # single m in the CSV cannot anchor a line
    assert run_cli("costfit", str(out / "costs.csv")) == EXIT_USAGE


@pytest.mark.parametrize(
    "limit, demand, claim",
    [
        ("29", "2", "none"),  # demand costs 30 at m = 3
        ("30", "3", "none"),  # a cost equal to the limit fits
        ("50", "5", "unbounded"),  # claim's flat line fits every m
    ],
)
def test_costfit_gas_limit_largest_m(tmp_path, capsys, limit, demand, claim):
    # Epoch 3 is past every warm-up, so each row is a stabilized record:
    # demand costs 10 * m, claim a flat 50, update_state falls with m.
    path = tmp_path / "costs.csv"
    rows = [
        "demand,1,3,0,10", "demand,2,3,0,20",
        "claim,1,3,0,50", "claim,2,3,0,50",
        "update_state,1,3,0,30", "update_state,2,3,0,20",
    ]
    path.write_text("call_kind,m,epoch,user,cost_units\n" + "\n".join(rows) + "\n")
    assert run_cli("costfit", str(path), "--gas-limit", limit) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1::2] == [
        f"demand: largest m with fitted cost <= {limit}: {demand}",
        f"claim: largest m with fitted cost <= {limit}: {claim}",
        f"update_state: largest m with fitted cost <= {limit}: unbounded",
    ]


@pytest.mark.parametrize("limit", ["0", "-5", "1.5"])
def test_costfit_gas_limit_must_be_a_positive_integer(tmp_path, capsys, limit):
    path = tmp_path / "costs.csv"
    path.write_text("call_kind,m,epoch,user,cost_units\nclaim,1,3,0,50\n")
    assert run_cli("costfit", str(path), "--gas-limit", limit) == EXIT_USAGE
    assert "--gas-limit: expected a positive integer" in capsys.readouterr().err


def test_costfit_missing_file():
    assert run_cli("costfit", "/nonexistent/costs.csv") == EXIT_USAGE


@pytest.mark.parametrize(
    "row, message",
    [
        ("claim,5", "line 2: expected 5 fields"),
        ("claim,5,2,0,100,7", "line 2: expected 5 fields"),
        ("claim,x,2,0,100", "line 2: invalid literal"),
    ],
)
def test_costfit_malformed_row_is_one_error_line(tmp_path, capsys, row, message):
    path = tmp_path / "costs.csv"
    path.write_text(f"call_kind,m,epoch,user,cost_units\n{row}\n")
    assert run_cli("costfit", str(path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message in err


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


# --- flags and config files go through the same parsers ---------------------

# Small sizes each subcommand starts from; a row's setting replaces its own.
_BASE = {
    "run": {"users": "2", "epochs": "2"},
    "crosscheck": {"users": "2", "epochs": "3"},
    "stats": {"users": "3", "trials": "20"},
}


def _outputs(tmp_path, name, command, skip, extra, config=None):
    out = tmp_path / name
    argv = [command, "--out", str(out)]
    for key, value in _BASE[command].items():
        if key != skip:
            argv += ["--" + key, value]
    if config is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run_cli(*argv, *extra) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize(
    "command, key, flag, value",
    [
        ("run", "users", ["--users", "3"], 3),
        ("run", "resources", ["--resources", "3"], 3),
        ("run", "epochs", ["--epochs", "3"], 3),
        ("run", "demand_range", ["--demand-range", "2:5"], [2, 5]),
        ("run", "demand_range", ["--demand-range", "2:5"], "2:5"),
        ("run", "per_user_reserve", ["--per-user-reserve", "40"], 40),
        ("run", "seed", ["--seed", "7"], 7),
        ("run", "trials", ["--trials", "2"], 2),
        ("run", "sweep", ["--sweep", "2,3"], [2, 3]),
        (
            "run",
            "coefficients",
            ["--coefficients", '{"claim": [1, 2]}'],
            {"claim": [1, 2]},
        ),
        ("crosscheck", "users", ["--users", "3"], 3),
        ("crosscheck", "sweep", ["--sweep", "1,3"], "1,3"),
        ("stats", "resources", ["--resources", "3"], 3),
        ("stats", "demand_range", ["--demand-range", "2:5"], [2, 5]),
        ("stats", "trials", ["--trials", "30"], 30),
        ("stats", "reserve_range", ["--reserve-range", "10:20"], [10, 20]),
        ("stats", "independent_reserves", ["--independent-reserves"], True),
    ],
)
def test_flag_and_config_give_identical_outputs(
    tmp_path, capsys, command, key, flag, value
):
    by_flag = _outputs(tmp_path, "flag", command, key, flag)
    by_config = _outputs(tmp_path, "config", command, key, [], {key: value})
    assert by_flag == by_config
    assert by_flag != _outputs(tmp_path, "base", command, None, [])


@pytest.mark.parametrize(
    "argv, config",
    [
        (["run"], {"sweep": [3, 3]}),
        (["stats"], {"independent_reserves": "false"}),
        (["run"], {"users": 2.9}),
        (["run"], {"coefficients": {"claim": 5}}),
        (["run"], {"coefficients": [1, 2]}),
        (["stats"], {"epochs": 3}),
        (["crosscheck"], {"coefficients": {}}),
        (["run"], {"reserve_range": [1, 2]}),
        (["run"], {"config": "other.json"}),
        (["run", "--sweep", "3,3"], None),
        (["run", "--users", "2.9"], None),
        (["run", "--coefficients", '{"claim": 5}'], None),
        (["crosscheck", "--coefficients", "{}"], None),
        (["stats", "--sweep", "2,5", "--epochs", "99"], None),
        (["stats", "--users", "0"], None),
        (["stats", "--per-user-reserve", "5"], None),
        (["stats", "--demand-range", "0:1"], None),
        (["stats", "--reserve-range", "0:1"], None),
        (["crosscheck", "--demand-range", "0:3"], None),
        (["run", "--per-user-reserve", "-1"], None),
        (["stats"], {"demand_range": [0, 2]}),
        (["run", "--per-user-reserve", "0"], None),
        (["crosscheck"], {"per_user_reserve": 0}),
    ],
)
def test_bad_settings_exit_1_without_traceback(tmp_path, capsys, argv, config):
    extra = ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra += ["--config", str(path)]
    assert run_cli(*argv, *extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_flag_overrides_config_boolean(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"independent_reserves": True}))
    code = run_cli(
        "stats", "--trials", "5", "--config", str(config),
        "--no-independent-reserves", "--out", str(out),
    )
    assert code == EXIT_OK
    assert json.loads((out / "stats.json").read_text())["reserve_mode"] == "shared"


# --- streamed cost CSV and exit 2 ---------------------------------------------


def test_run_streams_the_same_cost_csv(tmp_path, capsys):
    # sha256 of the costs.csv written when every trace's rows were kept
    # until the sweep ended.
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--users", "3",
        "--epochs", "4",
        "--sweep", "2,3",
        "--trials", "2",
        "--seed", "5",
        "--coefficients",
        '{"demand_setup": 1000, "claim_setup": 700, "update_setup": 300}',
        "--out", str(out),
    )
    assert code == EXIT_OK
    digest = hashlib.sha256((out / "costs.csv").read_bytes()).hexdigest()
    assert digest == "d81b7065c503328224bf56ffacd1452030bb7c4ba7b691867d9a484e47af5bb9"
    lines = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
    assert lines == [
        *(
            f"wrote OUT/trace_m{m}_trial{t}.txt (24 blocks)"
            for m in (2, 3)
            for t in (0, 1)
        ),
        "wrote OUT/costs.csv (96 cost records)",
        "4 trace(s) complete",
    ]


def _credit_claimer_at(monkeypatch, at_block, resources):
    """Credit one unit to the caller of the claim at ``at_block`` on
    machines with ``resources`` resources."""
    original = AllocationMachine.claim

    def faulty(self, user, block):
        receipt = original(self, user, block)
        if block == at_block and self.config.resource_count == resources:
            i = self._users[user]
            balance = self._balance[i]
            self._balance[i] = (balance[0] + 1, *balance[1:])
        return receipt

    monkeypatch.setattr(AllocationMachine, "claim", faulty)


# 4 users, 4 epochs: block 11 is user 2's first claim.
_FAULT_ARGS = ["--users", "4", "--epochs", "4", "--seed", "15", "--sweep", "3,2"]


@pytest.mark.parametrize(
    "command, output", [("run", "costs.csv"), ("crosscheck", "crosscheck.json")]
)
def test_simulation_error_exits_2_without_summary(
    tmp_path, capsys, monkeypatch, command, output
):
    # The m = 3 run completes; the m = 2 run fails at block 11.
    _credit_claimer_at(monkeypatch, 11, 2)
    out = tmp_path / "out"
    assert run_cli(command, *_FAULT_ARGS, "--out", str(out)) == EXIT_VIOLATION
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: block 11: conservation identity violated")
    assert not (out / output).exists()
    assert (out / "trace_m3_trial0.txt").exists() == (command == "run")


def test_crosscheck_mismatch_exits_2_without_summary(tmp_path, capsys, monkeypatch):
    original = chainsim.reference_task_counts
    monkeypatch.setattr(
        chainsim,
        "reference_task_counts",
        lambda demands, pool: {u: t + 1 for u, t in original(demands, pool).items()},
    )
    out = tmp_path / "out"
    code = run_cli("crosscheck", *_FAULT_ARGS, "--out", str(out))
    assert code == EXIT_VIOLATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("MISMATCH at m=3 trial=0 epoch=2 user=0: machine=")
    assert not (out / "crosscheck.json").exists()


def test_crosscheck_json_golden_digest(tmp_path):
    # 90 epochs and 900 claims, histogram {-1: 4, 0: 896}.
    out = tmp_path / "out"
    argv = ["--users", "10", "--sweep", "2,5,10", "--trials", "3"]
    assert run_cli("crosscheck", *argv, "--out", str(out)) == EXIT_OK
    assert hashlib.sha256((out / "crosscheck.json").read_bytes()).hexdigest() == (
        "2e05d6093b0982390e402e44c351ed3387fb9d3788d4123f1529c5cb8ce3d13f"
    )


def test_costfit_on_warm_up_rows_only_finds_nothing_to_fit(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--users", "3", "--epochs", "2", "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    assert run_cli("costfit", str(out / "costs.csv")) == EXIT_USAGE
    assert capsys.readouterr().err == "no stabilized cost records found\n"


def test_demand_range_that_is_not_numeric_exits_1(tmp_path, capsys):
    code = run_cli("run", "--demand-range", "a:b", "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert "expected LO:HI, got 'a:b'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "configuration error: cannot read config file: "),
        ("[1]", "configuration error: config file must hold a JSON object"),
    ],
    ids=["missing", "list"],
)
def test_config_file_that_cannot_be_used_exits_1(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()
