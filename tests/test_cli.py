"""Config loading, the four subcommands, artifact formats, and exit codes."""

import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from emsched import cli
from emsched.cli import _SWEEP_COLUMNS, ExperimentSpec, SweepAxes, load_experiment, main, run_sweep
from emsched.model import ConfigurationError, CostModel, validate_config
from emsched.scenario import Trace, generate_trace, load_trace, save_trace
from emsched.simulator import run_policy

REPO = Path(__file__).resolve().parent.parent
SMALL = REPO / "configs" / "small.yaml"
# The benchmark's configs are named, not globbed, so that losing one fails.
BENCH_CONFIGS = [REPO / "bench" / "configs" / "day.yaml", REPO / "bench" / "configs" / "desk.yaml"]
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.yaml")) + BENCH_CONFIGS


def small_config(tmp_path, **overrides):
    """Copy of the checked-in small config with section-level overrides."""
    cfg = yaml.safe_load(SMALL.read_text())
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        cfg[section][key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_summary(path):
    pairs = dict(line.split("=", 1) for line in Path(path).read_text().splitlines())
    return {k: v if k in ("policy",) else float(v) for k, v in pairs.items()}


class TestLoadExperiment:
    def test_small_config_round_trips(self):
        spec = load_experiment(SMALL)
        assert spec.bundle.horizon == 24
        assert spec.profile.slot_minutes == 60
        assert spec.profile.max_delay == 6
        assert spec.bundle.weights.d_avg_max == 6
        assert spec.policies == ("joint", "storage_only", "no_storage")
        assert spec.replications == 5
        assert spec.seed_base == 0
        assert spec.out_dir == "out/small"
        assert spec.workers == 1
        assert spec.frame_length == 4
        assert spec.oracle_energy_step == 0.015
        assert spec.equivalence_states == 300
        assert spec.k_u == 0.2 and spec.k_d is None
        assert spec.trace_path is None
        assert spec.sweep == SweepAxes(d_avg_max=(2, 4, 6), max_delay=(6,),
                                       b_max=(3.0,), alpha=(1.0,), mu=(1.0,))

    def test_unknown_key_names_its_section(self, tmp_path):
        path = small_config(tmp_path, **{"scenario.price_floor": 1})
        with pytest.raises(ConfigurationError, match=r"scenario\.price_floor"):
            load_experiment(path)

    def test_missing_horizon_is_named(self, tmp_path):
        cfg = yaml.safe_load(SMALL.read_text())
        del cfg["scenario"]["horizon"]
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigurationError, match=r"scenario\.horizon"):
            load_experiment(path)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = yaml.safe_load(SMALL.read_text())
        cfg["extras"] = {"x": 1}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigurationError, match="extras"):
            load_experiment(path)

    def test_unknown_sweep_axis_rejected(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.sweep": {"voltage": [1.0]}})
        with pytest.raises(ConfigurationError, match=r"experiment\.sweep\.voltage"):
            load_experiment(path)

    def test_empty_sweep_axis_rejected(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.sweep": {"alpha": []}})
        with pytest.raises(ConfigurationError, match="must not be empty"):
            load_experiment(path)

    def test_unknown_policy_rejected(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.policies": ["joint", "oracle"]})
        with pytest.raises(ConfigurationError, match="unknown policy 'oracle'"):
            load_experiment(path)

    def test_zero_replications_rejected(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.replications": 0})
        with pytest.raises(ConfigurationError, match="replications"):
            load_experiment(path)

    def test_parameter_invariants_are_enforced(self, tmp_path):
        path = small_config(tmp_path, **{"battery.b_max": 0.5})
        with pytest.raises(ConfigurationError, match="V_max"):
            load_experiment(path)

    def test_scalar_sweep_values_become_single_point_axes(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.sweep": {"alpha": 0.25}})
        spec = load_experiment(path)
        assert spec.sweep.alpha == (0.25,)

    def test_profile_hour_windows_parse_from_lists(self, tmp_path):
        path = small_config(tmp_path, **{
            "scenario.profile": {
                "slot_minutes": 60, "duration_min": 1, "duration_max": 4,
                "max_delay": 6, "high_hours": [[16, 20]],
            }
        })
        spec = load_experiment(path)
        assert spec.profile.high_hours == ((16.0, 20.0),)


SMALL_PROFILE = yaml.safe_load(SMALL.read_text())["scenario"]["profile"]

# (override of small.yaml, value, the dotted key the error must name)
MALFORMED = [
    ("scenario.horizon", "abc", "scenario.horizon"),
    ("battery.b_max", "big", "battery.b_max"),
    ("grid.e_max", [1], "grid.e_max"),
    ("costs.k_d", "x", "costs.k_d"),
    ("weights.d_avg_max", 6.5, "weights.d_avg_max"),
    ("experiment.replications", "x", "experiment.replications"),
    ("experiment.z0_mode", "bogus", "experiment.z0_mode"),
    ("experiment.sweep", {"d_avg_max": [4.7]}, "experiment.sweep.d_avg_max"),
    # a config cannot ask for a trace file's own caps: only an absent axis keeps them
    ("experiment.sweep", {"max_delay": [None]}, "experiment.sweep.max_delay"),
    ("scenario.profile", {"price_high": 0.05}, "scenario.profile"),
]
MALFORMED_CASES = [pytest.param(*case, id=case[2]) for case in MALFORMED] + [
    # hour windows must satisfy 0 <= start < end <= 24
    pytest.param("scenario.profile", {name: windows}, "scenario.profile", id=f"scenario.profile.{name}-{why}")
    for name, windows, why in [
        ("high_hours", [[20, 16]], "reversed"),
        ("high_hours", [[11, 11]], "empty"),
        ("mid_hours", [[-1, 7]], "before-midnight"),
        ("mid_hours", [[7, 11], [17, 25]], "past-midnight"),
    ]
] + [
    # well-typed values outside their range
    pytest.param(key, value, key, id=f"{key}={value}")
    for key, value in [
        ("experiment.frame_length", 0),
        ("experiment.oracle_energy_step", 0),
        ("experiment.equivalence_states", -5),
        ("experiment.seed_base", -1),  # numpy refuses a negative seed
        ("experiment.z0_mode", "zero"),  # the battery queue has one origin
        ("experiment.workers", 2),  # the commands run in one process
        ("experiment.workers", 0),
        ("costs.k_u", -0.2),  # a concave usage cost
        ("costs.k_d", -1.0),  # a concave delay cost
        ("costs.k_u", math.nan),
        ("costs.k_d", math.inf),
    ]
] + [
    # NaN fails every range check: each is written as the condition that must hold
    pytest.param(key, math.nan, name, id=f"{key}=nan")
    for key, name in [
        ("battery.c_rc", "c_rc"),
        ("battery.d_max_rate", "d_max_rate"),
        ("grid.e_max", "e_max"),
        ("weights.alpha", "alpha"),
        ("weights.mu", "mu"),
        ("weights.v", "v must be >= 0"),
        ("weights.delta_u", "delta_u"),
    ]
] + [
    # and so does an infinite value: each is checked as finite and in range
    pytest.param(key, math.inf, name, id=f"{key}=inf")
    for key, name in [
        ("weights.alpha", "alpha must be > 0 and finite"),
        ("weights.v", "v must be >= 0 and finite"),
        ("weights.mu", "mu must be > 0 and finite"),
        ("battery.b_max", "b_max"),
        ("battery.c_rc", "c_rc"),
        ("battery.r_max", "r_max must be > 0 and finite"),
        ("grid.e_max", "e_max must be > 0 and finite"),
        ("grid.p_max", "p_max"),
        ("experiment.oracle_energy_step", "experiment.oracle_energy_step"),
    ]
] + [
    # a profile error names the mean or ratio, not only the section
    pytest.param(
        "scenario.profile", {**SMALL_PROFILE, name: value}, f"scenario.profile: {name}",
        id=f"scenario.profile.{name}={value}",
    )
    for name in ("solar_std_ratio", "load_std_ratio", "solar_mean_high", "load_mean_low")
    for value in (math.nan, math.inf, -0.5)
] + [
    # so does a price stage, before the stages' order is checked
    pytest.param(
        "scenario.profile", {**SMALL_PROFILE, name: value}, f"scenario.profile: {name}",
        id=f"scenario.profile.{name}={value}",
    )
    for name, value in (("price_high", math.inf), ("price_low", -0.05))
]


class TestMalformedValues:
    @pytest.mark.parametrize(("override", "value", "key"), MALFORMED_CASES)
    def test_is_a_config_error_naming_the_key(self, tmp_path, capsys, override, value, key):
        path = small_config(tmp_path, **{override: value})
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            load_experiment(path)
        for command in ("run", "sweep", "verify"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and key in err
        assert not (tmp_path / "out").exists()

    def test_an_infinite_delay_coefficient_at_a_zero_delay_target(self, tmp_path, capsys):
        # validate_config probes the delay cost's slope only when d_avg_max > 0
        path = small_config(tmp_path, **{"costs.k_d": math.inf, "weights.d_avg_max": 0})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "costs.k_d must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_rate_limits_are_named_not_a_traceback(self, tmp_path, capsys):
        # validate_config probes the usage cost's slope at max(r_max, d_max_rate) = -0.1
        path = small_config(tmp_path, **{"battery.r_max": -0.1, "battery.d_max_rate": -0.1})
        for command in ("run", "sweep", "verify", "gen-trace"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "charge rate limit r_max must be > 0" in err
        assert not (tmp_path / "out").exists()

    def test_a_zero_price_band_with_a_flat_usage_cost_is_named_not_a_traceback(self, tmp_path, capsys):
        # V_max = headroom / (p_max + C_u'(max(r_max, d_max_rate))) would divide by zero
        profile = yaml.safe_load(SMALL.read_text())["scenario"]["profile"]
        path = small_config(tmp_path, **{
            "scenario.profile": {**profile, "price_high": 0.0, "price_mid": 0.0, "price_low": 0.0},
            "grid.p_min": 0.0, "grid.p_max": 0.0, "costs.k_u": 0.0,
        })
        for command in ("run", "sweep", "verify"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                "config error: V_max has no finite value: p_max + C_u'(max(r_max, d_max_rate)) = 0.0 <= 0\n"
            )
        assert not (tmp_path / "out").exists()

    def test_a_frame_too_long_to_enumerate_exits_2_before_building_it(self, tmp_path):
        # Each 12-slot frame of small.yaml has 592,950,960 delay combinations, so
        # no energy step fits. They are counted, not built: under a 2 GiB address
        # space cap, verify exits 2 naming the frame length instead of running out.
        path = small_config(tmp_path, **{"experiment.frame_length": 12})
        code = ("import resource, sys; from emsched.cli import main; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); sys.exit(main(sys.argv[1:]))")
        pythonpath = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", code, "verify", "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("config error: experiment.frame_length=12: search space of ~")
        assert "shorten experiment.frame_length" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_a_scalar_policy_is_one_policy(self, tmp_path):
        path = small_config(tmp_path, **{"experiment.policies": "joint"})
        assert load_experiment(path).policies == ("joint",)

    def test_integral_numbers_fill_int_fields(self, tmp_path):
        path = small_config(tmp_path, **{"scenario.horizon": 24.0})
        horizon = load_experiment(path).bundle.horizon
        assert horizon == 24 and type(horizon) is int


def readme_config_example() -> str:
    """The ```yaml block under the README's "Configuration" heading."""
    section = (REPO / "README.md").read_text().split("\n## Configuration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```yaml\n", 1)[1].split("\n```", 1)[0]


@pytest.mark.parametrize(
    "source", [*SHIPPED_CONFIGS, "README.md"],
    ids=lambda s: s if isinstance(s, str) else str(s.relative_to(REPO)),
)
def test_shipped_and_documented_configs_load(source, tmp_path):
    """The config schema has not drifted from the files and docs that use it."""
    if source == "README.md":
        source = tmp_path / "readme.yaml"
        source.write_text(readme_config_example())
    assert isinstance(load_experiment(source), ExperimentSpec)


class TestMainExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "missing file" in capsys.readouterr().err

    def test_yaml_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: [unclosed\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_mapping_config(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "must be a mapping" in capsys.readouterr().err

    def test_infeasible_seed_exits_3(self, tmp_path, capsys):
        # seed 8 spikes demand above e_max on the desk-scale profile
        for command in ("run", "verify"):
            rc = main([command, "--config", str(SMALL), "--seed", "8",
                       "--out", str(tmp_path / command)])
            assert rc == 3
            assert "infeasible run" in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "verify", "gen-trace"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(SMALL), "--seed", "-1", "--out", str(out)]) == 2
        assert "experiment.seed_base (--seed) must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as err:
            main(["explode", "--config", str(SMALL)])
        assert err.value.code == 2


class TestSharedParser:
    """`main` parses with one parser built at import; no call leaves state in
    it that a later call in the same process would read."""

    def test_calls_in_one_process_keep_their_own_flags(self, tmp_path, capsys):
        config = small_config(tmp_path, **{"experiment.seed_base": 7})
        runs = [tmp_path / "run_seed3", tmp_path / "run_default", tmp_path / "trace"]
        assert main(["run", "--config", str(config), "--seed", "3", "--out", str(runs[0])]) == 0
        assert main(["run", "--config", str(config), "--out", str(runs[1])]) == 0
        assert main(["gen-trace", "--config", str(config), "--out", str(runs[2])]) == 0

        assert read_summary(runs[0] / "summary.txt")["seed"] == 3
        assert read_summary(runs[1] / "summary.txt")["seed"] == 7
        assert (runs[0] / "records.csv").read_bytes() != (runs[1] / "records.csv").read_bytes()
        for out in runs[:2]:
            assert sorted(p.name for p in out.iterdir()) == ["records.csv", "summary.txt"]
        assert [p.name for p in runs[2].iterdir()] == ["trace_seed7.csv"]

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "gen-trace" in capsys.readouterr().out


def four_slot_trace_config(tmp_path):
    """The small config pointed at a trace file of 4 rows, not the 24 it declares."""
    spec = load_experiment(SMALL)
    trace = generate_trace(spec.profile, spec.bundle.horizon, 0)
    save_trace(Trace(slots=trace.slots[:4]), tmp_path / "short.csv")
    return small_config(tmp_path, **{"scenario.trace": str(tmp_path / "short.csv")})


def overpriced_trace_config(tmp_path):
    """The small config with a high-tariff price above grid.p_max (0.118)."""
    cfg = yaml.safe_load(SMALL.read_text())
    cfg["scenario"]["profile"]["price_high"] = 0.2
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestTraceCheck:
    """Every command rejects a trace that does not fit the config the same way."""

    CASES = [
        (four_slot_trace_config, "trace has 4 slots but scenario.horizon is 24"),
        (overpriced_trace_config, "trace problem: slot 11: price 0.2 outside [0.063, 0.118]"),
    ]

    @pytest.mark.parametrize(("make_config", "problem"), CASES, ids=["four_rows", "price_above_p_max"])
    def test_run_and_verify_exit_2_naming_the_problem(self, tmp_path, capsys, make_config, problem):
        path = make_config(tmp_path)
        for command in ("run", "verify"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and problem in err
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize(("make_config", "problem"), CASES, ids=["four_rows", "price_above_p_max"])
    def test_sweep_writes_error_rows(self, tmp_path, capsys, make_config, problem):
        path = make_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "(45 rows errored)" in capsys.readouterr().out
        rows = list(csv.DictReader(open(tmp_path / "out" / "sweep.csv")))
        assert len(rows) == 45
        for r in rows:
            assert r["error"].startswith(f"ConfigurationError: {problem}")
            assert r["total"] == ""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--config", str(SMALL), "--out", str(out)]) == 0
    return out


class TestRunCommand:
    def test_writes_records_and_summary(self, run_dir):
        assert (run_dir / "records.csv").exists()
        assert (run_dir / "summary.txt").exists()

    def test_record_header_is_the_documented_schema(self, run_dir):
        header = (run_dir / "records.csv").read_text().splitlines()[0]
        assert header == ("slot,price,renewable,demand,E,Q,D,S_w,S_r,"
                          "delay,B,Z,X,H_u,H_d,regime")

    def test_summary_has_the_documented_keys(self, run_dir):
        summary = read_summary(run_dir / "summary.txt")
        expected = {
            "policy", "seed", "horizon", "slots_simulated", "drain_slots",
            "a_o", "v", "v_max",
            "j_bar", "entry_bar", "usage_avg", "usage_cost",
            "delay_avg", "delay_cost", "total", "monetary_cost",
            "j_bar_inclusive", "entry_bar_inclusive", "usage_avg_inclusive",
            "total_inclusive", "epsilon_u",
            "b_horizon", "z_horizon", "x_horizon", "h_u_horizon", "h_d_horizon",
            "b_final",
        }
        assert set(summary) == expected
        assert summary["policy"] == "joint"
        assert summary["horizon"] == 24

    def test_records_recompose_the_summary_totals(self, run_dir):
        """records.csv and summary.txt must describe the same run."""
        summary = read_summary(run_dir / "summary.txt")
        horizon = int(summary["horizon"])
        rows = list(csv.DictReader(open(run_dir / "records.csv")))
        assert len(rows) == int(summary["slots_simulated"])
        in_horizon = [r for r in rows if int(r["slot"]) < horizon]
        assert len(in_horizon) == horizon

        j = sum(float(r["price"]) * float(r["E"]) for r in in_horizon) / horizon
        usage = sum(abs(float(r["Q"]) + float(r["S_r"]) - float(r["D"]))
                    for r in in_horizon) / horizon
        entry = sum(0.001 * ((float(r["Q"]) + float(r["S_r"]) > 0.0)
                             + (float(r["D"]) > 0.0))
                    for r in in_horizon) / horizon
        delay_avg = sum(int(r["delay"]) for r in in_horizon) / horizon
        total = j + entry + 0.2 * usage**2 + (1.0 / 36.0) * delay_avg**2

        assert j == pytest.approx(summary["j_bar"], rel=1e-6)
        assert usage == pytest.approx(summary["usage_avg"], rel=1e-6)
        assert delay_avg == pytest.approx(summary["delay_avg"], rel=1e-12)
        assert total == pytest.approx(summary["total"], rel=1e-6)

    def test_monetary_excludes_only_the_delay_term(self, run_dir):
        summary = read_summary(run_dir / "summary.txt")
        assert summary["monetary_cost"] == pytest.approx(
            summary["total"] - summary["delay_cost"], abs=1e-15
        )

    def test_seed_flag_changes_the_trace(self, run_dir, tmp_path):
        assert main(["run", "--config", str(SMALL), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        other = (tmp_path / "records.csv").read_text()
        base = (run_dir / "records.csv").read_text()
        assert other.splitlines()[0] == base.splitlines()[0]
        assert other != base
        assert read_summary(tmp_path / "summary.txt")["seed"] == 5

    def test_env_var_supplies_the_output_directory(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("EMSCHED_OUT", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(SMALL)]) == 0
        assert (env_dir / "summary.txt").exists()

    def test_out_flag_beats_the_env_var(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("EMSCHED_OUT", str(env_dir))
        assert main(["run", "--config", str(SMALL), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "summary.txt").exists()
        assert not env_dir.exists()


class TestGenTrace:
    def test_written_trace_matches_direct_generation(self, tmp_path):
        assert main(["gen-trace", "--config", str(SMALL), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "trace_seed5.csv"
        spec = load_experiment(SMALL)
        loaded = load_trace(path)
        assert loaded == generate_trace(spec.profile, 24, 5)

    def test_run_accepts_a_pregenerated_trace(self, tmp_path):
        assert main(["gen-trace", "--config", str(SMALL), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        cfg_path = small_config(
            tmp_path, **{"scenario.trace": str(tmp_path / "trace_seed5.csv")}
        )
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        direct = tmp_path / "direct"
        assert main(["run", "--config", str(SMALL), "--seed", "5",
                     "--out", str(direct)]) == 0
        assert (out / "records.csv").read_text() == (direct / "records.csv").read_text()


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "--config", str(SMALL), "--out", str(out)]) == 0
    text = (out / "sweep.csv").read_text()
    return text, list(csv.DictReader(text.splitlines()))


class TestSweepCommand:
    def test_header_and_row_count(self, sweep_rows):
        text, rows = sweep_rows
        assert text.splitlines()[0] == ",".join(_SWEEP_COLUMNS)
        # 3 d_avg_max values x 5 replications x 3 policies
        assert len(rows) == 45

    def test_rows_cover_the_whole_grid(self, sweep_rows):
        _, rows = sweep_rows
        combos = {(r["d_avg_max"], r["replication"], r["policy"]) for r in rows}
        assert len(combos) == 45
        assert {r["d_avg_max"] for r in rows} == {"2", "4", "6"}
        assert {r["policy"] for r in rows} == {"joint", "storage_only", "no_storage"}

    def test_successful_rows_carry_consistent_costs(self, sweep_rows):
        _, rows = sweep_rows
        clean = [r for r in rows if not r["error"]]
        assert clean
        for r in clean:
            total = float(r["J"]) + float(r["entry"]) + float(r["usage_cost"]) + float(r["delay_cost"])
            assert math.isclose(total, float(r["total"]), rel_tol=1e-12)
            assert math.isclose(float(r["monetary"]),
                                float(r["total"]) - float(r["delay_cost"]), rel_tol=1e-12)

    def test_the_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(SMALL), "--out", str(tmp_path / "out"), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep", [None, {"alpha": 0.25}], ids=["no_sweep", "alpha_only"])
    def test_absent_axes_sweep_the_configs_own_values(self, tmp_path, sweep):
        # small.yaml has d_avg_max 6 and profile max_delay 6; an absent axis
        # is that single value, and the joint row is the run of the same config.
        cfg = yaml.safe_load(SMALL.read_text())
        cfg["experiment"].update(policies=["joint"], replications=1)
        del cfg["experiment"]["sweep"]
        if sweep is not None:
            cfg["experiment"]["sweep"] = sweep
        run_config, sweep_config = tmp_path / "run.yaml", tmp_path / "sweep.yaml"
        sweep_config.write_text(yaml.safe_dump(cfg))
        alpha = cfg["weights"]["alpha"] = 1.0 if sweep is None else sweep["alpha"]
        run_config.write_text(yaml.safe_dump(cfg))
        assert main(["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "sweep")]) == 0
        assert main(["run", "--config", str(run_config), "--out", str(tmp_path / "run")]) == 0
        (row,) = csv.DictReader(open(tmp_path / "sweep" / "sweep.csv"))
        point = {axis: row[axis] for axis in ("d_avg_max", "max_delay", "b_max", "alpha", "mu")}
        assert point == {"d_avg_max": "6", "max_delay": "6", "b_max": "3.0", "alpha": str(alpha), "mu": "1.0"}
        assert row["error"] == ""
        assert float(row["total"]) == read_summary(tmp_path / "run" / "summary.txt")["total"]

    def test_an_absent_max_delay_axis_keeps_a_trace_files_caps(self, tmp_path):
        # The file is generated at max_delay 7, over small.yaml's profile 6;
        # with no axis given, the sweep's joint row is the run of the config,
        # which schedules to the file's caps (0.166804, not 0.226600 at cap 6).
        cfg = yaml.safe_load(SMALL.read_text())
        cfg["scenario"]["profile"]["max_delay"] = 7
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["gen-trace", "--config", str(path), "--seed", "0", "--out", str(tmp_path)]) == 0
        cfg = yaml.safe_load(SMALL.read_text())
        cfg["scenario"]["trace"] = str(tmp_path / "trace_seed0.csv")
        cfg["experiment"].update(policies=["joint"], replications=1)
        del cfg["experiment"]["sweep"]
        path.write_text(yaml.safe_dump(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        (row,) = csv.DictReader(open(tmp_path / "sweep" / "sweep.csv"))
        assert (row["max_delay"], row["error"]) == ("", "")
        assert float(row["total"]) == read_summary(tmp_path / "run" / "summary.txt")["total"]

    def test_infeasible_points_become_error_rows(self, tmp_path, capsys):
        # target average delay above the per-load cap: rejected per point
        path = small_config(tmp_path, **{
            "experiment.sweep": {"d_avg_max": [12], "max_delay": [6]},
            "experiment.replications": 1,
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "(3 rows errored)" in printed
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert len(rows) == 3
        for r in rows:
            assert r["error"].startswith("ConfigurationError:")
            assert "cannot bind" in r["error"]
            assert r["total"] == ""

    def test_a_negative_delay_cap_over_a_trace_file_is_the_tasks_error(self, tmp_path):
        """Over a trace file the sweep re-caps each loaded task with
        `LoadTask._replace`, which refuses max_delay -1 as the constructor does."""
        assert main(["gen-trace", "--config", str(SMALL), "--seed", "0", "--out", str(tmp_path)]) == 0
        path = small_config(tmp_path, **{
            "scenario.trace": str(tmp_path / "trace_seed0.csv"),
            "experiment.sweep": {"d_avg_max": [2], "max_delay": [-1, 2]},
            "experiment.replications": 1,
        })
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [(r["max_delay"], r["error"]) for r in rows] == (
            [("-1", "ValueError: max_delay >= 0 required, got -1")] * 3 + [("2", "")] * 3
        )

    def test_seed_flag_shifts_every_replication(self, tmp_path):
        out1 = tmp_path / "s0"
        out2 = tmp_path / "s100"
        assert main(["sweep", "--config", str(SMALL), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(SMALL), "--seed", "100",
                     "--out", str(out2)]) == 0
        rows1 = list(csv.DictReader(open(out1 / "sweep.csv")))
        rows2 = list(csv.DictReader(open(out2 / "sweep.csv")))
        assert [r["replication"] for r in rows1] == [r["replication"] for r in rows2]
        assert [r["total"] for r in rows1] != [r["total"] for r in rows2]


def naive_sweep_rows(spec: ExperimentSpec) -> list[dict]:
    """The sweep with nothing shared: its own trace, validation and
    `run_policy` call for every (point, replication, policy)."""
    base = spec.bundle
    rows = []
    for point in spec.sweep.points():
        for replication in range(spec.replications):
            for policy in spec.policies:
                bundle = replace(
                    base,
                    battery=replace(base.battery, b_max=point.b_max),
                    weights=replace(base.weights, d_avg_max=point.d_avg_max, alpha=point.alpha, mu=point.mu),
                    costs=CostModel.quadratic(spec.k_u, spec.k_d, d_avg_max=point.d_avg_max),
                )
                profile = replace(spec.profile, max_delay=point.max_delay)
                trace = generate_trace(profile, base.horizon, spec.seed_base + replication)
                row = dict.fromkeys(_SWEEP_COLUMNS)
                row.update(point._asdict(), policy=policy, replication=replication)
                try:
                    problems = validate_config(bundle, max_task_delay=trace.max_task_delay())
                    if problems:
                        raise ConfigurationError("; ".join(problems))
                    run = run_policy(trace, bundle, policy)
                except (ValueError, RuntimeError) as exc:
                    row["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    row.update(J=run.j_bar, entry=run.entry_bar, usage_cost=run.usage_cost,
                               delay_cost=run.delay_cost, total=run.total, avg_delay=run.delay_avg,
                               monetary=run.monetary_cost, error="")
                rows.append(row)
    return rows


class TestSweepPlan:
    """`run_sweep` simulates each distinct run once and shares its row."""

    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        # Two values on every axis. d_avg_max 6 above max_delay 4 fails
        # validation, and it comes first, so the shared baselines run under a
        # later point. Seed 77 aborts no_storage; b_max moves storage_only.
        return small_config(tmp_path_factory.mktemp("plan"), **{
            "experiment.sweep": {
                "d_avg_max": [6, 2], "max_delay": [4, 8], "b_max": [3.0, 6.0],
                "alpha": [1.0, 0.5], "mu": [1.0, 2.0],
            },
            "experiment.replications": 2,
            "experiment.seed_base": 76,
        })

    def test_rows_equal_the_naive_reference(self, config, monkeypatch):
        spec = load_experiment(config)
        calls = []

        def counted(trace, bundle, policy):
            calls.append(policy)
            return run_policy(trace, bundle, policy)

        monkeypatch.setattr(cli, "run_policy", counted)
        rows = run_sweep(spec)
        expected = naive_sweep_rows(spec)
        assert rows == expected
        errors = [r["error"] for r in expected]
        assert any(e.startswith("ConfigurationError:") and "cannot bind" in e for e in errors)
        assert any(e.startswith("InfeasibleSlot:") for e in errors)
        # more than one storage_only total per replication: b_max moves it
        assert len({r["total"] for r in expected if r["policy"] == "storage_only"}) > 2
        # joint once per valid (point, replication), each baseline once per (b_max, replication)
        assert calls.count("joint") == 24 * 2
        assert calls.count("storage_only") == calls.count("no_storage") == 2 * 2


class TestVerifyCommand:
    def test_small_config_passes_every_check(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(SMALL), "--out", str(tmp_path)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "all 17 checks passed" in printed
        report = (tmp_path / "verify_report.txt").read_text().splitlines()
        assert report[0] == "seed=0"
        assert len(report) == 18
        assert all(line.startswith("PASS ") for line in report[1:])

    def test_the_frame_oracle_solves_every_frame_in_one_call(self, monkeypatch):
        spec = load_experiment(SMALL)
        calls, optima = [], cli.oracle.lookahead_optima
        monkeypatch.setattr(cli.oracle, "lookahead_optima", lambda f, *a: calls.append(len(f)) or optima(f, *a))
        assert cli.run_checks(spec).passed
        assert calls == [spec.bundle.horizon // spec.frame_length]

    def test_overweighted_price_term_fails_the_battery_check(self, tmp_path, capsys):
        # v above the designed v_max voids the battery-bound guarantee
        path = small_config(tmp_path, **{"weights.v": 40.0})
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAILED checks: battery_bounds" in captured.err
        assert "FAIL battery_bounds" in (tmp_path / "verify_report.txt").read_text()

    def test_a_too_fine_oracle_step_is_a_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, **{"experiment.oracle_energy_step": 0.0005})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: experiment.oracle_energy_step=0.0005: search space")
        assert "try energy_step >= 0.008845" in err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, target", [
        ({"weights.delta_u": -0.36}, -0.06),  # b_init is b_min
        ({"weights.delta_u": 0.36, "battery.b_init": 3.0}, 0.06),  # b_init is b_max
    ], ids=["below-b_min", "above-b_max"])
    def test_an_unreachable_frame_target_is_a_config_error(self, tmp_path, capsys, overrides, target):
        path = small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0  # the run itself completes
        capsys.readouterr()
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: weights.delta_u={overrides['weights.delta_u']}: frame net-flow target {target} kWh"
            " is outside the battery window (frame at slot 0)\n"
        )
        assert not (out / "verify_report.txt").exists()

    def test_a_run_that_leaves_the_battery_window_is_named_by_its_weight(self, tmp_path, capsys):
        # far above v_max the run leaves the battery window at a frame boundary
        path = small_config(tmp_path, **{"weights.v": 500.0})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: weights.v=500.0: frame boundary battery level ")
        assert err.endswith(" violates the battery bounds (frame at slot 20)\n") and err.count("\n") == 1

    def test_residual_just_below_a_lattice_discharge_passes(self, tmp_path):
        # sampled state 168 once failed energy_dominance on a lattice
        # discharge that bought -3.6e-10 kWh
        argv = ["verify", "--config", str(REPO / "bench" / "configs" / "desk.yaml"),
                "--seed", "200500003", "--out", str(tmp_path)]
        assert main(argv) == 0

    def test_frame_length_must_divide_the_horizon(self, tmp_path, capsys):
        path = small_config(tmp_path, **{"experiment.frame_length": 5})
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "frame_length" in capsys.readouterr().err
