"""Command-line front end: single runs, parameter sweeps, checks, traces.

Configuration is a YAML file with sections ``scenario``, ``battery``, ``grid``,
``costs``, ``weights`` and ``experiment``; unknown keys are rejected so typos
fail loudly instead of silently using defaults. ``--seed``, ``--out`` and
``--workers`` override the config (and ``EMSCHED_OUT`` the output directory,
with the flag winning over the environment).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import yaml

from . import controller, oracle
from .model import (
    BatteryParams,
    ConfigurationError,
    CostModel,
    GridParams,
    InfeasibleSlot,
    ModelBundle,
    Weights,
    validate_config,
)
from .scenario import (
    StageProfile,
    Trace,
    TraceFormatError,
    generate_trace,
    load_trace,
    save_trace,
    validate_trace,
)
from .simulator import POLICIES, RunSummary, run_policy, write_records

_CONFIG_SECTIONS = ("scenario", "battery", "grid", "costs", "weights", "experiment")

_SWEEP_COLUMNS = (
    "d_avg_max", "max_delay", "b_max", "alpha", "mu",
    "policy", "replication",
    "J", "entry", "usage_cost", "delay_cost", "total", "avg_delay",
    "monetary", "error",
)


class SweepPoint(NamedTuple):
    d_avg_max: int
    max_delay: int
    b_max: float
    alpha: float
    mu: float


@dataclass(frozen=True)
class SweepAxes:
    """Cartesian sweep grid; each axis defaults to a single baseline value."""

    d_avg_max: tuple[int, ...] = (18,)
    max_delay: tuple[int, ...] = (18,)
    b_max: tuple[float, ...] = (3.0,)
    alpha: tuple[float, ...] = (1.0,)
    mu: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            if len(getattr(self, f.name)) == 0:
                raise ConfigurationError(f"sweep axis {f.name!r} must not be empty")

    def points(self) -> list[SweepPoint]:
        return [
            SweepPoint(d, m, b, a, u)
            for d in self.d_avg_max
            for m in self.max_delay
            for b in self.b_max
            for a in self.alpha
            for u in self.mu
        ]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a command needs, resolved from one config file."""

    profile: StageProfile
    trace_path: str | None
    bundle: ModelBundle
    k_u: float
    k_d: float | None
    policies: tuple[str, ...]
    replications: int
    seed_base: int
    out_dir: str
    workers: int
    frame_length: int
    oracle_energy_step: float
    equivalence_states: int
    sweep: SweepAxes


def _as_mapping(data: object, where: str) -> dict:
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section {where!r} must be a mapping")
    return data


def _strict_keys(data: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(f"unknown config key: {where}.{unknown[0]}")


def _build(cls, data: dict, where: str):
    _strict_keys(data, [f.name for f in dataclass_fields(cls)], where)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"bad {where!r} section: {exc}") from exc


def _hour_windows(raw: object, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, (list, tuple)):
        raise ConfigurationError(f"{where} must be a list of [start, end] hour pairs")
    windows = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigurationError(f"{where} must be a list of [start, end] hour pairs")
        windows.append((float(item[0]), float(item[1])))
    return tuple(windows)


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Parse and validate a YAML experiment config."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    _strict_keys(raw, _CONFIG_SECTIONS, "config")

    scenario = _as_mapping(raw.get("scenario"), "scenario")
    if "horizon" not in scenario:
        raise ConfigurationError("missing required key: scenario.horizon")
    _strict_keys(scenario, ("horizon", "trace", "profile"), "scenario")
    horizon = int(scenario["horizon"])

    profile_data = dict(_as_mapping(scenario.get("profile"), "scenario.profile"))
    for key in ("high_hours", "mid_hours"):
        if key in profile_data:
            profile_data[key] = _hour_windows(profile_data[key], f"scenario.profile.{key}")
    profile = _build(StageProfile, profile_data, "scenario.profile")
    profile.validate()
    trace_path = scenario.get("trace")

    battery = _build(BatteryParams, _as_mapping(raw.get("battery"), "battery"), "battery")
    grid = _build(GridParams, _as_mapping(raw.get("grid"), "grid"), "grid")
    weights = _build(Weights, _as_mapping(raw.get("weights"), "weights"), "weights")

    costs_data = _as_mapping(raw.get("costs"), "costs")
    _strict_keys(costs_data, ("k_u", "k_d"), "costs")
    k_u = float(costs_data.get("k_u", 0.2))
    k_d = costs_data.get("k_d")
    if k_d is not None:
        k_d = float(k_d)
    costs = CostModel.quadratic(k_u, k_d, d_avg_max=weights.d_avg_max)

    exp = _as_mapping(raw.get("experiment"), "experiment")
    _strict_keys(
        exp,
        (
            "policies", "replications", "seed_base", "out_dir", "workers",
            "frame_length", "oracle_energy_step", "equivalence_states",
            "z0_mode", "sweep",
        ),
        "experiment",
    )
    policies = tuple(exp.get("policies", ["joint"]))
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}"
            )
    if not policies:
        raise ConfigurationError("experiment.policies must not be empty")
    replications = int(exp.get("replications", 1))
    if replications < 1:
        raise ConfigurationError("experiment.replications must be >= 1")

    sweep_data = _as_mapping(exp.get("sweep"), "experiment.sweep")
    _strict_keys(sweep_data, [f.name for f in dataclass_fields(SweepAxes)], "experiment.sweep")
    sweep_kwargs = {}
    for f in dataclass_fields(SweepAxes):
        if f.name in sweep_data:
            values = sweep_data[f.name]
            if not isinstance(values, (list, tuple)):
                values = [values]
            cast = int if f.name in ("d_avg_max", "max_delay") else float
            sweep_kwargs[f.name] = tuple(cast(v) for v in values)
    sweep = SweepAxes(**sweep_kwargs)

    bundle = ModelBundle(
        battery=battery,
        grid=grid,
        costs=costs,
        weights=weights,
        horizon=horizon,
        z0_mode=str(exp.get("z0_mode", "shifted")),
    )
    problems = validate_config(battery, grid, costs, weights, horizon)
    if problems:
        raise ConfigurationError("; ".join(problems))

    return ExperimentSpec(
        profile=profile,
        trace_path=str(trace_path) if trace_path is not None else None,
        bundle=bundle,
        k_u=k_u,
        k_d=k_d,
        policies=policies,
        replications=replications,
        seed_base=int(exp.get("seed_base", 0)),
        out_dir=str(exp.get("out_dir", "out")),
        workers=int(exp.get("workers", 1)),
        frame_length=int(exp.get("frame_length", 4)),
        oracle_energy_step=float(exp.get("oracle_energy_step", 0.015)),
        equivalence_states=int(exp.get("equivalence_states", 300)),
        sweep=sweep,
    )


def _resolve_out(args: argparse.Namespace, spec: ExperimentSpec) -> Path:
    out = args.out or os.environ.get("EMSCHED_OUT") or spec.out_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_seed(args: argparse.Namespace, spec: ExperimentSpec) -> int:
    return args.seed if args.seed is not None else spec.seed_base


def _resolve_workers(args: argparse.Namespace, spec: ExperimentSpec) -> int:
    workers = args.workers if args.workers is not None else spec.workers
    return max(1, workers)


def _load_or_generate(spec: ExperimentSpec, seed: int) -> Trace:
    if spec.trace_path is not None:
        return load_trace(spec.trace_path, slot_minutes=spec.profile.slot_minutes)
    return generate_trace(spec.profile, spec.bundle.horizon, seed)


def _fmt_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_summary(
    path: Path,
    summary: RunSummary,
    *,
    seed: int,
    a_o: float,
    v: float,
    v_max: float,
) -> None:
    """Key=value run summary, one entry per line."""
    final = summary.final_state
    horizon_state = summary.state_at_horizon
    pairs = [
        ("policy", summary.policy),
        ("seed", seed),
        ("horizon", summary.horizon),
        ("slots_simulated", len(summary.records)),
        ("drain_slots", summary.drain_slots),
        ("a_o", a_o),
        ("v", v),
        ("v_max", v_max),
        ("j_bar", summary.j_bar),
        ("entry_bar", summary.entry_bar),
        ("usage_avg", summary.usage_avg),
        ("usage_cost", summary.usage_cost),
        ("delay_avg", summary.delay_avg),
        ("delay_cost", summary.delay_cost),
        ("total", summary.total),
        ("monetary_cost", summary.monetary_cost),
        ("j_bar_inclusive", summary.j_bar_inclusive),
        ("entry_bar_inclusive", summary.entry_bar_inclusive),
        ("usage_avg_inclusive", summary.usage_avg_inclusive),
        ("total_inclusive", summary.total_inclusive),
        ("epsilon_u", summary.epsilon_u),
        ("b_horizon", horizon_state.b),
        ("z_horizon", horizon_state.z),
        ("x_horizon", horizon_state.x),
        ("h_u_horizon", horizon_state.h_u),
        ("h_d_horizon", horizon_state.h_d),
        ("b_final", final.b),
    ]
    lines = [f"{key}={_fmt_value(value)}" for key, value in pairs]
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_experiment(args.config)
    seed = _resolve_seed(args, spec)
    out = _resolve_out(args, spec)
    bundle = spec.bundle
    trace = _load_or_generate(spec, seed)
    problems = validate_trace(trace, bundle.grid)
    if problems:
        for problem in problems:
            print(f"trace problem: {problem}", file=sys.stderr)
        return 2
    a_o, v_max = controller.design_params(
        bundle.battery, bundle.grid, bundle.costs, bundle.weights, bundle.horizon
    )
    v = bundle.weights.v if bundle.weights.v is not None else v_max
    policy = spec.policies[0]
    summary = run_policy(trace, bundle, policy)
    write_records(out / "records.csv", summary.records)
    write_summary(out / "summary.txt", summary, seed=seed, a_o=a_o, v=v, v_max=v_max)
    print(
        f"run complete: policy={policy} seed={seed} "
        f"total={summary.total:.6f} monetary={summary.monetary_cost:.6f} -> {out}"
    )
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    spec = load_experiment(args.config)
    seed = _resolve_seed(args, spec)
    out = _resolve_out(args, spec)
    trace = generate_trace(spec.profile, spec.bundle.horizon, seed)
    path = out / f"trace_seed{seed}.csv"
    save_trace(trace, path)
    print(f"wrote {trace.horizon}-slot trace -> {path}")
    return 0


def _bundle_for_point(spec: ExperimentSpec, point: SweepPoint) -> ModelBundle:
    battery = replace(spec.bundle.battery, b_max=point.b_max)
    weights = replace(
        spec.bundle.weights,
        d_avg_max=point.d_avg_max,
        alpha=point.alpha,
        mu=point.mu,
    )
    costs = CostModel.quadratic(spec.k_u, spec.k_d, d_avg_max=point.d_avg_max)
    return replace(spec.bundle, battery=battery, weights=weights, costs=costs)


def _with_max_delay(trace: Trace, max_delay: int) -> Trace:
    slots = tuple(
        replace(s, task=replace(s.task, max_delay=max_delay) if s.task is not None else None)
        for s in trace.slots
    )
    return Trace(slots=slots, slot_minutes=trace.slot_minutes)


def _trace_for_point(spec: ExperimentSpec, point: SweepPoint, seed: int) -> Trace:
    if spec.trace_path is not None:
        return _with_max_delay(_load_or_generate(spec, seed), point.max_delay)
    profile = replace(spec.profile, max_delay=point.max_delay)
    return generate_trace(profile, spec.bundle.horizon, seed)


def _sweep_row(
    point: SweepPoint,
    policy: str,
    replication: int,
    summary: RunSummary | None,
    error: str = "",
) -> dict:
    row = dict(zip(SweepPoint._fields, point))
    row.update(policy=policy, replication=replication, error=error)
    if summary is None:
        row.update(
            J=None, entry=None, usage_cost=None, delay_cost=None,
            total=None, avg_delay=None, monetary=None,
        )
    else:
        row.update(
            J=summary.j_bar,
            entry=summary.entry_bar,
            usage_cost=summary.usage_cost,
            delay_cost=summary.delay_cost,
            total=summary.total,
            avg_delay=summary.delay_avg,
            monetary=summary.monetary_cost,
        )
    return row


def _sweep_job(job: tuple[ExperimentSpec, SweepPoint, int]) -> list[dict]:
    """One (sweep point, replication): all policies on a shared trace."""
    spec, point, replication = job
    seed = spec.seed_base + replication
    try:
        bundle = _bundle_for_point(spec, point)
        trace = _trace_for_point(spec, point, seed)
        problems = validate_config(
            bundle.battery, bundle.grid, bundle.costs, bundle.weights,
            bundle.horizon, max_task_delay=trace.max_task_delay(),
        )
        if problems:
            raise ConfigurationError("; ".join(problems))
    except (ValueError, RuntimeError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        return [
            _sweep_row(point, policy, replication, None, error=message)
            for policy in spec.policies
        ]
    rows = []
    for policy in spec.policies:
        try:
            summary = run_policy(trace, bundle, policy)
            rows.append(_sweep_row(point, policy, replication, summary))
        except (ValueError, RuntimeError) as exc:
            rows.append(
                _sweep_row(point, policy, replication, None, error=f"{type(exc).__name__}: {exc}")
            )
    return rows


def run_sweep(spec: ExperimentSpec, workers: int = 1) -> list[dict]:
    """All sweep rows in deterministic (point, replication, policy) order."""
    jobs = [
        (spec, point, replication)
        for point in spec.sweep.points()
        for replication in range(spec.replications)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_job, jobs))
    else:
        chunks = [_sweep_job(job) for job in jobs]
    return [row for chunk in chunks for row in chunk]


def write_sweep(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_value(row[col]) for col in _SWEEP_COLUMNS])


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_experiment(args.config)
    if args.seed is not None:
        spec = replace(spec, seed_base=args.seed)
    out = _resolve_out(args, spec)
    workers = _resolve_workers(args, spec)
    rows = run_sweep(spec, workers)
    path = out / "sweep.csv"
    write_sweep(path, rows)
    failed = sum(1 for row in rows if row["error"])
    note = f" ({failed} rows errored)" if failed else ""
    print(f"wrote {len(rows)} sweep rows{note} -> {path}")
    return 0


def _frame_job(job: tuple[oracle.Frame, ModelBundle, oracle.GridSpec]) -> oracle.OracleSolution:
    frame, bundle, grid = job
    return oracle.lookahead_optimum(frame, bundle, grid)


def run_checks(
    spec: ExperimentSpec,
    seed: int,
    workers: int = 1,
) -> tuple[oracle.CheckReport, RunSummary]:
    """Full verification battery on one seeded run of the joint policy."""
    bundle = spec.bundle
    if bundle.horizon % spec.frame_length != 0:
        raise ConfigurationError(
            f"experiment.frame_length={spec.frame_length} must divide "
            f"scenario.horizon={bundle.horizon}"
        )
    trace = _load_or_generate(spec, seed)
    run = run_policy(trace, bundle, "joint")
    g = controller.drift_bound_G(
        bundle.battery, bundle.weights, trace.max_task_delay(), bundle.horizon
    )

    checks = list(oracle.equivalence_battery(bundle, spec.equivalence_states, seed))
    checks.extend(oracle.feasibility_checks(run, bundle))
    checks.extend(oracle.drift_checks(run, g, bundle))
    checks.extend(oracle.margin_checks(run, g, bundle))
    checks.extend(oracle.jensen_check(run, bundle))

    frames = oracle.frames_from_run(trace, run, spec.frame_length)
    grid = oracle.GridSpec(energy_step=spec.oracle_energy_step)
    jobs = [(frame, bundle, grid) for frame in frames]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solutions = list(pool.map(_frame_job, jobs))
    else:
        solutions = [_frame_job(job) for job in jobs]
    checks.extend(oracle.lookahead_bound_check(run, solutions, g, bundle, trace=trace))
    return oracle.CheckReport(tuple(checks)), run


def write_check_report(path: Path, report: oracle.CheckReport, seed: int) -> None:
    lines = [f"seed={seed}"]
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{status} {check.name}: achieved={_fmt_value(check.achieved)} "
            f"bound={_fmt_value(check.bound)} margin={_fmt_value(check.margin)}"
            + (f" ({check.detail})" if check.detail else "")
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_experiment(args.config)
    seed = _resolve_seed(args, spec)
    out = _resolve_out(args, spec)
    workers = _resolve_workers(args, spec)
    report, _run = run_checks(spec, seed, workers)
    write_check_report(out / "verify_report.txt", report, seed)
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (margin={check.margin:.3e})")
    if report.passed:
        print(f"all {len(report.checks)} checks passed -> {out / 'verify_report.txt'}")
        return 0
    failed = [check.name for check in report if not check.passed]
    print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emsched",
        description="Online battery/load scheduling: runs, sweeps and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("run", cmd_run, "simulate one seeded trace and write records + summary"),
        ("sweep", cmd_sweep, "run the configured parameter sweep"),
        ("verify", cmd_verify, "run the oracle/bound check battery"),
        ("gen-trace", cmd_gen_trace, "generate and save a seeded input trace"),
    )
    for name, func, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, metavar="<path>", help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None, metavar="<u64>", help="override seed")
        cmd.add_argument("--out", default=None, metavar="<dir>", help="override output directory")
        cmd.add_argument("--workers", type=int, default=None, metavar="<n>", help="parallel workers")
        cmd.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, TraceFormatError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2
    except InfeasibleSlot as exc:
        print(f"infeasible run: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
