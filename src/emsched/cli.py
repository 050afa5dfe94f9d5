"""Command-line front end: single runs, parameter sweeps, checks, traces.

Configuration is a YAML file with sections ``scenario``, ``battery``, ``grid``,
``costs``, ``weights`` and ``experiment`` (`ConfigFile`). Each section is read
into its dataclass with every value checked against its field's declared type,
and unknown keys are rejected so typos fail loudly instead of silently using
defaults. ``--seed`` and ``--out`` override the config (and ``EMSCHED_OUT``
the output directory, with the flag winning over the environment); `_load`
applies them as the config is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields as dataclass_fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple, Sequence, get_args, get_origin, get_type_hints

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
from .simulator import POLICIES, POLICY_AXES, RunSummary, run_policy, write_records

# The sweep.csv columns a run fills; the row's point and policy come first.
_RUN_COLUMNS = (
    "J", "entry", "usage_cost", "delay_cost", "total", "avg_delay",
    "monetary", "error",
)
_SWEEP_COLUMNS = (
    "d_avg_max", "max_delay", "b_max", "alpha", "mu",
    "policy", "replication",
    *_RUN_COLUMNS,
)

# PyYAML's C loader when it was built with libyaml; same dicts, ~10x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# How each leaf type of the config schema reads in an error message. The only
# pairs in the schema are the profile's hour windows.
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    tuple[float, float]: "a list of [start, end] hour pairs",
}


class SweepPoint(NamedTuple):
    d_avg_max: int
    max_delay: int | None  # None: the trace file's own caps
    b_max: float
    alpha: float
    mu: float


@dataclass(frozen=True)
class SweepAxes:
    """Cartesian sweep grid. An axis the config leaves out is None until
    `load_experiment` fills it with the config's own single value; over a
    trace file, max_delay's is None, which keeps the file's own caps."""

    d_avg_max: tuple[int, ...] | None = None
    max_delay: tuple[int, ...] | None = None
    b_max: tuple[float, ...] | None = None
    alpha: tuple[float, ...] | None = None
    mu: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for f in dataclass_fields(self):
            if getattr(self, f.name) == ():
                raise ConfigurationError(f"sweep axis {f.name!r} must not be empty")

    def points(self) -> list[SweepPoint]:
        axes = (self.d_avg_max, self.max_delay, self.b_max, self.alpha, self.mu)
        return [SweepPoint(*values) for values in product(*axes)]


@dataclass(frozen=True)
class ScenarioConfig:
    """The `scenario` section: horizon, optional trace file, generator profile."""

    horizon: int
    profile: StageProfile
    trace: str | None = None


@dataclass(frozen=True)
class CostsConfig:
    """The `costs` section; k_d None means 1 / d_avg_max**2. `QuadraticCost`
    refuses a negative or non-finite coefficient, which would make the cost
    concave or infinite."""

    k_u: float = 0.2
    k_d: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """The `experiment` section: what the commands run and where they write."""

    sweep: SweepAxes
    policies: tuple[str, ...] = ("joint",)
    replications: int = 1
    seed_base: int = 0
    out_dir: str = "out"
    frame_length: int = 4
    oracle_energy_step: float = 0.015
    equivalence_states: int = 300
    # The commands run in one process, and the battery queue has one origin,
    # z(0) = b_init - a_o; both keys stay so that configs naming them still load.
    workers: int = 1
    z0_mode: str = "shifted"

    def __post_init__(self) -> None:
        for policy in self.policies:
            if policy not in POLICIES:
                raise ConfigurationError(
                    f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}"
                )
        if not self.policies:
            raise ConfigurationError("experiment.policies must not be empty")
        for key in ("replications", "frame_length", "equivalence_states"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"experiment.{key} must be >= 1")
        if not 0.0 < self.oracle_energy_step < math.inf:
            raise ConfigurationError("experiment.oracle_energy_step must be > 0 and finite")
        if self.seed_base < 0:
            raise ConfigurationError(f"experiment.seed_base (--seed) must be >= 0, got {self.seed_base}")
        if self.workers != 1:
            raise ConfigurationError(f"experiment.workers must be 1, got {self.workers}")
        if self.z0_mode != "shifted":
            raise ConfigurationError(f"experiment.z0_mode must be 'shifted', got {self.z0_mode!r}")


@dataclass(frozen=True)
class ConfigFile:
    """A whole config file: one field per top-level section."""

    scenario: ScenarioConfig
    battery: BatteryParams
    grid: GridParams
    costs: CostsConfig
    weights: Weights
    experiment: ExperimentConfig


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec(ExperimentConfig):
    """Everything a command needs, resolved from one config file: the
    `experiment` section plus the model and trace source it runs on."""

    profile: StageProfile
    trace_path: str | None
    bundle: ModelBundle
    k_u: float
    k_d: float | None


_field_types = functools.cache(get_type_hints)


def _read(tp, value: object, key: str):
    """`value` from the YAML file read as the declared type `tp`, at dotted path `key`.

    A dataclass is read field by field from a mapping (empty when absent or
    null), rejecting unknown keys. A `tuple[X, ...]` takes a list or a single
    X, an int takes only integral numbers, and a bool is not a number.
    """
    if is_dataclass(tp):
        data = {} if value is None else value
        if not isinstance(data, dict):
            raise ConfigurationError(f"config section {key!r} must be a mapping")
        fields, types = dataclass_fields(tp), _field_types(tp)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ConfigurationError(f"unknown config key: {key or 'config'}.{unknown[0]}")
        kwargs = {}
        for f in fields:
            child = f"{key}.{f.name}" if key else f.name
            if f.name in data or is_dataclass(types[f.name]):
                kwargs[f.name] = _read(types[f.name], data.get(f.name), child)
            elif f.default is MISSING:
                raise ConfigurationError(f"missing required key: {child}")
        return tp(**kwargs)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        items = value if isinstance(value, list) else [value]
        if args[-1] is Ellipsis:
            return tuple(_read(args[0], item, key) for item in items)
        if len(items) == len(args):
            return tuple(map(_read, args, items, [key] * len(args)))
    elif args:  # X | None
        return None if value is None else _read(args[0], value, key)
    elif not isinstance(value, bool) and isinstance(value, str if tp is str else (int, float)):
        if not (tp is int and isinstance(value, float) and not value.is_integer()):
            with contextlib.suppress(OverflowError):  # an int beyond float range
                return tp(value)
    raise ConfigurationError(f"{key} must be {_TYPE_NAMES[tp]}")


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Parse and validate a YAML experiment config."""
    raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    config = _read(ConfigFile, raw, "")
    scenario, exp = config.scenario, config.experiment
    try:
        scenario.profile.validate()
    except ValueError as exc:
        raise ConfigurationError(f"scenario.profile: {exc}") from exc
    costs = CostModel.quadratic(config.costs.k_u, config.costs.k_d, d_avg_max=config.weights.d_avg_max)
    bundle = ModelBundle(
        battery=config.battery, grid=config.grid, costs=costs, weights=config.weights, horizon=scenario.horizon,
    )
    problems = validate_config(bundle)
    if problems:
        raise ConfigurationError("; ".join(problems))
    weights = config.weights
    max_delay = scenario.profile.max_delay if scenario.trace is None else None
    own = SweepPoint(weights.d_avg_max, max_delay, config.battery.b_max, weights.alpha, weights.mu)
    axes = (getattr(exp.sweep, axis) or (value,) for axis, value in zip(own._fields, own))
    exp = replace(exp, sweep=SweepAxes(*axes))
    return ExperimentSpec(
        profile=scenario.profile,
        trace_path=scenario.trace,
        bundle=bundle,
        k_u=config.costs.k_u,
        k_d=config.costs.k_d,
        **{f.name: getattr(exp, f.name) for f in dataclass_fields(exp)},
    )


def _load(args: argparse.Namespace) -> ExperimentSpec:
    """The command's config with its flags applied: --seed replaces seed_base,
    and --out, else EMSCHED_OUT, out_dir."""
    flags = {
        "seed_base": args.seed,
        "out_dir": args.out or os.environ.get("EMSCHED_OUT") or None,
    }
    return replace(load_experiment(args.config), **{k: v for k, v in flags.items() if v is not None})


def _resolve_out(spec: ExperimentSpec) -> Path:
    """The output directory, created; call it once there is something to write."""
    path = Path(spec.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_or_generate(spec: ExperimentSpec, seed: int) -> Trace:
    """The configured trace file, or one generated from `seed`; ConfigurationError
    unless it has `scenario.horizon` rows and passes `validate_trace`."""
    if spec.trace_path is not None:
        trace = load_trace(spec.trace_path)
    else:
        trace = generate_trace(spec.profile, spec.bundle.horizon, seed)
    if trace.horizon != spec.bundle.horizon:
        raise ConfigurationError(f"trace has {trace.horizon} slots but scenario.horizon is {spec.bundle.horizon}")
    problems = validate_trace(trace, spec.bundle.grid)
    if problems:
        raise ConfigurationError("trace problem: " + "; ".join(problems))
    return trace


def _run_trace(spec: ExperimentSpec, seed: int) -> Trace:
    """`_load_or_generate`, with the config validated against the trace's
    largest per-load delay cap, as `run_sweep` validates each point."""
    trace = _load_or_generate(spec, seed)
    problems = validate_config(spec.bundle, max_task_delay=trace.max_task_delay())
    if problems:
        raise ConfigurationError("; ".join(problems))
    return trace


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
    v_max: float,
) -> None:
    """Key=value run summary, one entry per line."""
    initial, final = summary.initial_state, summary.final_state
    horizon_state = summary.state_at_horizon
    pairs = [
        ("policy", summary.policy),
        ("seed", seed),
        ("horizon", summary.horizon),
        ("slots_simulated", len(summary.records)),
        ("drain_slots", summary.drain_slots),
        ("a_o", initial.a_o),
        ("v", initial.v),
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
    spec = _load(args)
    seed = spec.seed_base
    bundle = spec.bundle
    trace = _run_trace(spec, seed)
    _, v_max, _ = controller.design_params(bundle)
    policy = spec.policies[0]
    summary = run_policy(trace, bundle, policy)
    out = _resolve_out(spec)
    write_records(out / "records.csv", summary.records)
    write_summary(out / "summary.txt", summary, seed=seed, v_max=v_max)
    print(
        f"run complete: policy={policy} seed={seed} "
        f"total={summary.total:.6f} monetary={summary.monetary_cost:.6f} -> {out}"
    )
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    spec = _load(args)
    seed = spec.seed_base
    out = _resolve_out(spec)
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
        s if s.task is None else s._replace(task=s.task._replace(max_delay=max_delay))
        for s in trace.slots
    )
    return Trace(slots=slots)


def _run_columns(outcome: RunSummary | Exception) -> dict:
    """A run's sweep.csv columns: its costs, or empty costs and the error that stopped it."""
    if isinstance(outcome, Exception):
        error = f"{type(outcome).__name__}: {outcome}"
        return {**dict.fromkeys(_RUN_COLUMNS), "error": error}
    return dict(
        J=outcome.j_bar,
        entry=outcome.entry_bar,
        usage_cost=outcome.usage_cost,
        delay_cost=outcome.delay_cost,
        total=outcome.total,
        avg_delay=outcome.delay_avg,
        monetary=outcome.monetary_cost,
        error="",
    )


def _run_job(trace: Trace, bundle: ModelBundle, policy: str) -> dict:
    """One distinct sweep run, reduced to its columns where it ran, so
    neither its records nor an error's traceback outlive it."""
    try:
        return _run_columns(run_policy(trace, bundle, policy))
    except (ValueError, RuntimeError) as exc:
        return _run_columns(exc)


def _run_key(policy: str, point: SweepPoint, replication: int) -> tuple:
    """What a policy's sweep run depends on: the axes it reads and the replication."""
    return policy, tuple(getattr(point, axis) for axis in POLICY_AXES[policy]), replication


def run_sweep(spec: ExperimentSpec) -> list[dict]:
    """All sweep rows in deterministic (point, replication, policy) order.

    Every (point, replication) is validated on its own, and one that fails
    gives error rows for all policies. Each distinct run (`_run_key`) is
    simulated once, under the first valid point with its key, and its columns
    fill the row of every point that shares the key: a baseline's run is
    shared by all points with the same b_max. Each trace is made once per
    (max_delay, replication), from the trace file if any (None keeps its caps).
    """
    points = spec.sweep.points()
    loaded = functools.cache(lambda seed: _load_or_generate(spec, seed))

    @functools.cache
    def trace_for(max_delay: int | None, seed: int) -> Trace:
        if spec.trace_path is None:
            return _load_or_generate(replace(spec, profile=replace(spec.profile, max_delay=max_delay)), seed)
        return loaded(seed) if max_delay is None else _with_max_delay(loaded(seed), max_delay)

    errors: dict[tuple[int, int], dict] = {}  # (point index, replication) -> error columns
    jobs: dict[tuple, tuple[Trace, ModelBundle, str]] = {}  # run key -> its run
    for (i, point), replication in product(enumerate(points), range(spec.replications)):
        try:
            bundle = _bundle_for_point(spec, point)
            trace = trace_for(point.max_delay, spec.seed_base + replication)
            problems = validate_config(bundle, max_task_delay=trace.max_task_delay())
            if problems:
                raise ConfigurationError("; ".join(problems))
        except (ValueError, RuntimeError) as exc:
            errors[i, replication] = _run_columns(exc)
            continue
        for policy in spec.policies:
            jobs.setdefault(_run_key(policy, point, replication), (trace, bundle, policy))
    columns = {key: _run_job(*job) for key, job in jobs.items()}
    return [
        {
            **point._asdict(), "policy": policy, "replication": replication,
            **(errors.get((i, replication)) or columns[_run_key(policy, point, replication)]),
        }
        for i, point in enumerate(points)
        for replication in range(spec.replications)
        for policy in spec.policies
    ]


def write_sweep(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_value(row[col]) for col in _SWEEP_COLUMNS])


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load(args)
    out = _resolve_out(spec)
    rows = run_sweep(spec)
    path = out / "sweep.csv"
    write_sweep(path, rows)
    failed = sum(1 for row in rows if row["error"])
    note = f" ({failed} rows errored)" if failed else ""
    print(f"wrote {len(rows)} sweep rows{note} -> {path}")
    return 0


def run_checks(spec: ExperimentSpec) -> oracle.CheckReport:
    """Full verification battery on the joint policy's run at `spec.seed_base`."""
    seed = spec.seed_base
    bundle = spec.bundle
    if bundle.horizon % spec.frame_length != 0:
        raise ConfigurationError(
            f"experiment.frame_length={spec.frame_length} must divide "
            f"scenario.horizon={bundle.horizon}"
        )
    trace = _run_trace(spec, seed)
    run = run_policy(trace, bundle, "joint")
    g = controller.drift_bound_G(bundle, trace.max_task_delay())

    checks = list(oracle.equivalence_battery(bundle, spec.equivalence_states, seed))
    checks.extend(oracle.feasibility_checks(run, bundle))
    checks.extend(oracle.drift_checks(run, g, bundle))
    checks.extend(oracle.margin_checks(run, g, bundle))
    checks.extend(oracle.jensen_check(run, bundle))

    frames = oracle.frames_from_run(trace, run, spec.frame_length)
    grid = oracle.GridSpec(energy_step=spec.oracle_energy_step)
    try:
        solutions = oracle.lookahead_optima(frames, bundle, grid)
    except oracle.SearchSpaceError as exc:  # with no suggested step, only a shorter frame fits
        key = "oracle_energy_step" if exc.suggested_step else "frame_length"
        raise ConfigurationError(f"experiment.{key}={getattr(spec, key)}: {exc}") from exc
    except oracle.FrameWindowError as exc:  # the run left the window only if v > v_max
        key = "delta_u" if exc.target else "v"
        raise ConfigurationError(f"weights.{key}={getattr(bundle.weights, key)}: {exc}") from exc
    checks.extend(oracle.lookahead_bound_check(run, solutions, g, bundle, trace=trace))
    return oracle.CheckReport(tuple(checks))


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
    spec = _load(args)
    report = run_checks(spec)
    out = _resolve_out(spec)
    write_check_report(out / "verify_report.txt", report, spec.seed_base)
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (margin={check.margin:.3e})")
    if report.passed:
        print(f"all {len(report.checks)} checks passed -> {out / 'verify_report.txt'}")
        return 0
    failed = [check.name for check in report if not check.passed]
    print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
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
        cmd.set_defaults(func=func)
    return parser


# Built once: parsing keeps no state in the parser, so every call shares it.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
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
