"""The benchmark's workloads: what one call runs and how its output is checked.

Each call runs one `emsched` command in-process through `emsched.cli.main`,
with the arguments the command line would pass. Before any call is timed, its
inputs are run once untimed through `simulator.run_policy` ("prepared"). That
shows whether the input hits the known fault, and it gives the records the
output checks need. The first call on an input is checked against the
prepared results and the independent checks in `checks.py`; later calls on it
must reproduce that output byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from dataclasses import dataclass, field, replace

import checks
from program import ROOT, cli, scenario, simulator
from emsched.model import CostModel, InfeasibleSlot

CONFIGS = ROOT / "bench" / "configs"
OUT = ROOT / "bench" / "out"

# Candidate inputs of run seed s are s * SEED_STRIDE, s * SEED_STRIDE + 1, ...
SEED_STRIDE = 100_000


class CheckError(Exception):
    """An output check failed, or an operation failed in a way not explained
    by the known fault."""


@dataclass
class Prepared:
    """One operation's inputs and everything its output check needs."""

    seed: int
    attempted: int  # policy runs in the operation (sweep rows, or 1)
    failures: list[str] = field(default_factory=list)  # kind of each failed run
    slots: int = 0  # slot decisions simulated; an aborted run counts its slots before the abort
    rc: int = 0  # the exit code the call must return
    expect: object = None


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one `emsched` command in-process: exit code, wall seconds, output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed, out.getvalue()


def _abort(trace, bundle, policy: str, fixed: bool) -> tuple[str, int] | None:
    """Classify an aborted run. None: the known fault on a seed-dependent input,
    which the caller leaves out. A failure of any unexplained kind raises."""
    kind, slot = checks.classify_abort(trace, bundle, policy)
    if kind == checks.KNOWN_FAULT and not fixed:
        return None
    if kind not in (checks.KNOWN_FAULT, checks.INFEASIBLE_TRACE):
        raise CheckError(f"{policy} seed aborted with unexplained kind {kind}")
    return kind, slot


def _check_completed(trace, bundle, policy: str, summary) -> None:
    reported = {"j_bar": summary.j_bar, "total": summary.total, "delay_avg": summary.delay_avg}
    problems = checks.check_run(
        trace, bundle, policy, checks.slots_from_records(summary.records), reported, checks.EXACT_TOL
    )
    if problems:
        raise CheckError("; ".join(problems[:5]))


class Workload:
    name = ""
    config = ""
    verb = ""
    unit = ""  # what `attempted` counts
    outputs: tuple[str, ...] = ()  # files one call writes
    fixed_seed = 0  # an input that hits the known fault, whatever the run seed
    pool_size = 1

    def __init__(self) -> None:
        self.config_path = CONFIGS / self.config
        self.spec = cli.load_experiment(self.config_path)
        self.out = OUT / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def pool(self, run_seed: int) -> tuple[list[Prepared], int]:
        """The run's inputs: the first `pool_size` candidates drawn from the run
        seed that do not hit the known fault, and how many were left out."""
        pool: list[Prepared] = []
        left_out = 0
        seed = run_seed * SEED_STRIDE
        while len(pool) < self.pool_size:
            prep = self.prepare(seed)
            if prep is None:
                left_out += 1
            else:
                pool.append(prep)
            seed += 1
        return pool, left_out

    def argv(self, seed: int) -> list[str]:
        return [self.verb, "--config", str(self.config_path), "--seed", str(seed), "--out", str(self.out)]

    def call(self, prep: Prepared, checked: dict[int, str]) -> float:
        """One measured call on prepared inputs; returns its wall seconds.

        The first call on an input is checked; later ones must reproduce its
        output byte for byte. Output files are removed first, so a call that
        writes nothing cannot pass on an earlier call's files."""
        for name in self.outputs:
            (self.out / name).unlink(missing_ok=True)
        rc, elapsed, output = call_cli(self.argv(prep.seed))
        digest = hashlib.sha256(f"{rc}\n{output}".encode())
        for name in self.outputs:
            path = self.out / name
            if path.exists():
                digest.update(path.read_bytes())
        if prep.seed not in checked:
            self.check(prep, rc, output)
            checked[prep.seed] = digest.hexdigest()
        elif checked[prep.seed] != digest.hexdigest():
            raise CheckError(f"{self.verb} seed {prep.seed}: output differs from its first, checked call")
        return elapsed

    def prepare(self, seed: int, fixed: bool = False) -> Prepared | None:
        raise NotImplementedError

    def check(self, prep: Prepared, rc: int, output: str) -> None:
        raise NotImplementedError


class DaySweep(Workload):
    """`emsched sweep` over the day config: 6 points x 3 policies, one seed."""

    name = "day-sweep"
    config = "day.yaml"
    verb = "sweep"
    unit = "sweep rows"
    outputs = ("sweep.csv",)
    fixed_seed = 1
    pool_size = 16

    def _bundle(self, point):
        base = self.spec.bundle
        return replace(
            base,
            battery=replace(base.battery, b_max=point.b_max),
            weights=replace(base.weights, d_avg_max=point.d_avg_max, alpha=point.alpha, mu=point.mu),
            costs=CostModel.quadratic(self.spec.k_u, self.spec.k_d, d_avg_max=point.d_avg_max),
        )

    def prepare(self, seed: int, fixed: bool = False) -> Prepared | None:
        prep = Prepared(seed=seed, attempted=0, expect=[])
        horizon = self.spec.bundle.horizon
        for point in self.spec.sweep.points():
            bundle = self._bundle(point)
            trace = scenario.generate_trace(
                replace(self.spec.profile, max_delay=point.max_delay), horizon, seed
            )
            for policy in self.spec.policies:
                prep.attempted += 1
                try:
                    summary = simulator.run_policy(trace, bundle, policy)
                except InfeasibleSlot:
                    outcome = _abort(trace, bundle, policy, fixed)
                    if outcome is None:
                        return None
                    kind, slot = outcome
                    if kind == checks.KNOWN_FAULT:
                        prep.failures.append(kind)
                    prep.slots += slot
                    prep.expect.append((point, policy, None, slot))
                    continue
                _check_completed(trace, bundle, policy, summary)
                prep.slots += len(summary.records)
                columns = {
                    "J": summary.j_bar, "entry": summary.entry_bar, "usage_cost": summary.usage_cost,
                    "delay_cost": summary.delay_cost, "total": summary.total,
                    "avg_delay": summary.delay_avg, "monetary": summary.monetary_cost,
                }
                prep.expect.append((point, policy, columns, None))
        return prep

    def check(self, prep: Prepared, rc: int, output: str) -> None:
        if rc != 0:
            raise CheckError(f"sweep seed {prep.seed} exited {rc}: {output.strip()}")
        with open(self.out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(prep.expect):
            raise CheckError(f"sweep seed {prep.seed}: {len(rows)} rows, expected {len(prep.expect)}")
        for row, (point, policy, columns, slot) in zip(rows, prep.expect):
            where = f"sweep seed {prep.seed} {policy} {tuple(point)}"
            if (int(row["d_avg_max"]), int(row["max_delay"])) != (point.d_avg_max, point.max_delay):
                raise CheckError(f"{where}: row is for another point")
            if row["policy"] != policy or row["replication"] != "0":
                raise CheckError(f"{where}: row is for {row['policy']} replication {row['replication']}")
            if columns is None:
                if not row["error"].startswith(f"InfeasibleSlot: slot {slot}:"):
                    raise CheckError(f"{where}: expected an abort at slot {slot}, got {row['error']!r}")
                continue
            if row["error"]:
                raise CheckError(f"{where}: unexpected error {row['error']!r}")
            for column, value in columns.items():
                if float(row[column]) != value:
                    raise CheckError(f"{where}: {column}={row[column]}, the run gives {value!r}")


class DayRun(Workload):
    """`emsched run` of the joint policy on one day-scale seed."""

    name = "day-run"
    config = "day.yaml"
    verb = "run"
    unit = "runs"
    outputs = ("records.csv", "summary.txt")
    fixed_seed = 1
    pool_size = 40

    def prepare(self, seed: int, fixed: bool = False) -> Prepared | None:
        bundle = self.spec.bundle
        trace = scenario.generate_trace(self.spec.profile, bundle.horizon, seed)
        prep = Prepared(seed=seed, attempted=1)
        try:
            summary = simulator.run_policy(trace, bundle, "joint")
        except InfeasibleSlot:
            outcome = _abort(trace, bundle, "joint", fixed)
            if outcome is None:
                return None
            kind, slot = outcome
            if kind == checks.KNOWN_FAULT:
                prep.failures.append(kind)
            prep.slots = slot
            prep.rc = 3
            prep.expect = (None, slot)
            return prep
        _check_completed(trace, bundle, "joint", summary)
        prep.slots = len(summary.records)
        prep.expect = (summary.total, None)
        return prep

    def check(self, prep: Prepared, rc: int, output: str) -> None:
        total, slot = prep.expect
        if total is None:
            if rc != 3 or f"infeasible run: slot {slot}:" not in output:
                raise CheckError(f"run seed {prep.seed}: expected exit 3 at slot {slot}, got {rc}: {output.strip()}")
            return
        if rc != 0:
            raise CheckError(f"run seed {prep.seed} exited {rc}: {output.strip()}")
        slots = checks.slots_from_csv((self.out / "records.csv").read_text())
        values = dict(
            line.split("=", 1) for line in (self.out / "summary.txt").read_text().splitlines()
        )
        where = f"run seed {prep.seed}"
        if values["policy"] != "joint" or int(values["seed"]) != prep.seed:
            raise CheckError(f"{where}: summary is for {values['policy']} seed {values['seed']}")
        if int(values["slots_simulated"]) != len(slots) or len(slots) != prep.slots:
            raise CheckError(f"{where}: {len(slots)} records, summary says {values['slots_simulated']}")
        trace = scenario.generate_trace(self.spec.profile, self.spec.bundle.horizon, prep.seed)
        if int(values["drain_slots"]) != len(slots) - trace.horizon:
            raise CheckError(f"{where}: drain_slots={values['drain_slots']} for {len(slots)} records")
        if float(values["total"]) != total:
            raise CheckError(f"{where}: total={values['total']}, the run gives {total!r}")
        reported = {key: float(values[key]) for key in ("j_bar", "entry_bar", "usage_avg", "delay_avg", "total")}
        problems = checks.check_run(trace, self.spec.bundle, "joint", slots, reported, checks.CSV_TOL)
        if problems:
            raise CheckError(f"{where}: " + "; ".join(problems[:5]))


_VERIFY_CHECKS = {
    "schedule_equivalence", "aux_equivalence", "energy_dominance", "energy_slack",
    "battery_bounds", "balance", "exclusivity", "shift_identity", "drift_bound",
    "delay_margin", "avg_delay_margin", "avg_delay_within_cap", "usage_mismatch",
    "jensen_usage", "jensen_delay", "frame_consistency", "lookahead_bound",
}


class DeskVerify(Workload):
    """`emsched verify` on the desk config: oracle and equivalence battery."""

    name = "desk-verify"
    config = "desk.yaml"
    verb = "verify"
    unit = "verifications"
    outputs = ("verify_report.txt",)
    fixed_seed = 8
    pool_size = 8

    def prepare(self, seed: int, fixed: bool = False) -> Prepared | None:
        spec = self.spec
        bundle = spec.bundle
        trace = scenario.generate_trace(spec.profile, bundle.horizon, seed)
        prep = Prepared(seed=seed, attempted=1)
        try:
            run = simulator.run_policy(trace, bundle, "joint")
        except InfeasibleSlot:
            outcome = _abort(trace, bundle, "joint", fixed)
            if outcome is None:
                return None
            kind, slot = outcome
            if kind == checks.KNOWN_FAULT:
                prep.failures.append(kind)
            prep.slots = slot
            prep.rc = 3
            prep.expect = (None, slot)
            return prep
        _check_completed(trace, bundle, "joint", run)
        frames, solutions = checks.frame_solutions(
            trace, run, bundle, spec.frame_length, spec.oracle_energy_step
        )
        problems = [p for f, sol in zip(frames, solutions) for p in checks.check_frame(f, sol, bundle)]
        if problems:
            raise CheckError(f"verify seed {seed}: " + "; ".join(problems[:5]))
        prep.slots = len(run.records)
        prep.expect = (checks.lookahead_gap(run, solutions), None)
        return prep

    def check(self, prep: Prepared, rc: int, output: str) -> None:
        gap, slot = prep.expect
        if gap is None:
            if rc != 3 or f"infeasible run: slot {slot}:" not in output:
                raise CheckError(f"verify seed {prep.seed}: expected exit 3 at slot {slot}, got {rc}")
            return
        if rc != 0:
            raise CheckError(f"verify seed {prep.seed} exited {rc}: {output.strip()[-300:]}")
        lines = (self.out / "verify_report.txt").read_text().splitlines()
        if lines[0] != f"seed={prep.seed}":
            raise CheckError(f"verify report is for {lines[0]}, expected seed {prep.seed}")
        names = {}
        for line in lines[1:]:
            status, rest = line.split(" ", 1)
            name = rest.split(":", 1)[0]
            if status != "PASS":
                raise CheckError(f"verify seed {prep.seed}: {line}")
            names[name] = rest
        if set(names) != _VERIFY_CHECKS:
            raise CheckError(f"verify seed {prep.seed}: checks {sorted(set(names) ^ _VERIFY_CHECKS)} missing or extra")
        achieved = float(names["lookahead_bound"].split("achieved=", 1)[1].split(" ", 1)[0])
        if abs(achieved - gap) > 1e-12 * max(1.0, abs(gap)):
            raise CheckError(f"verify seed {prep.seed}: lookahead gap {achieved!r}, frames give {gap!r}")


WORKLOADS = {cls.name: cls for cls in (DaySweep, DayRun, DeskVerify)}
