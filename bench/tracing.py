"""Spans around the public functions of each emsched module, from outside.

`Tracer.installed()` replaces each traced function with a wrapper at the name
its caller looks up: `cli` imports `run_policy`, `write_records`,
`generate_trace` and `validate_config` by name, so those are patched in `cli`;
`simulator` and `oracle` call `controller.<fn>` and `oracle.<fn>` through the
module, so those are patched on the module. Spans (name, start, end, parent,
operation id) are kept in compact arrays and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from program import cli, controller, oracle, simulator
from emsched.model import InfeasibleSlot

POLICIES = simulator.POLICIES

# Per-layer metrics, in the order they are reported. Unit per suffix.
TIMED = [
    "scenario.generate_trace",
    "model.validate_config",
    "controller.schedule_load",
    "controller.aux_solution",
    "controller.energy_control",
    "controller.update_queues",
    *(f"simulator.run_policy.{p}" for p in POLICIES),
    "simulator.ServiceLedger.active_demand",
    "simulator.write_records",
    "oracle.lookahead_optimum",
    "oracle.equivalence_battery",
    "oracle.record_checks",
    "oracle.lookahead_bound_check",
    "cli.load_experiment",
    "cli.run_sweep",
    "cli.run_checks",
    "cli.write_outputs",
]
COUNTED = [
    *(f"simulator.run_policy.{p}.{c}" for p in POLICIES for c in ("slots", "drain_slots", "aborted")),
    *(f"simulator.regime.{r}" for r in ("idle", "charge", "discharge")),
    "simulator.write_records.bytes",
    "oracle.equivalence_battery.states",
    "cli.write_outputs.bytes",
]
OVERHEAD = "tracing.overhead_pct"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        if name.startswith("simulator.run_policy."):
            units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units[OVERHEAD] = "%"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None):
        """Wrapper recording one span per call. `name` is a string or a
        function of the call's arguments; `after(args, result, exc)` adds counts."""
        fixed_id = self._name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(fixed_id if fixed_id is not None else self._name_id(name(args, kwargs)))
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                self.end[sid] = time.perf_counter()
                self.start[sid] = t0
                self._stack.pop()
                if after is not None:
                    after(args, kwargs, result, exc)

        return traced

    def _file_bytes(self, key: str):
        def after(args, kwargs, result, exc):
            if exc is None:
                self.counts[key] += os.path.getsize(args[0])
        return after

    def _run_policy_counts(self, args, kwargs, result, exc):
        policy = _policy(args, kwargs)
        prefix = f"simulator.run_policy.{policy}"
        if isinstance(exc, InfeasibleSlot):
            self.counts[f"{prefix}.aborted"] += 1
            self.counts[f"{prefix}.slots"] += exc.slot
        elif result is not None:
            self.counts[f"{prefix}.slots"] += len(result.records)
            self.counts[f"{prefix}.drain_slots"] += result.drain_slots
            for record in result.records:
                self.counts[f"simulator.regime.{record.regime}"] += 1

    def _states(self, args, kwargs, result, exc):
        self.counts["oracle.equivalence_battery.states"] += args[1]

    def _patches(self):
        """(owner, attribute, span name, count hook) for every traced function."""
        run_policy_name = lambda args, kwargs: f"simulator.run_policy.{_policy(args, kwargs)}"  # noqa: E731
        return [
            (cli, "generate_trace", "scenario.generate_trace", None),
            (cli, "validate_config", "model.validate_config", None),
            (controller, "schedule_load", "controller.schedule_load", None),
            (controller, "aux_solution", "controller.aux_solution", None),
            (controller, "energy_control", "controller.energy_control", None),
            (controller, "update_queues", "controller.update_queues", None),
            (cli, "run_policy", run_policy_name, self._run_policy_counts),
            (simulator.ServiceLedger, "active_demand", "simulator.ServiceLedger.active_demand", None),
            (cli, "write_records", "simulator.write_records", self._file_bytes("simulator.write_records.bytes")),
            (oracle, "lookahead_optimum", "oracle.lookahead_optimum", None),
            (oracle, "equivalence_battery", "oracle.equivalence_battery", self._states),
            (oracle, "feasibility_checks", "oracle.record_checks", None),
            (oracle, "drift_checks", "oracle.record_checks", None),
            (oracle, "margin_checks", "oracle.record_checks", None),
            (oracle, "jensen_check", "oracle.record_checks", None),
            (oracle, "lookahead_bound_check", "oracle.lookahead_bound_check", None),
            (cli, "load_experiment", "cli.load_experiment", None),
            (cli, "run_sweep", "cli.run_sweep", None),
            (cli, "run_checks", "cli.run_checks", None),
            *(
                (cli, fn, "cli.write_outputs", self._file_bytes("cli.write_outputs.bytes"))
                for fn in ("write_sweep", "write_summary", "write_check_report")
            ),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def metrics(self, overhead_pct: float, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round: calls, busy time (sum of span
        durations), self time (duration minus the part its direct child spans
        cover), and counts."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        busy = np.bincount(name, weights=duration, minlength=n_names)
        self_time = np.bincount(name, weights=duration - child_time, minlength=n_names)
        out: dict[str, float] = {}
        for metric in TIMED:
            nid = self._ids.get(metric)
            out[f"{metric}.calls"] = int(calls[nid]) / rounds if nid is not None else 0.0
            out[f"{metric}.busy_s"] = float(busy[nid]) / rounds if nid is not None else 0.0
            if metric.startswith("simulator.run_policy."):
                out[f"{metric}.self_s"] = float(self_time[nid]) / rounds if nid is not None else 0.0
        for metric in COUNTED:
            out[metric] = self.counts[metric] / rounds
        out[OVERHEAD] = overhead_pct
        return out


def _policy(args, kwargs) -> str:
    return args[2] if len(args) > 2 else kwargs["policy"]
