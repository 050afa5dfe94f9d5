"""Synthetic price / solar / load processes and trace file I/O.

A trace is a day (or any horizon) of per-slot inputs: the grid price, the
renewable energy harvested, and at most one arriving load task per slot. The
generator follows a three-stage daily pattern: prices take exactly three
values (high / mid / low) on configurable hour-of-day windows, and solar and
load amounts are drawn per slot from a normal distribution with the stage
mean and standard deviation, truncated at zero by clamping. Load duration is
an integer drawn uniformly from a configured interval, and the per-slot
intensity is total load divided by duration.

All generated quantities are quantized to 9 decimal digits so that writing a
trace to CSV and reading it back reproduces it exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import GridParams

_DECIMALS = 9
_CSV_HEADER = ["slot", "price", "renewable", "intensity", "duration", "max_delay"]


class TraceFormatError(ValueError):
    """A trace file does not conform to the CSV schema."""


class _LoadTaskFields(NamedTuple):
    arrival_slot: int
    intensity: float
    duration: int
    max_delay: int


class LoadTask(_LoadTaskFields):
    """One energy request: `intensity` kWh in each of `duration` consecutive slots.

    Service may start anywhere from `arrival_slot` to `arrival_slot + max_delay`.
    An immutable `typing.NamedTuple` that refuses a bad field however it is
    made: by the constructor, `_make` or `_replace`.
    """

    __slots__ = ()

    def __new__(cls, arrival_slot: int, intensity: float, duration: int, max_delay: int):
        if duration < 1:
            raise ValueError(f"duration >= 1 required, got {duration}")
        if not 0.0 <= intensity < math.inf:
            raise ValueError(f"intensity >= 0 and finite required, got {intensity}")
        if max_delay < 0:
            raise ValueError(f"max_delay >= 0 required, got {max_delay}")
        return tuple.__new__(cls, (arrival_slot, intensity, duration, max_delay))

    @classmethod
    def _make(cls, iterable):
        # The inherited `_make`, which `_replace` calls, is a bare
        # `tuple.__new__` that would skip the checks above.
        return cls(*iterable)


class SlotInput(NamedTuple):
    slot: int
    price: float
    renewable: float
    task: LoadTask | None = None


@dataclass(frozen=True)
class Trace:
    slots: tuple[SlotInput, ...]

    def __post_init__(self):
        for i, s in enumerate(self.slots):
            if s.slot != i:
                raise ValueError(f"slots must be contiguous from 0: index {i} holds slot {s.slot}")
            if s.task is not None and s.task.arrival_slot != i:
                raise ValueError(f"task at slot {i} claims arrival_slot {s.task.arrival_slot}")

    @property
    def horizon(self) -> int:
        return len(self.slots)

    def max_task_delay(self) -> int:
        """Largest per-load delay cap present (0 for a task-free trace)."""
        return max((s.task.max_delay for s in self.slots if s.task is not None), default=0)


@dataclass(frozen=True)
class StageProfile:
    """Three-stage daily pattern for price, solar, and load generation.

    Means are per-slot energies (kWh). Hour windows are half-open [start, end)
    hour-of-day intervals with 0 <= start < end <= 24; slots outside the high
    and mid windows are low.
    """

    price_high: float = 0.118
    price_mid: float = 0.099
    price_low: float = 0.063
    solar_mean_high: float = 1.98 / 12
    solar_mean_mid: float = 0.96 / 12
    solar_mean_low: float = 0.005 / 12
    load_mean_high: float = 2.4 / 12
    load_mean_mid: float = 1.38 / 12
    load_mean_low: float = 0.6 / 12
    solar_std_ratio: float = 0.4
    load_std_ratio: float = 0.2
    duration_min: int = 1
    duration_max: int = 12
    max_delay: int = 18
    high_hours: tuple[tuple[float, float], ...] = ((11.0, 17.0),)
    mid_hours: tuple[tuple[float, float], ...] = ((7.0, 11.0), (17.0, 19.0))
    slot_minutes: int = 5

    def validate(self) -> None:
        for name in (
            "price_high", "price_mid", "price_low",
            "solar_mean_high", "solar_mean_mid", "solar_mean_low", "solar_std_ratio",
            "load_mean_high", "load_mean_mid", "load_mean_low", "load_std_ratio",
        ):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not (self.price_high >= self.price_mid >= self.price_low):
            raise ValueError(
                f"price stages must be ordered high >= mid >= low, got "
                f"{self.price_high}, {self.price_mid}, {self.price_low}"
            )
        if self.duration_min < 1:
            raise ValueError(f"duration_min >= 1 required, got {self.duration_min}")
        if self.duration_max < self.duration_min:
            raise ValueError("duration_max must be >= duration_min")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.slot_minutes < 1:
            raise ValueError("slot_minutes must be >= 1")
        for name in ("high_hours", "mid_hours"):
            for start, end in getattr(self, name):
                if not (0.0 <= start < end <= 24.0):
                    raise ValueError(f"{name} window [{start}, {end}] must satisfy 0 <= start < end <= 24")

    def _stage_arrays(self, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each slot's price, solar mean and load mean, by the stage its hour
        of day falls in; a slot in both a high and a mid window is high."""
        hour = np.arange(horizon) * self.slot_minutes / 60.0 % 24.0

        def within(windows: tuple[tuple[float, float], ...]) -> np.ndarray:
            mask = np.zeros(horizon, dtype=bool)
            for lo, hi in windows:
                mask |= (lo <= hour) & (hour < hi)
            return mask

        high, mid = within(self.high_hours), within(self.mid_hours)

        def by_stage(at_high: float, at_mid: float, at_low: float) -> np.ndarray:
            return np.where(high, at_high, np.where(mid, at_mid, at_low))

        return (
            by_stage(self.price_high, self.price_mid, self.price_low),
            by_stage(self.solar_mean_high, self.solar_mean_mid, self.solar_mean_low),
            by_stage(self.load_mean_high, self.load_mean_mid, self.load_mean_low),
        )


def generate_trace(profile: StageProfile, horizon: int, seed: int) -> Trace:
    """Draw a seeded trace: deterministic prices, stochastic solar/load/durations.

    The same (profile, horizon, seed) always yields an identical trace. Draw
    order is fixed: the solar vector, then the load vector, then durations.
    """
    profile.validate()
    if horizon < 1:
        raise ValueError(f"horizon >= 1 required, got {horizon}")

    price, solar_mean, load_mean = profile._stage_arrays(horizon)
    rng = np.random.default_rng(seed)

    solar = rng.normal(solar_mean, profile.solar_std_ratio * solar_mean)
    load = rng.normal(load_mean, profile.load_std_ratio * load_mean)
    durations = rng.integers(profile.duration_min, profile.duration_max + 1, size=horizon)

    solar = np.round(np.maximum(solar, 0.0), _DECIMALS)
    load = np.maximum(load, 0.0)
    intensity = np.round(load / durations, _DECIMALS)

    # .tolist() gives the Python floats and ints a loaded trace holds.
    max_delay = profile.max_delay
    slots = tuple(
        SlotInput(t, p, r, LoadTask(t, i, d, max_delay))
        for t, p, r, i, d in zip(
            range(horizon), price.tolist(), solar.tolist(), intensity.tolist(), durations.tolist()
        )
    )
    return Trace(slots=slots)


def validate_trace(trace: Trace, grid: GridParams) -> list[str]:
    """List every price or renewable bounds violation in the trace; empty means
    valid. Task fields need no check here: `LoadTask` refuses bad ones."""
    problems: list[str] = []
    for s in trace.slots:
        if not (grid.p_min <= s.price <= grid.p_max):
            problems.append(
                f"slot {s.slot}: price {s.price} outside [{grid.p_min}, {grid.p_max}]"
            )
        if not 0.0 <= s.renewable < math.inf:
            problems.append(f"slot {s.slot}: renewable {s.renewable} is negative or not finite")
    return problems


def _fmt(x: float) -> str:
    s = f"{x:.{_DECIMALS}f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def save_trace(trace: Trace, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for s in trace.slots:
            if s.task is None:
                tail = ["", "", ""]
            else:
                tail = [_fmt(s.task.intensity), str(s.task.duration), str(s.task.max_delay)]
            writer.writerow([str(s.slot), _fmt(s.price), _fmt(s.renewable)] + tail)


def load_trace(path: str | Path) -> Trace:
    """Parse and validate a trace CSV; malformed rows raise with line numbers."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise TraceFormatError(
                f"{path}: line 1: expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        slots: list[SlotInput] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_CSV_HEADER):
                raise TraceFormatError(f"{path}: line {lineno}: expected {len(_CSV_HEADER)} fields, got {len(row)}")
            try:
                slot = int(row[0])
                price = float(row[1])
                renewable = float(row[2])
            except ValueError as exc:
                raise TraceFormatError(f"{path}: line {lineno}: {exc}") from None
            if slot != len(slots):
                raise TraceFormatError(
                    f"{path}: line {lineno}: slots must be contiguous from 0, expected {len(slots)}, got {slot}"
                )
            if not 0.0 <= renewable < math.inf:
                raise TraceFormatError(f"{path}: line {lineno}: renewable must be >= 0 and finite, got {renewable}")
            triple = [cell.strip() for cell in row[3:6]]
            if all(cell == "" for cell in triple):
                task = None
            elif any(cell == "" for cell in triple):
                raise TraceFormatError(
                    f"{path}: line {lineno}: intensity,duration,max_delay must be all present or all empty"
                )
            else:
                try:
                    task = LoadTask(slot, float(triple[0]), int(triple[1]), int(triple[2]))
                except ValueError as exc:  # a cell that does not parse, or a value LoadTask refuses
                    raise TraceFormatError(f"{path}: line {lineno}: {exc}") from None
            slots.append(SlotInput(slot=slot, price=price, renewable=renewable, task=task))
    return Trace(slots=tuple(slots))
