"""Independent checks on the program's outputs, shared by every workload.

Every check recomputes its expectation from the input trace and the model
parameters with its own arithmetic; nothing is compared against a stored copy
of earlier output. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple, Sequence

from program import controller, oracle, simulator
from emsched.model import InfeasibleSlot, ModelBundle
from emsched.scenario import Trace

# The known fault: energy_control picks its regime before it checks e_max, so
# it aborts although a discharge could cover the shortfall.
KNOWN_FAULT = "energy_control_grid_cap"
# A slot no admissible action can serve; aborting is the correct result.
INFEASIBLE_TRACE = "infeasible_trace"

EXACT_TOL = 1e-9  # records held in memory at full precision
CSV_TOL = 1e-7  # records read back from records.csv, written with 9 digits


class Slot(NamedTuple):
    """One simulated slot, as a run's records or records.csv report it."""

    slot: int
    price: float
    renewable: float
    demand: float
    e: float
    q: float
    d_rate: float
    s_w: float
    s_r: float
    delay: int
    b: float


def slots_from_records(records) -> list[Slot]:
    return [
        Slot(r.slot, r.price, r.renewable, r.demand, r.e, r.q, r.d_rate, r.s_w, r.s_r, r.delay, r.b)
        for r in records
    ]


def slots_from_csv(text: str) -> list[Slot]:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    expected = ["slot", "price", "renewable", "demand", "E", "Q", "D", "S_w", "S_r", "delay", "B"]
    if header[: len(expected)] != expected:
        raise ValueError(f"records.csv header {header} does not start with {expected}")
    return [
        Slot(int(r[0]), *(float(x) for x in r[1:9]), int(r[9]), float(r[10]))
        for r in rows[1:]
    ]


def _windows(trace: Trace, delays: Sequence[int]) -> list[tuple[int, int, float]]:
    """(start, end, intensity) of every task, in arrival order."""
    out = []
    for s in trace.slots:
        if s.task is not None:
            start = s.slot + delays[s.slot]
            out.append((start, start + s.task.duration, s.task.intensity))
    return out


def _demand(windows: list[tuple[int, int, float]], n: int) -> list[float]:
    demand = [0.0] * n
    for start, end, rho in windows:
        for t in range(start, min(end, n)):
            demand[t] += rho
    return demand


def zero_delay_shortfall_slot(trace: Trace, bundle: ModelBundle) -> int | None:
    """First slot where serving every load on arrival needs more than e_max
    from the grid after the renewable is used, or None. Drain slots after the
    horizon have no renewable."""
    windows = _windows(trace, [0] * trace.horizon)
    n = max([trace.horizon] + [end for _, end, _ in windows])
    demand = _demand(windows, n)
    for t, dem in enumerate(demand):
        renewable = trace.slots[t].renewable if t < trace.horizon else 0.0
        if dem - min(dem, renewable) > bundle.grid.e_max + 1e-12:
            return t
    return None


def no_storage_j(trace: Trace) -> float:
    """J of the no-storage baseline from the trace alone: every load served on
    arrival, the grid buys whatever the renewable cannot cover."""
    demand = _demand(_windows(trace, [0] * trace.horizon), trace.horizon)
    return sum(
        s.price * max(demand[s.slot] - s.renewable, 0.0) for s in trace.slots
    ) / trace.horizon


def cost_terms(slots: Sequence[Slot], bundle: ModelBundle) -> dict[str, float]:
    """Objective terms recomputed from in-horizon records and the cost formulas."""
    horizon = bundle.horizon
    battery, weights = bundle.battery, bundle.weights
    in_horizon = slots[:horizon]
    j = sum(s.e * s.price for s in in_horizon) / horizon
    entry = sum(
        (battery.c_rc if s.q + s.s_r > 0.0 else 0.0) + (battery.c_dc if s.d_rate > 0.0 else 0.0)
        for s in in_horizon
    ) / horizon
    usage = sum(abs(s.q + s.s_r - s.d_rate) for s in in_horizon) / horizon
    delay = sum(s.delay for s in in_horizon) / horizon
    k_u = bundle.costs.usage.k
    k_d = bundle.costs.delay.k
    total = j + entry + k_u * usage * usage + weights.alpha * k_d * delay * delay
    return {"j_bar": j, "entry_bar": entry, "usage_avg": usage, "delay_avg": delay, "total": total}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_run(
    trace: Trace,
    bundle: ModelBundle,
    policy: str,
    slots: Sequence[Slot],
    reported: dict[str, float],
    tol: float,
) -> list[str]:
    """Check one completed run against its trace and the method's properties.

    `reported` holds the run's own figures (any of j_bar, total, delay_avg);
    each is compared with its recomputation.
    """
    problems: list[str] = []
    battery, grid = bundle.battery, bundle.grid
    horizon = trace.horizon

    delays = [s.delay for s in slots[:horizon]]
    if len(delays) < horizon:
        return [f"{policy}: {len(slots)} records for a {horizon}-slot horizon"]
    windows = _windows(trace, delays)
    n_expected = max([horizon] + [end for _, end, _ in windows])
    if len(slots) != n_expected:
        problems.append(
            f"{policy}: {len(slots)} slots simulated, but the last task ends at slot {n_expected}"
        )
    demand = _demand(windows, len(slots))

    b = battery.b_init
    for t, s in enumerate(slots):
        where = f"{policy} slot {t}"
        if s.slot != t:
            problems.append(f"{where}: record numbered {s.slot}")
        task = trace.slots[t].task if t < horizon else None
        if task is None:
            if s.delay != 0:
                problems.append(f"{where}: delay {s.delay} without an arriving task")
        elif policy != "joint" and s.delay != 0:
            problems.append(f"{where}: {policy} delayed a load by {s.delay}")
        elif s.delay not in (0, 1, task.max_delay) or s.delay > task.max_delay:
            problems.append(f"{where}: delay {s.delay} is not 0, 1 or the cap {task.max_delay}")
        if abs(s.demand - demand[t]) > tol:
            problems.append(f"{where}: demand {s.demand} but trace and delays give {demand[t]}")
        balance = s.e - s.q + s.s_w + s.d_rate - s.demand
        if abs(balance) > tol:
            problems.append(f"{where}: supply-demand balance off by {balance:.3e}")
        renewable = trace.slots[t].renewable if t < horizon else 0.0
        if s.s_w > min(s.demand, renewable) + tol:
            problems.append(f"{where}: S_w {s.s_w} exceeds min(demand, renewable)")
        if s.e < -tol or s.e > grid.e_max + tol:
            problems.append(f"{where}: grid purchase {s.e} outside [0, e_max]")
        if s.q + s.s_r > 0.0 and s.d_rate > 0.0:
            problems.append(f"{where}: charges and discharges at once")
        if policy == "no_storage" and (s.q or s.s_r or s.d_rate):
            problems.append(f"{where}: no_storage moved energy through the battery")
        if abs(s.b - b) > tol:
            problems.append(f"{where}: battery {s.b} but the flows give {b}")
        b = s.b + s.q + s.s_r - s.d_rate
        if b < battery.b_min - tol or b > battery.b_max + tol:
            problems.append(f"{where}: battery leaves [b_min, b_max] at {b}")
        if len(problems) > 20:
            break

    terms = cost_terms(slots, bundle)
    for key, value in reported.items():
        if not _close(value, terms[key], tol):
            problems.append(f"{policy}: reported {key}={value!r}, recomputed {terms[key]!r}")
    if policy == "no_storage":
        j = no_storage_j(trace)
        if not _close(terms["j_bar"], j, tol):
            problems.append(f"no_storage: J {terms['j_bar']!r} but the trace alone gives {j!r}")
    return problems


def classify_abort(trace: Trace, bundle: ModelBundle, policy: str) -> tuple[str, int]:
    """Re-run a policy that aborted and name the cause: (kind, abort slot).

    For joint and storage_only the energy rule's inputs at the abort show
    whether a discharge could have kept the purchase within e_max (the known
    fault) or not (an infeasible trace). For no_storage the trace alone must
    show a slot whose zero-delay shortfall exceeds e_max.
    """
    if policy == "no_storage":
        try:
            simulator.run_policy(trace, bundle, policy)
        except InfeasibleSlot as exc:
            first = zero_delay_shortfall_slot(trace, bundle)
            kind = INFEASIBLE_TRACE if first == exc.slot else f"unexplained_abort(slot {exc.slot})"
            return kind, exc.slot
        raise RuntimeError("no_storage completed on re-run after aborting")

    seen: list[tuple] = []
    original = controller.energy_control

    def capture(state, demand_l, s_w, renewable, price, battery, grid):
        seen.append((state, demand_l, s_w))
        return original(state, demand_l, s_w, renewable, price, battery, grid)

    controller.energy_control = capture
    try:
        simulator.run_policy(trace, bundle, policy)
    except InfeasibleSlot as exc:
        if not seen or seen[-1][0].slot != exc.slot:
            return f"abort_outside_energy_control(slot {exc.slot})", exc.slot
        state, demand_l, s_w = seen[-1]
        shortfall = demand_l - s_w - bundle.grid.e_max
        dischargeable = min(bundle.battery.d_max_rate, state.b - bundle.battery.b_min, demand_l - s_w)
        return (KNOWN_FAULT if shortfall <= dischargeable + 1e-12 else INFEASIBLE_TRACE), exc.slot
    finally:
        controller.energy_control = original
    raise RuntimeError(f"{policy} completed on re-run after aborting")


def check_frame(frame, sol, bundle: ModelBundle) -> list[str]:
    """A look-ahead frame plan must be feasible, and no dearer than serving
    every in-frame load on arrival with the battery idle, when that is feasible."""
    problems: list[str] = []
    battery, grid, weights = bundle.battery, bundle.grid, bundle.weights
    T = frame.length
    where = f"frame {frame.start}"
    delays = dict(sol.delays)
    in_frame = [0] * T
    for p, s in enumerate(frame.slots):
        if s.task is not None:
            d = delays.get(s.slot)
            if d is None or d < 0 or d > s.task.max_delay:
                problems.append(f"{where}: task at {s.slot} has delay {d}")
                continue
            for t in range(p + d, min(p + d + s.task.duration, T)):
                in_frame[t] += s.task.intensity
    if sol.delay_sum != sum(delays.values()) or sol.delay_sum > T * weights.d_avg_max:
        problems.append(f"{where}: delay sum {sol.delay_sum} wrong or over the frame budget")

    b = frame.boundary_b
    purchase_entry = usage = 0.0
    for p, (slot, dec) in enumerate(zip(frame.slots, sol.decisions)):
        if abs(dec.demand - in_frame[p]) > EXACT_TOL:
            problems.append(f"{where}: slot {slot.slot} demand {dec.demand}, delays give {in_frame[p]}")
        if abs(dec.e - dec.q + dec.s_w + dec.d_rate - dec.demand) > EXACT_TOL:
            problems.append(f"{where}: slot {slot.slot} balance off")
        if dec.s_w > min(dec.demand, slot.renewable) + EXACT_TOL or dec.s_r > slot.renewable - dec.s_w + EXACT_TOL:
            problems.append(f"{where}: slot {slot.slot} uses more renewable than it has")
        if dec.e < -EXACT_TOL or dec.e > grid.e_max + EXACT_TOL:
            problems.append(f"{where}: slot {slot.slot} purchase {dec.e} outside [0, e_max]")
        if dec.q + dec.s_r > 0.0 and dec.d_rate > 0.0:
            problems.append(f"{where}: slot {slot.slot} charges and discharges at once")
        if dec.q + dec.s_r > battery.r_max + EXACT_TOL or dec.d_rate > battery.d_max_rate + EXACT_TOL:
            problems.append(f"{where}: slot {slot.slot} exceeds a battery rate limit")
        b += dec.q + dec.s_r - dec.d_rate
        if b < battery.b_min - EXACT_TOL or b > battery.b_max + EXACT_TOL:
            problems.append(f"{where}: battery leaves its window at {b}")
        purchase_entry += dec.e * dec.price
        purchase_entry += (battery.c_rc if dec.q + dec.s_r > 0.0 else 0.0) + (battery.c_dc if dec.d_rate > 0.0 else 0.0)
        usage += abs(dec.q + dec.s_r - dec.d_rate)
    target = T * weights.delta_u / bundle.horizon
    if abs((b - frame.boundary_b) - target) > EXACT_TOL:
        problems.append(f"{where}: net battery flow {b - frame.boundary_b} misses the target {target}")
    delay_avg = sol.delay_sum / T
    u = (
        purchase_entry / T
        + bundle.costs.usage.k * (usage / T) ** 2
        + weights.alpha * bundle.costs.delay.k * delay_avg * delay_avg
    )
    if not _close(u, sol.u_opt, EXACT_TOL):
        problems.append(f"{where}: u_opt {sol.u_opt!r}, plan costs {u!r}")

    # Zero delay, idle battery: buy whatever the renewable cannot cover.
    zero = [0.0] * T
    for p, s in enumerate(frame.slots):
        if s.task is not None:
            for t in range(p, min(p + s.task.duration, T)):
                zero[t] += s.task.intensity
    buys = [max(dem - s.renewable, 0.0) for dem, s in zip(zero, frame.slots)]
    if abs(target) <= EXACT_TOL and all(e <= grid.e_max + 1e-12 for e in buys):
        idle_cost = sum(e * s.price for e, s in zip(buys, frame.slots)) / T
        if sol.u_opt > idle_cost + 1e-12:
            problems.append(f"{where}: u_opt {sol.u_opt!r} above the idle plan's {idle_cost!r}")
    return problems


def frame_solutions(trace: Trace, run, bundle: ModelBundle, frame_length: int, energy_step: float):
    frames = oracle.frames_from_run(trace, run, frame_length)
    grid = oracle.GridSpec(energy_step=energy_step)
    return frames, [oracle.lookahead_optimum(f, bundle, grid) for f in frames]


def lookahead_gap(run, solutions) -> float:
    """The lookahead_bound check's achieved value: run total minus mean frame optimum."""
    return run.total - sum(sol.u_opt for sol in solutions) / len(solutions)
