"""Brute-force ground truth and bound checkers for the online controller.

Three layers of independent verification live here:

* exact per-slot minimizers of each control subproblem (every delay, a
  clipped stationary point per auxiliary stand-in, five energy flows), used
  to confirm the closed-form rules are actual minimizers,
* an exhaustive short-frame look-ahead optimizer (non-causal, sees the whole
  frame) that lower-bounds what any policy could pay on that frame under the
  frame-local reference constraints, and
* checkers for the performance bound, the delay-margin bound, the usage
  mismatch bound, and Jensen consistency of the auxiliary averages.

The look-ahead optimizer is deliberately a lattice search, not an LP/QP: at
desk scale it is exact within one grid step per energy coordinate and needs
no solver to trust. Its lattice flows per slot (`_slot_flows`) take the
renewable surplus before the grid; v >= 0 and prices >= 0 make that exact.

A single slot's decisions need no lattice: its energy bound is linear in
each direction's flow, so `_energy_minima` prices the five points where its
exact minimum lies, and each auxiliary objective is a 1-D convex quadratic,
so `_aux_mismatches` computes its argmin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import controller
from .controller import ControllerState
from .model import (
    GRID_CAP_TOL,
    BatteryParams,
    GridParams,
    InfeasibleSlot,
    ModelBundle,
    QuadraticCost,
)
from .scenario import LoadTask, SlotInput, Trace
from .simulator import RunSummary, SlotRecord

_FEAS_TOL = 1e-9
_MAX_NODES = 1e8  # largest frame search `lookahead_optima` enumerates
_BATCH_CELLS = 1 << 16  # delay-combination cells `lookahead_optima` sets up at once; bounds only its memory


class SearchSpaceError(RuntimeError):
    """The requested lattice search of the frame at slot `frame_start` is too large
    to enumerate. `suggested_step` is None when no energy step could fit it, only a shorter frame."""

    def __init__(self, nodes: float, limit: float, suggested_step: float | None, frame_start: int):
        self.nodes, self.limit, self.suggested_step, self.frame_start = nodes, limit, suggested_step, frame_start
        advice = f"try energy_step >= {suggested_step:.4g}" if suggested_step else "shorten experiment.frame_length"
        advice += f" (frame at slot {frame_start})"
        super().__init__(f"search space of ~{nodes:.2e} nodes exceeds the {limit:.0e} limit; {advice}")


class FrameWindowError(ValueError):
    """The battery window of the frame at slot `frame_start` holds no plan: the
    frame's boundary level (`target` False) or its net-flow target (`target`
    True) lies outside it."""

    def __init__(self, message: str, frame_start: int, target: bool):
        self.frame_start, self.target = frame_start, target
        super().__init__(f"{message} (frame at slot {frame_start})")


@dataclass(frozen=True)
class GridSpec:
    """Energy lattice resolution of the frame look-ahead search."""

    energy_step: float = 1e-3


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality, achieved <= bound, held to within `tol`."""

    name: str
    achieved: float
    bound: float
    detail: str = ""
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return self.achieved <= self.bound + self.tol

    @property
    def margin(self) -> float:
        return self.bound - self.achieved


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __iter__(self):
        return iter(self.checks)


# ---------------------------------------------------------------------------
# Per-slot subproblem oracles
# ---------------------------------------------------------------------------


class _SlotFlows(NamedTuple):
    """Lattice energy flows, a column per flow and a row per slot (`_slot_flows`); `k` and `entry` are shared."""

    k: np.ndarray  # signed lattice index: k > 0 charges k*step, k < 0 discharges -k*step
    e: np.ndarray
    q: np.ndarray
    d_rate: np.ndarray
    s_r: np.ndarray
    entry: np.ndarray
    ok: np.ndarray  # the flow is feasible


def _slot_flows(
    residual: float | np.ndarray,
    surplus: float | np.ndarray,
    battery: BatteryParams,
    grid: GridParams,
    step: float,
) -> _SlotFlows:
    """Every lattice energy flow of each slot, as the frame oracle prices them.

    1-D `residual` and `surplus` give a row per slot, bit for bit the scalar
    call's. The order is fixed: idle, then charges of k*step for k = 1..k_charge,
    then discharges of k*step for k = 1..k_discharge, so a first minimum
    prefers idle and smaller flows. A charge takes the surplus (>= 0) first:
    s_r = min(flow, surplus), q = flow - s_r, e = residual + q - d_rate. A
    flow is feasible when e <= e_max within the rule's GRID_CAP_TOL, a charge
    <= r_max and a discharge <= d_max_rate within _FEAS_TOL, and a discharge
    <= residual to float rounding (1e-12), so no feasible flow buys a
    negative amount.

    One surplus-first flow per charge amount is exact. Moving s of a fixed
    charge from the grid to the surplus lowers e by s and no battery limit
    moves, so the per-slot bound changes by s*key2 - s*key1 = -s*v*price and
    the frame cost by -s*price, both <= 0 as validate_config enforces v >= 0
    and p_min >= 0. The (s_r, q) plane needs no search.
    """
    residual, surplus = np.asarray(residual)[..., None], np.asarray(surplus)[..., None]
    k_charge, k_discharge = _flow_counts(battery, step)
    k = np.concatenate((np.arange(k_charge + 1), -np.arange(1, k_discharge + 1)))
    flow = k * step
    charge = np.maximum(flow, 0.0)
    d_rate = charge - flow  # exact, and +0.0 where the flow is not a discharge
    s_r = np.minimum(charge, surplus)
    q = charge - s_r
    e = residual + q - d_rate
    entry = np.where(k > 0, battery.c_rc, battery.c_dc)
    entry[0] = 0.0  # idle
    ok = (
        (e <= grid.e_max + GRID_CAP_TOL)
        & (charge <= battery.r_max + _FEAS_TOL)
        & (d_rate <= battery.d_max_rate + _FEAS_TOL)
        & (d_rate <= residual + 1e-12)
    )
    return _SlotFlows(k, e, q, np.broadcast_to(d_rate, e.shape), s_r, entry, ok)


def _flow_counts(battery: BatteryParams, step: float) -> tuple[int, int]:
    """Lattice steps in the largest charge (r_max) and the largest discharge (d_max_rate)."""
    return math.floor(battery.r_max / step + _FEAS_TOL), math.floor(battery.d_max_rate / step + _FEAS_TOL)


def _energy_minima(residual, surplus, key1, key2, v: float, battery: BatteryParams, grid: GridParams) -> np.ndarray:
    """Each slot's exact least e*key1 + s_r*key2 + v*entry over its feasible
    flows, inf if none, for 1-D residual, surplus, key1 and key2. The bound is
    linear in each direction's flow, and a charge bends only once it has taken
    the surplus (first, as `_slot_flows` argues), so the minimum is at one of
    five points, a column each: idle; a charge of min(surplus, r_max) from the
    surplus, and the same topped up from the grid to min(r_max, surplus +
    e_max - residual); a discharge of min(d_max_rate, residual); and the
    forced discharge residual - e_max, if in (0, d_max_rate]. A point is
    feasible when e <= e_max + GRID_CAP_TOL; no battery level is known here."""
    zero = np.zeros_like(residual)
    s_r = np.minimum(surplus, battery.r_max)
    top_up = np.maximum(np.minimum(battery.r_max - s_r, grid.e_max - residual), 0.0)
    s_r, q = np.column_stack((zero, s_r, s_r, zero, zero)), np.column_stack((zero, zero, top_up, zero, zero))
    d_rate = np.column_stack((zero, zero, zero, np.minimum(battery.d_max_rate, residual), residual - grid.e_max))
    e = residual[:, None] + q - d_rate
    ok = (e <= grid.e_max + GRID_CAP_TOL) & (0.0 <= d_rate) & (d_rate <= battery.d_max_rate)
    return np.where(ok, _slot_bound(e, q, d_rate, s_r, key1[:, None], key2[:, None], v, battery), np.inf).min(axis=1)


def _slot_bound(e, q, d_rate, s_r, key1, key2, v: float, battery: BatteryParams) -> np.ndarray:
    """The per-slot bound e*key1 + s_r*key2 + v*entry of energy flows given as
    arrays, with one fee per direction the battery moves: bit for bit
    `controller.energy_objective` of each element, as the oracle's own sum."""
    entry = np.where(q + s_r > 0.0, battery.c_rc, 0.0) + np.where(d_rate > 0.0, battery.c_dc, 0.0)
    return e * key1 + s_r * key2 + v * entry


# ---------------------------------------------------------------------------
# Frame look-ahead optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A contiguous slice of the horizon plus the battery level entering it."""

    start: int
    slots: tuple[SlotInput, ...]
    boundary_b: float

    def __post_init__(self):
        if not self.slots:
            raise ValueError("frame must contain at least one slot")
        for i, s in enumerate(self.slots):
            if s.slot != self.start + i:
                raise ValueError(f"frame slots not contiguous at index {i}")

    @property
    def length(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class OracleSolution:
    """Optimal frame plan found by the lattice search.

    `decisions` holds one `SlotRecord` per frame slot, as a run does: the
    slot's inputs, demand and flows, `b` the battery level entering the slot
    (chaining from the frame's boundary level), `delay` the delay of the task
    arriving in the slot (0 when none), and `regime` the flow's direction. A
    plan has no queues, so z, x, h_u, h_d, gamma_u and gamma_d are 0.0.
    """

    frame_start: int
    frame_length: int
    u_opt: float
    energy_step: float
    decisions: tuple[SlotRecord, ...]
    delays: tuple[tuple[int, int], ...]  # (arrival slot, chosen delay)
    delay_sum: int


def frames_from_run(trace: Trace, run: RunSummary, frame_length: int) -> list[Frame]:
    """Partition the horizon into frames, conditioning each on the run's battery level."""
    horizon = trace.horizon
    if frame_length < 1 or horizon % frame_length != 0:
        raise ValueError(f"frame length {frame_length} must divide the horizon {horizon}")
    return [
        Frame(start, trace.slots[start : start + frame_length], boundary_b=run.records[start].b)
        for start in range(0, horizon, frame_length)
    ]


def lookahead_optimum(frame: Frame, bundle: ModelBundle, grid: GridSpec = GridSpec()) -> OracleSolution:
    """Exhaustively solve the frame-local reference problem on an energy lattice:
    the one-frame case of `lookahead_optima`."""
    return lookahead_optima((frame,), bundle, grid)[0]


def lookahead_optima(
    frames: Sequence[Frame], bundle: ModelBundle, grid: GridSpec = GridSpec()
) -> list[OracleSolution]:
    """Exhaustively solve each frame's frame-local reference problem on an energy lattice.

    Search space: all per-arrival delay choices (delays whose service falls
    entirely past the frame are merged into one representative), crossed with
    all lattice-valued battery flows per slot. The plan must respect battery
    bounds every slot, end with frame-total net flow equal to the frame's
    share of the target shift, and keep the frame-averaged delay within the
    long-run cap. Averaged usage and delay are priced through the convex cost
    functions once per frame, which is where the optimum of the frame-local
    auxiliary variables lands.

    Every frame's search space is counted before any is built. Batches of
    frames of one length, of at most _BATCH_CELLS combination cells unless one
    frame has more, share one set-up (`_solve_batch`). A frame that fails its
    count raises once the frames before it are solved: errors keep frame order.
    """
    h = grid.energy_step
    battery, weights = bundle.battery, bundle.weights
    k_charge, k_discharge = _flow_counts(battery, h)
    solutions, batch, cells, error = [], [], 0, None
    for frame in frames:
        # Battery offsets are relative to the boundary level; the DP's window is exactly the feasible one.
        T = frame.length
        o_lo = max(-T * k_discharge, int(math.ceil((battery.b_min - frame.boundary_b) / h - _FEAS_TOL)))
        o_hi = min(T * k_charge, int(math.floor((battery.b_max - frame.boundary_b) / h + _FEAS_TOL)))
        target_net = T * weights.delta_u / bundle.horizon
        o_target = int(round(target_net / h))
        # A slot with no arrival has the one delay 0. Delays pushing service past the frame
        # all induce the same (empty) demand, so a range stops at the first, the least delay.
        choices = [range(min(s.task.max_delay, T - p) + 1 if s.task else 1) for p, s in enumerate(frame.slots)]
        n_combos = math.prod(map(len, choices))
        nodes = n_combos * T * (o_hi - o_lo + 1) * (T * max(k_charge, k_discharge) + 1) * (k_charge + k_discharge + 1)
        if not o_lo <= 0 <= o_hi:
            error = FrameWindowError(
                f"frame boundary battery level {frame.boundary_b} violates the battery bounds", frame.start, False
            )
        elif not o_lo <= o_target <= o_hi:
            error = FrameWindowError(
                f"frame net-flow target {target_net} kWh is outside the battery window", frame.start, True
            )
        elif nodes > _MAX_NODES:  # no energy step helps when the combinations alone, at one node per slot, pass it
            step = None if n_combos * T > _MAX_NODES else h * (nodes / _MAX_NODES) ** (1 / 3)
            error = SearchSpaceError(nodes, _MAX_NODES, step, frame.start)
        if error is not None:
            break
        if batch and (T != batch[0][0].length or cells + n_combos * T > _BATCH_CELLS):
            solutions += _solve_batch(batch, bundle, h)
            batch, cells = [], 0
        batch.append((frame, o_lo, o_hi, o_target, choices, n_combos))
        cells += n_combos * T
    if batch:
        solutions += _solve_batch(batch, bundle, h)
    if error is not None:
        raise error
    return solutions


def _solve_batch(batch, bundle: ModelBundle, h: float) -> list[OracleSolution]:
    """Solve frames of one length, each given as (frame, o_lo, o_hi, o_target, delay choices, combinations).

    The demand profile of each delay combination within the budget adds each
    slot's intensity over its service window, in slot order (adding 0.0
    where no task arrives, or outside the window, is exact). The all-zero
    combination always meets the budget, so every frame has at least one.

    A slot's flows depend only on its own demand, which many combinations
    share, so the batch's distinct (frame, slot, demand) rows are priced in
    one table. A slot with no feasible flow costs inf, so the floor skips its
    combinations. Each combination that reaches a DP reads its slots'
    feasible (k, cost) lists from the table.

    Each frame's combinations are searched in product order, and each gets a
    cost floor before its DP: the cheapest flow cost of every slot, summed in
    slot order from 0.0 as the DP sums a plan's slot costs, over the frame
    length, plus the combination's delay cost (the cheapest usage penalty,
    k·0², is 0.0 and adds nothing). Floating-point + and / are monotone, so a
    combination whose floor is not below the best total so far could not
    replace it, and its DP is skipped; the answer, ties included, is the full
    search's: the first plan of least total in product order. Once there is a
    best plan, a combination that passes its floor gets a second, tighter one
    from an offset-only DP (`_offset_floor`): the least cost of any plan that
    ends at the net-flow target, which is the least entry of the full DP's
    terminal row bit for bit, over the frame length, plus the combination's
    delay cost, and is skipped the same way. A DP fills only the states that
    can still reach the net-flow target (`_dp_forward`), which leaves the
    target row, and so the answer, bit for bit as the full table has it.
    """
    battery, weights = bundle.battery, bundle.weights
    T = batch[0][0].length
    n_use = T * max(_flow_counts(battery, h)) + 1

    counts = [n_combos for *_, n_combos in batch]
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(itertools.product(*c) for *_, c, _ in batch))
    combos = np.fromiter(flat, dtype=int, count=sum(counts) * T).reshape(-1, T)
    owner = np.repeat(np.arange(len(batch)), counts)  # the frame of each combination
    kept = combos.sum(axis=1) <= T * weights.d_avg_max
    combos, owner = combos[kept], owner[kept]
    # (frame, slot, price/renewable/intensity/duration); a slot with no task has intensity 0.0
    slots = np.array([[(s.price, s.renewable, *(s.task or (0, 0.0, 0))[1:3]) for s in f.slots] for f, *_ in batch])
    demands = np.zeros(combos.shape)
    for p in range(T):
        served = np.arange(T) - (p + combos[:, p])[:, None]  # slots into the task's service
        demands += np.where((served >= 0) & (served < slots[owner, p, 3, None]), slots[owner, p, 2, None], 0.0)

    # Table rows are numbered slot by slot, by frame, then ascending demand.
    order = np.lexsort((demands, np.broadcast_to(owner[:, None], demands.shape)), axis=0)
    column, row_frame = np.take_along_axis(demands, order, axis=0), owner[order]
    new = np.r_[np.ones((1, T), dtype=bool), (column[1:] != column[:-1]) | (row_frame[1:] != row_frame[:-1])].T
    profile_rows = np.empty(demands.shape, dtype=int)
    np.put_along_axis(profile_rows, order, new.cumsum().reshape(new.shape).T - 1, axis=0)
    demand, (price, renewable) = column.T[new], slots[row_frame.T[new], np.nonzero(new)[0], :2].T
    del served, demands, order, column, row_frame  # set-up intermediates the frame loop does not read
    s_w = np.where(renewable < demand, renewable, demand)  # `controller.renewable_split`
    flows = _slot_flows(demand - s_w, renewable - s_w, battery, bundle.grid, h)
    demand_sw = list(zip(demand.tolist(), s_w.tolist()))
    priced = np.where(flows.ok, flows.e * price[:, None] + flows.entry, np.inf)  # purchase + entry cost
    cheapest = priced.min(axis=1)
    floors = np.zeros(len(combos))
    for slot_rows in profile_rows.T:
        floors += cheapest[slot_rows]
    usage_penalty = bundle.costs.usage.value(np.arange(n_use) * h / T)
    delay_terms = weights.alpha * bundle.costs.delay.value(combos.sum(axis=1) / T)
    bounds = (floors / T + delay_terms).tolist()

    solutions = []
    first = np.searchsorted(owner, np.arange(len(batch) + 1)).tolist()  # each frame's first combination
    for f, (frame, o_lo, o_hi, o_target, *_) in enumerate(batch):
        n_off = o_hi - o_lo + 1
        best_value = math.inf
        best = None  # combination, table rows, actions, DP layers and usage index of the best plan
        for i, bound in enumerate(bounds[first[f] : first[f + 1]], first[f]):
            if bound >= best_value:
                continue
            if best is not None:  # the offset-only floor, once there is a best total to compare it with
                least = _offset_floor(priced[profile_rows[i]], flows.k, n_off, -o_lo, o_target - o_lo)
                if not least / T + delay_terms[i] < best_value:
                    continue
            slot_rows = profile_rows[i].tolist()
            actions = [list(zip(flows.k[flows.ok[r]].tolist(), priced[r, flows.ok[r]].tolist())) for r in slot_rows]
            layers = _dp_forward(actions, n_off, n_use, o_lo, o_target)
            terminal = layers[-1][o_target - o_lo]
            if not np.isfinite(terminal).any():
                continue
            totals = terminal / T + usage_penalty + delay_terms[i]
            idx = int(np.argmin(totals))
            if totals[idx] < best_value:
                best_value = float(totals[idx])
                best = (i, slot_rows, actions, layers, idx)
        if best is None:
            raise InfeasibleSlot(frame.start, 0.0, bundle.grid.e_max, "no feasible frame plan on the lattice")

        i, slot_rows, actions, layers, usage_idx = best
        steps = _walk_back(layers, actions, o_lo, o_target, usage_idx)
        arrivals = [(p, s.task) for p, s in enumerate(frame.slots) if s.task is not None]
        combo = combos[i, [p for p, _ in arrivals]].tolist()
        plan = _frame_solution(frame, bundle, h, best_value, arrivals, combo, demand_sw, flows, slot_rows, steps)
        solutions.append(plan)
    return solutions


def _dp_forward(actions, n_off: int, n_use: int, o_lo: int, o_target: int) -> list[np.ndarray]:
    """Min purchase+entry cost over (battery offset, cumulative usage) states
    on plans that can still end at offset `o_target`, where slot p's feasible
    flows are actions[p], a non-empty list of (k, cost).

    Returns one layer per slot boundary: layers[0] is the start state and
    layers[p + 1] the cost after slot p, so the last layer is the terminal one.
    Layer p is computed only on a window and is inf elsewhere: the offsets
    that slots < p can reach from the start and from which slots >= p can
    reach `o_target`, each bounded by the sums of the slots' smallest and
    largest k, and the usages up to the sum of the largest |k| of slots < p.
    Every finite predecessor of a window cell is in the window, so window
    cells, the `o_target` row among them, take the full table's values bit
    for bit (README, "Why the DP window is exact"). Layer 1 is written cell
    by cell, as 0.0 plus each flow's cost, since the start state is layer
    0's one finite cell.
    """
    lo = [min(k for k, _ in feasible) for feasible in actions]
    hi = [max(k for k, _ in feasible) for feasible in actions]
    reach = [max(h, -l) for l, h in zip(lo, hi)]  # largest |k|
    start, target = -o_lo, o_target - o_lo
    r_lo, r_hi, u_hi = [], [], []  # window of each layer: rows r_lo..r_hi, usages 0..u_hi
    for p in range(len(actions) + 1):
        r_lo.append(max(0, start + sum(lo[:p]), target - sum(hi[p:])))
        r_hi.append(min(n_off - 1, start + sum(hi[:p]), target - sum(lo[p:])))
        u_hi.append(min(n_use - 1, sum(reach[:p])))

    blank = np.full((n_off, n_use), np.inf)
    cost = blank.copy()
    cost[start, 0] = 0.0
    layers = [cost]
    for p, feasible in enumerate(actions):
        new = blank.copy()
        if p == 0:
            # layer 0's one finite cell is (start, 0), so each flow reaches its own cell
            for k, c in feasible:
                if r_lo[1] <= start + k <= r_hi[1]:
                    new[start + k, abs(k)] = 0.0 + c
        else:
            # The source layer is inf outside its window, so every flow reads a slice of the
            # window's one view. Ends are exclusive; `x if x < y else y` is min(x, y), without a call.
            s_lo, s_end, s_use = r_lo[p], r_hi[p] + 1, u_hi[p] + 1
            d_lo, d_end, d_use = r_lo[p + 1], r_hi[p + 1] + 1, u_hi[p + 1] + 1
            window = cost[s_lo:s_end, :s_use]
            for k, c in feasible:
                a = k if k > 0 else -k
                i0 = s_lo + k if s_lo + k > d_lo else d_lo
                i1 = s_end + k if s_end + k < d_end else d_end
                j1 = s_use + a if s_use + a < d_use else d_use
                if i0 < i1 and a < j1:
                    dst = new[i0:i1, a:j1]
                    np.minimum(dst, window[i0 - k - s_lo : i1 - k - s_lo, : j1 - a] + c, out=dst)
        cost = new
        layers.append(cost)
    return layers


def _offset_floor(costs: np.ndarray, k: np.ndarray, n_off: int, start: int, target: int) -> float:
    """The least cost of a plan from offset row `start` to row `target` of an
    `n_off`-row battery window, where costs[p, f] prices flow k[f] in slot p
    (inf when infeasible), summed in slot order from 0.0; inf when no plan
    reaches `target`.

    This is `_dp_forward` without the usage axis: each row holds the least
    of the sums that `_dp_forward` spreads over that row's usages, so its
    value at `target` is the least entry of the 2-D DP's terminal row, bit
    for bit (README, "Why skipping profiles is exact").
    """
    pad = int(np.abs(k).max())
    source = pad + np.arange(n_off) - k[:, None]  # padded row each flow leaves to reach each row
    padded = np.full(n_off + 2 * pad, np.inf)
    padded[pad + start] = 0.0
    for row in costs:
        padded[pad : pad + n_off] = (padded[source] + row[:, None]).min(axis=0)
    return float(padded[pad + target])


def _walk_back(layers: Sequence[np.ndarray], actions, o_lo: int, o_target: int, u_target: int) -> list[int]:
    """The per-slot flows of the plan ending in state (o_target, u_target).

    Walking the forward DP's layers back from that state, each slot takes the
    first flow, in `actions` order, whose predecessor cost plus flow cost
    equals the layer's value. The forward pass computed that value as exactly
    that sum, so this is the first flow to reach the minimum: ties resolve as
    a strict-< argmin table would resolve them.
    """
    i, j = o_target - o_lo, u_target
    if not np.isfinite(layers[-1][i, j]):
        raise ValueError(f"no plan ends in state ({o_target}, {u_target})")
    flows: list[int] = []
    for p in range(len(actions) - 1, -1, -1):
        prev, value = layers[p], layers[p + 1][i, j]
        for k, c in actions[p]:
            a = abs(k)
            if 0 <= i - k < prev.shape[0] and j >= a and prev[i - k, j - a] + c == value:
                break
        else:
            raise RuntimeError("backtrack fell off the DP table")  # bug trap
        flows.append(k)
        i -= k
        j -= a
    flows.reverse()
    return flows


def _frame_solution(
    frame: Frame, bundle: ModelBundle, h: float, u_opt: float, arrivals, combo: Sequence[int],
    demand_sw: Sequence[tuple[float, float]], table: _SlotFlows, slot_rows: Sequence[int], steps: list[int],
) -> OracleSolution:
    """The solution taking flow steps[p] at frame slot p under the arrivals' delays
    `combo`, read from row slot_rows[p] of the priced `table` and its (demand, s_w)
    in `demand_sw`; its plan must pass the run audit (`_audit_flows`)."""
    battery = bundle.battery
    delay_at = {p: d for (p, _), d in zip(arrivals, combo)}
    b = frame.boundary_b
    plan = []
    for p, (slot, r, k) in enumerate(zip(frame.slots, slot_rows, steps)):
        i = table.k.tolist().index(k)
        e, q, d_rate, s_r = (float(column[r, i]) for column in (table.e, table.q, table.d_rate, table.s_r))
        demand, s_w = demand_sw[r]
        regime = "idle" if k == 0 else "charge" if k > 0 else "discharge"
        plan.append(SlotRecord(
            slot.slot, slot.price, slot.renewable, demand, e, q, d_rate, s_w, s_r, delay_at.get(p, 0),
            b, 0.0, 0.0, 0.0, 0.0, regime, 0.0, 0.0,
        ))
        b += q + s_r - d_rate
    excursion, balance_err, overlaps = _audit_flows(plan, frame.boundary_b, battery)
    if excursion > 1e-9 or balance_err > 1e-9 or overlaps or any(
        r.e < -1e-12 or r.e > bundle.grid.e_max + GRID_CAP_TOL for r in plan
    ):
        raise RuntimeError(f"frame {frame.start}: infeasible plan {plan}")  # bug trap
    return OracleSolution(
        frame.start, frame.length, u_opt, h, tuple(plan),
        delays=tuple((frame.start + p, d) for (p, _), d in zip(arrivals, combo)), delay_sum=sum(combo),
    )


def recompute_frame_objective(sol: OracleSolution, bundle: ModelBundle) -> float:
    """Re-derive u_opt from the stored decisions; guards against stale values."""
    T = sol.frame_length
    purchase_entry = 0.0
    usage = 0.0
    for dec in sol.decisions:
        purchase_entry += dec.e * dec.price
        purchase_entry += controller.entry_cost(dec.q, dec.s_r, dec.d_rate, bundle.battery)
        usage += controller.usage_amount(dec.q, dec.s_r, dec.d_rate)
    return (
        purchase_entry / T
        + bundle.costs.usage.value(usage / T)
        + bundle.weights.alpha * bundle.costs.delay.value(sol.delay_sum / T)
    )


# ---------------------------------------------------------------------------
# Bound checkers
# ---------------------------------------------------------------------------


def lookahead_grid_slack(bundle: ModelBundle, energy_step: float, frame_length: int) -> float:
    """Discretization allowance: one lattice step per slot, composed linearly.

    A lattice plan within one step of the continuous frame optimum misprices
    each slot's purchase by at most step*P_max, shifts the frame-averaged
    usage by at most one step, and may toggle at most one charge/discharge
    entry pair per frame.
    """
    marginal = bundle.costs.usage.derivative(bundle.battery.gamma_u_cap)
    return (
        energy_step * bundle.grid.p_max
        + energy_step * marginal
        + (bundle.battery.c_rc + bundle.battery.c_dc) / frame_length
    )


def lookahead_bound_check(
    run: RunSummary,
    frames: Sequence[OracleSolution],
    g: float,
    bundle: ModelBundle,
    trace: Trace,
) -> CheckReport:
    """Compare the run's average cost against the mean frame optimum plus the bound.

    `trace` is the run's trace; its largest per-load delay cap (at most
    d_avg_max) is where the delay cost's slope enters the bound. At v = 0
    the bound is inf.
    """
    if not frames:
        raise ValueError("no frame solutions supplied")
    total_len = sum(sol.frame_length for sol in frames)
    if total_len != run.horizon:
        raise ValueError(f"frames cover {total_len} slots but the run horizon is {run.horizon}")
    frame_length = frames[0].frame_length
    if any(sol.frame_length != frame_length for sol in frames):
        raise ValueError("frames must all share one length (the horizon splits as M equal frames)")
    expected = 0
    for sol in sorted(frames, key=lambda f: f.frame_start):
        if sol.frame_start != expected:
            raise ValueError(f"frame starting at {sol.frame_start} does not begin where the previous one ended")
        expected += sol.frame_length

    recompute_err = max(abs(recompute_frame_objective(sol, bundle) - sol.u_opt) for sol in frames)
    consistency = CheckResult(
        name="frame_consistency",
        achieved=recompute_err,
        bound=1e-9,
        detail="frame objectives re-derived from stored decisions",
    )

    m = len(frames)
    lhs = run.total - sum(sol.u_opt for sol in frames) / m

    mu = bundle.weights.mu
    v = run.initial_state.v
    horizon = run.horizon
    l0 = controller.lyapunov(run.initial_state, mu)
    l_end = controller.lyapunov(run.state_at_horizon, mu)
    gamma_d_cap = float(min(max(trace.max_task_delay(), 0), bundle.weights.d_avg_max))
    cu_prime = bundle.costs.usage.derivative(bundle.battery.gamma_u_cap)
    cd_prime = bundle.costs.delay.derivative(gamma_d_cap)
    # At v = 0 the G*F/V term is unbounded, and the terms over v could add up to inf - inf = nan.
    rhs = math.inf if v == 0.0 else (
        g * frame_length / v
        + (l0 - l_end) / (v * horizon)
        + (
            cu_prime * (run.initial_state.h_u - run.state_at_horizon.h_u)
            + bundle.weights.alpha * cd_prime * (run.initial_state.h_d - run.state_at_horizon.h_d)
        )
        / horizon
    )
    slack = lookahead_grid_slack(bundle, max(sol.energy_step for sol in frames), frame_length)
    bound_check = CheckResult(
        name="lookahead_bound",
        achieved=lhs,
        bound=rhs + slack,
        detail=f"optimality gap vs mean frame optimum; grid slack {slack:.3e}",
    )
    return CheckReport((consistency, bound_check))


def margin_checks(run: RunSummary, g: float, bundle: ModelBundle) -> CheckReport:
    """Delay-margin and usage-mismatch bounds, plus the achieved delay cap."""
    weights = bundle.weights
    horizon = run.horizon
    x0 = run.initial_state.x
    x_end = run.state_at_horizon.x
    epsilon_d = (x_end - x0) / horizon
    l0 = controller.lyapunov(run.initial_state, weights.mu)
    d_bound = math.sqrt(2.0 * g / (weights.mu * horizon) + l0 / (weights.mu * horizon)) + abs(x0) / horizon
    delay_margin = CheckResult(
        name="delay_margin",
        achieved=abs(epsilon_d),
        bound=d_bound,
        detail=f"epsilon_d={epsilon_d:.6g}",
        tol=_FEAS_TOL,
    )
    cap_slack = CheckResult(
        name="avg_delay_margin",
        achieved=run.delay_avg - weights.d_avg_max,
        bound=d_bound,
        detail="average delay may exceed the cap by at most the margin bound",
        tol=_FEAS_TOL,
    )
    achieved_cap = CheckResult(
        name="avg_delay_within_cap",
        achieved=run.delay_avg,
        bound=float(weights.d_avg_max),
        detail="observed average delay vs the long-run cap",
        tol=_FEAS_TOL,
    )

    v = run.initial_state.v
    gamma_u_cap = bundle.battery.gamma_u_cap
    u_bound = (
        2.0 * gamma_u_cap
        + bundle.battery.r_max
        + v * bundle.grid.p_max
        + v * bundle.costs.usage.derivative(gamma_u_cap)
        + bundle.battery.d_max_rate
    )
    usage_mismatch = CheckResult(
        name="usage_mismatch",
        achieved=abs(run.epsilon_u),
        bound=u_bound,
        detail=f"epsilon_u={run.epsilon_u:.6g}",
        tol=_FEAS_TOL,
    )
    return CheckReport((delay_margin, cap_slack, achieved_cap, usage_mismatch))


def feasibility_checks(run: RunSummary, bundle: ModelBundle) -> CheckReport:
    """Battery bounds, balance, charge/discharge exclusivity, and the shift identity.

    Everything is recomputed from the run's records (drain slots included),
    independent of the in-run assertions.
    """
    shift = bundle.delta_per_slot
    a_o = run.initial_state.a_o

    bound_violation, balance_err, exclusive = _audit_flows(run.records, run.initial_state.b, bundle.battery)
    identity_err = 0.0
    for r in run.records:
        z_next = r.z + (r.q + r.s_r - r.d_rate) - shift
        ideal = r.b + r.q + r.s_r - r.d_rate - (a_o + shift * (r.slot + 1))
        identity_err = max(identity_err, abs(z_next - ideal))

    return CheckReport(
        (
            CheckResult(
                name="battery_bounds",
                achieved=bound_violation,
                bound=0.0,
                detail="worst excursion beyond [b_min, b_max] after any slot",
                tol=1e-9,
            ),
            CheckResult(
                name="balance",
                achieved=balance_err,
                bound=1e-12,
                detail="max |E - Q + S_w + D - demand| over all slots",
            ),
            CheckResult(
                name="exclusivity",
                achieved=float(exclusive),
                bound=0.0,
                detail="slots charging and discharging simultaneously",
            ),
            CheckResult(
                name="shift_identity",
                achieved=identity_err,
                bound=1e-9,
                detail="max drift of the battery-queue shift identity",
            ),
        )
    )


def _audit_flows(records: Sequence[SlotRecord], b: float, battery: BatteryParams) -> tuple[float, float, int]:
    """Worst excursion beyond [b_min, b_max], worst |E - Q + S_w + D - demand|, and
    slots charging and discharging at once, over records whose b chains from `b`."""
    excursion = balance_err = 0.0
    overlaps = 0
    for r in records:
        if abs(r.b - b) > 1e-9:
            raise ValueError(f"records are not a contiguous run: battery jumps at slot {r.slot}")
        b = r.b + r.q + r.s_r - r.d_rate
        excursion = max(excursion, battery.b_min - b, b - battery.b_max)
        balance_err = max(balance_err, abs(r.e - r.q + r.s_w + r.d_rate - r.demand))
        if (r.q + r.s_r > 0.0) and (r.d_rate > 0.0):
            overlaps += 1
    return excursion, balance_err, overlaps


def drift_checks(run: RunSummary, g: float, bundle: ModelBundle) -> CheckReport:
    """Per-slot quadratic drift never exceeds its constant-plus-linear bound.
    Each record holds the queues entering its slot, the next record (or the
    final state) those leaving it."""
    mu = bundle.weights.mu
    worst = -math.inf
    for r, nxt in zip(run.records, run.records[1:] + (run.final_state,)):
        drift = controller.lyapunov(nxt, mu) - controller.lyapunov(r, mu)
        bound = controller.drift_upper_bound(r, g, bundle)
        worst = max(worst, drift - bound)
    return CheckReport(
        (
            CheckResult(
                name="drift_bound",
                achieved=worst,
                bound=0.0,
                detail="max over slots of drift minus its upper bound",
                tol=_FEAS_TOL,
            ),
        )
    )


def sample_slot_states(
    bundle: ModelBundle,
    n: int,
    seed: int,
    a_o: float,
    v: float,
) -> list[tuple[ControllerState, SlotInput, float]]:
    """Random (queue state, slot, demand) triples, each field drawn uniformly from a fixed box.

    Residual demand and surplus renewable are never both positive (the
    renewable split guarantees that in a real run), and residual demand stays
    under 0.9*e_max so every sample admits a feasible action. So no sample
    is a forced discharge, and every sample's battery level is b_init
    (ROADMAP item 13). Each field is drawn as one column of n values.
    """
    rng = np.random.default_rng(seed)
    battery, grid_params = bundle.battery, bundle.grid
    d_scale = max(bundle.weights.d_avg_max, 1)

    def uniform(low: float, high: float) -> list[float]:
        return rng.uniform(low, high, n).tolist()

    def integers(low: int, high: int) -> list[int]:
        return rng.integers(low, high, n).tolist()

    z, x = uniform(-1.5 * a_o - 1.0, battery.b_max), uniform(0.0, 2.0 * d_scale)
    h_u, h_d = uniform(-1.5, 1.5), uniform(-1.5 * d_scale, 1.5 * d_scale)
    served = uniform(0.0, 0.25)  # demand and renewable both start here, so the renewable split serves it
    kind = integers(0, 3)  # 0: residual demand, 1: surplus renewable, 2: neither
    residual = [r if k == 0 else 0.0 for k, r in zip(kind, uniform(0.0, 0.9 * grid_params.e_max))]
    surplus = [r if k == 1 else 0.0 for k, r in zip(kind, uniform(0.0, 2.0 * battery.r_max))]
    has_task = [d > 0 for d in integers(0, 4)]  # three states in four
    intensity, duration, max_delay = uniform(0.005, 0.3), integers(1, 13), integers(0, 2 * d_scale + 1)
    price = uniform(grid_params.p_min, grid_params.p_max)
    return [
        (
            ControllerState(z_i, x_i, h_u_i, h_d_i, battery.b_init, a_o, v),
            SlotInput(0, p, s + sp, LoadTask(0, c, d, m) if t else None),
            s + r,
        )
        for z_i, x_i, h_u_i, h_d_i, s, r, sp, t, c, d, m, p in zip(
            z, x, h_u, h_d, served, residual, surplus, has_task, intensity, duration, max_delay, price
        )
    ]


def _aux_mismatches(cost: QuadraticCost, h: np.ndarray, vb: np.ndarray, cap: np.ndarray, gamma: np.ndarray) -> int:
    """Count rows whose gamma is more than 1e-9 from the exact argmin of
    h*g + vb*C(g) on [0, cap], for vb >= 0 and a cap >= 0 per row.

    C(g) = k*g**2 with k >= 0, so the objective is a 1-D convex quadratic:
    with curvature (vb*k > 0) its argmin is the stationary point -h/(2*vb*k)
    clipped to [0, cap], and without it the cap where h < 0 and 0 elsewhere.
    The stationary point is a quotient of mantissas scaled by a difference
    of exponents, so no partial quotient under- or overflows: a subnormal
    h/vb over a subnormal k, or a subnormal vb*k, keeps its value. The count
    is of argmin distance, not value: over a nearly flat objective a far
    gamma can price within 1e-9 of the minimum.
    """
    best = np.where(h < 0.0, cap, 0.0)
    if cost.k > 0.0:
        curved = vb > 0.0
        m_h, e_h = np.frexp(-h)
        m_vb, e_vb = np.frexp(np.where(curved, vb, 1.0))
        m_k, e_k = math.frexp(cost.k)
        with np.errstate(over="ignore"):  # a stationary point past the float range is past the cap
            stationary = np.ldexp(m_h / (m_vb * m_k), e_h - e_vb - e_k - 1)
        best = np.where(curved, np.clip(stationary, 0.0, cap), best)
    return int((np.abs(gamma - best) > 1e-9).sum())


def slot_mismatches(
    rows: Sequence[tuple[SlotRecord, LoadTask | None]], bundle: ModelBundle, v: float
) -> tuple[int, int, int, int]:
    """Count the rows whose decision brute force disagrees with: (schedule,
    aux, energy dominance, energy slack).

    A row is a record, which holds the state its slot was decided in and the
    decision, and the task that arrived in the slot (None if none) with the
    delay cap its rule was given; so a run's records are rows as they are,
    with a baseline's tasks at max_delay 0. The rows are judged as columns,
    one array per record field. The delay must be the first argmin of its
    slot's scheduling objective over every delay 0..cap, a row of one table;
    gamma_u and gamma_d must lie within 1e-9 of their exact argmins
    (`_aux_mismatches`), gamma_d's cap being min(cap, d_avg_max), or
    d_avg_max in a slot with no task, as `run_policy` has it; and the flows' value
    (`_slot_bound`) must be no worse than the exact minimum (`_energy_minima`,
    dominance) and no better (slack, a flow outside the feasible set), within
    1e-9. A `no_storage` record is no row: its battery is pinned idle, which a
    feasible flow beats in every completing no-storage run of the default and
    small configs, seeds 0-99. Raises `InfeasibleSlot` for the first row with
    no feasible flow.
    """
    weights, battery, grid = bundle.weights, bundle.battery, bundle.grid
    records, tasks = zip(*rows)
    fields = list(zip(*records))
    del fields[SlotRecord._fields.index("regime")]  # the one field that is not a number
    (_, price, renewable, demand, e, q, d_rate, s_w, s_r, delay, _, z, x, h_u, h_d, gamma_u, gamma_d) = np.array(fields)

    # Scheduling: start now at intensity*(|h_u| - z), or wait d >= 1 slots at mu*(x - h_d)*d.
    arrived = np.array([task is not None for task in tasks])
    _, intensity, _, cap = np.array([task for task in tasks if task is not None]).reshape(-1, 4).T
    d = np.arange(max(int(cap.max(initial=0)), 0) + 1)
    table = np.where(d <= cap[:, None], weights.mu * (x[arrived] - h_d[arrived])[:, None] * d, np.inf)
    table[:, 0] = intensity * (np.abs(h_u[arrived]) - z[arrived])
    schedule_bad = int((table.argmin(axis=1) != delay[arrived]).sum())

    key2 = z - h_u
    key1 = key2 + v * price
    residual = demand - s_w
    closed = _slot_bound(e, q, d_rate, s_r, key1, key2, v, battery)
    exact = _energy_minima(residual, renewable - s_w, key1, key2, v, battery, grid)
    if np.isinf(exact).any():
        j = int(np.isinf(exact).argmax())
        raise InfeasibleSlot(records[j].slot, float(residual[j]), grid.e_max, "grid oracle found no feasible point")
    dominance_bad, slack_bad = int((closed > exact + 1e-9).sum()), int((closed < exact - 1e-9).sum())

    n, delay_vb = len(rows), v * (weights.alpha / weights.mu)
    gamma_d_caps = np.full(n, float(weights.d_avg_max))
    gamma_d_caps[arrived] = np.minimum(cap, weights.d_avg_max)
    aux_bad = _aux_mismatches(bundle.costs.usage, h_u, np.full(n, v), np.full(n, battery.gamma_u_cap), gamma_u)
    aux_bad += _aux_mismatches(bundle.costs.delay, h_d, np.full(n, delay_vb), gamma_d_caps, gamma_d)
    return schedule_bad, aux_bad, dominance_bad, slack_bad


def equivalence_battery(bundle: ModelBundle, n_states: int, seed: int) -> CheckReport:
    """Closed-form rules vs brute force over randomized states: the rules
    decide each sampled state into a `SlotRecord`, as a run decides its
    slots, and `slot_mismatches` must count nothing. The rules are looked up
    on `controller` once, when the call starts, as `run_policy` looks them up."""
    a_o, _, v = controller.design_params(bundle)
    weights, battery, grid, costs = bundle.weights, bundle.battery, bundle.grid, bundle.costs
    schedule_load, renewable_split = controller.schedule_load, controller.renewable_split
    energy_control, aux_solution = controller.energy_control, controller.aux_solution
    mu, d_avg_max, delay_beta = weights.mu, weights.d_avg_max, weights.alpha / weights.mu
    usage_cost, delay_cost, gamma_u_cap = costs.usage, costs.delay, battery.gamma_u_cap
    make_record, rows = SlotRecord._make, []
    for state, slot, demand in sample_slot_states(bundle, n_states, seed, a_o, v):
        z, x, h_u, h_d, b, _, _, t = state
        _, price, renewable, task = slot
        if task is None:
            delay, gamma_d_cap = 0, float(d_avg_max)
        else:
            max_delay = task.max_delay
            delay = schedule_load(state, task, mu, max_delay)
            gamma_d_cap = float(max_delay if max_delay < d_avg_max else d_avg_max)  # min(max_delay, d_avg_max)
        s_w = renewable_split(demand, renewable)
        e, q, d_rate, s_r, regime = energy_control(state, demand, s_w, renewable, price, battery, grid)
        rows.append((make_record((
            t, price, renewable, demand, e, q, d_rate, s_w, s_r, delay, b, z, x, h_u, h_d, regime,
            aux_solution(h_u, v, 1.0, usage_cost, gamma_u_cap),
            aux_solution(h_d, v, delay_beta, delay_cost, gamma_d_cap),
        )), task))
    return CheckReport(tuple(
        CheckResult(name, float(count), 0.0, detail)
        for count, (name, detail) in zip(slot_mismatches(rows, bundle, v), (
            ("schedule_equivalence", f"delay mismatches over {n_states} states"),
            ("aux_equivalence", "auxiliary stand-ins further than 1e-9 from their exact argmins"),
            ("energy_dominance", "closed form priced above the exact per-slot minimum"),
            ("energy_slack", "closed form priced below the exact per-slot minimum"),
        ))
    ))


def jensen_check(run: RunSummary, bundle: ModelBundle) -> CheckReport:
    """Average of convex costs dominates the cost of the average, per run."""
    records = run.records[: run.horizon]
    if not records:
        raise ValueError("run has no in-horizon records")
    gamma_u = [r.gamma_u for r in records]
    gamma_d = [r.gamma_d for r in records]
    checks = []
    for name, values, fn in (
        ("jensen_usage", gamma_u, bundle.costs.usage.value),
        ("jensen_delay", gamma_d, bundle.costs.delay.value),
    ):
        mean_of_cost = sum(fn(g) for g in values) / len(values)
        cost_of_mean = fn(sum(values) / len(values))
        gap = cost_of_mean - mean_of_cost
        checks.append(
            CheckResult(
                name=name,
                achieved=gap,
                bound=_FEAS_TOL,
                detail="cost of mean minus mean of cost (convexity says <= 0)",
            )
        )
    return CheckReport(tuple(checks))
