"""Per-slot simulation loop, service ledger, and cost accounting.

A run walks the trace slot by slot: schedule the arriving task, split the
renewable between serving and storing, pick the energy flows, then update
queues and ledgers. After the horizon ends, a drain phase keeps the
controller running (with no new arrivals and no renewable, prices repeating
the trace's daily pattern) until every scheduled load has been fully served,
so the supply-demand balance holds on every simulated slot.

Cost averages follow the horizon-literal definitions: purchase, entry, and
usage sums run over slots 0..horizon-1 and are divided by the horizon, as is
the delay sum over arrivals. The loop keeps these sums as it goes and takes
them at the horizon; because drain-phase purchases fall outside them, the
summary also carries "inclusive" variants, the same sums at the end of the
drain, that fold drain costs in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import controller
from .controller import ControllerState
from .model import GRID_CAP_TOL, InfeasibleSlot, ModelBundle, StateConsistencyError
from .scenario import LoadTask, Trace

_BALANCE_TOL = 1e-12

POLICIES = ("joint", "storage_only", "no_storage")

# The sweep axes (`cli.SweepPoint` fields) each policy's run reads. The
# baselines pin every delay to 0, so the delay queues, the delay stand-in and
# the delay cost stay exactly 0 whatever d_avg_max, max_delay, alpha and mu
# are: their runs differ only with the battery.
POLICY_AXES = {
    "joint": ("d_avg_max", "max_delay", "b_max", "alpha", "mu"),
    "storage_only": ("b_max",),
    "no_storage": ("b_max",),
}


class ServiceLedger:
    """Per-slot demand of the scheduled loads.

    Each scheduled task occupies the window [arrival + delay, arrival + delay
    + duration); its intensity is added to the demand of every slot inside, in
    the order the tasks are added.
    """

    def __init__(self):
        # slot -> demand, up to the latest window end; a slot no window covers
        # holds the int 0, the value of an empty sum
        self._demand: list[float] = []

    def add(self, task: LoadTask, delay: int) -> None:
        arrival_slot, intensity, duration, max_delay = task
        if delay < 0 or delay > max_delay:
            raise ValueError(f"delay {delay} outside [0, {max_delay}] for task at {arrival_slot}")
        start = arrival_slot + delay
        end = start + duration
        demand = self._demand
        if end > len(demand):
            demand.extend([0] * (end - len(demand)))
        for t in range(start, end):
            demand[t] += intensity

    def active_demand(self, t: int) -> float:
        return self._demand[t] if t < len(self._demand) else 0

    def pending_after(self, t: int) -> bool:
        """True while some window still extends past slot t."""
        return len(self._demand) > t + 1


class SlotRecord(NamedTuple):
    """State entering the slot, the slot's inputs, and the chosen decision."""

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
    z: float
    x: float
    h_u: float
    h_d: float
    regime: str
    gamma_u: float
    gamma_d: float


@dataclass(frozen=True)
class RunSummary:
    """Objective components plus everything needed to audit a run."""

    policy: str
    horizon: int
    j_bar: float
    entry_bar: float
    usage_avg: float
    usage_cost: float
    delay_avg: float
    delay_cost: float
    total: float
    j_bar_inclusive: float
    entry_bar_inclusive: float
    usage_avg_inclusive: float
    total_inclusive: float
    epsilon_u: float
    drain_slots: int
    records: tuple[SlotRecord, ...]
    initial_state: ControllerState
    state_at_horizon: ControllerState
    final_state: ControllerState

    @property
    def monetary_cost(self) -> float:
        """Dollars actually spent: energy purchases plus battery wear."""
        return self.j_bar + self.entry_bar + self.usage_cost


def run_policy(trace: Trace, bundle: ModelBundle, policy: str = "joint") -> RunSummary:
    """Simulate the whole trace plus the drain phase and assemble the summary.

    Every slot schedules the arriving task, splits the renewable, picks the
    energy flows and updates the queues. The baselines are this sequence with
    stages pinned: under "storage_only" and "no_storage" every arriving task
    is served at once (the scheduling rule gets a delay cap of 0), and under
    "no_storage" the battery also stays idle, so the grid buys whatever the
    renewable cannot cover. `policy` is any name in POLICIES; anything else
    raises ValueError. The per-slot rules are looked up on `controller` and
    `ServiceLedger` once, when the run starts, so a wrapper patched there
    must be in place before the call.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    horizon = bundle.horizon
    if trace.horizon != horizon:
        raise ValueError(f"trace horizon {trace.horizon} does not match configured horizon {horizon}")
    battery, grid, costs, weights = bundle.battery, bundle.grid, bundle.costs, bundle.weights
    a_o, _, v = controller.design_params(bundle)
    state = controller.init_state(battery, a_o, v)
    initial_state = state

    # Read once: none of these changes during a run.
    mu, d_avg_max, shift, e_cap = weights.mu, weights.d_avg_max, bundle.delta_per_slot, grid.e_max + GRID_CAP_TOL
    d_avg_cap, delay_beta, gamma_u_cap = float(d_avg_max), weights.alpha / mu, battery.gamma_u_cap
    delay_cost, usage_cost = costs.delay, costs.usage
    joint, no_storage = policy == "joint", policy == "no_storage"
    schedule_load = controller.schedule_load
    aux_solution = controller.aux_solution
    renewable_split = controller.renewable_split
    energy_control = controller.energy_control
    update_queues = controller.update_queues
    entry_cost = controller.entry_cost
    make_record = SlotRecord._make
    ledger = ServiceLedger()
    add_task, active_demand = ledger.add, ledger.active_demand

    # Each sum runs in slot order from 0.0; the loop takes the horizon sums
    # when it reaches the horizon, and the end of the drain leaves the
    # inclusive ones.
    purchase = entry = usage = delay_sum = net_flow = 0.0
    slots = trace.slots
    records: list[SlotRecord] = []
    append = records.append
    t = 0
    while True:
        if t < horizon:
            _, price, renewable, task = slots[t]
        else:
            # Drain: prices repeat the trace's pattern; no renewable or arrivals.
            if t == horizon:
                state_at_horizon = state
                horizon_sums = (purchase, entry, usage, delay_sum, net_flow)
            elif t > 2 * horizon + 10_000:
                raise StateConsistencyError("drain phase failed to terminate")
            if not ledger.pending_after(t - 1):
                break
            price, renewable, task = slots[t % horizon].price, 0.0, None
        z, x, h_u, h_d, b, _, _, _ = state

        delay = 0
        gamma_d_cap = d_avg_cap
        if task is not None:
            d_cap = task.max_delay if joint else 0
            delay = schedule_load(state, task, mu, d_cap)
            add_task(task, delay)
            gamma_d_cap = float(d_avg_max if d_avg_max < d_cap else d_cap)  # min(d_cap, d_avg_max)
        gamma_d = aux_solution(h_d, v, delay_beta, delay_cost, gamma_d_cap)

        demand = active_demand(t)
        s_w = renewable_split(demand, renewable)

        gamma_u = aux_solution(h_u, v, 1.0, usage_cost, gamma_u_cap)
        if no_storage:
            e, q, d_rate, s_r, regime = demand - s_w, 0.0, 0.0, 0.0, "idle"
            if e > e_cap:
                raise InfeasibleSlot(t, e, grid.e_max, "no-storage baseline")
        else:
            e, q, d_rate, s_r, regime = energy_control(state, demand, s_w, renewable, price, battery, grid)

        balance = e - q + s_w + d_rate - demand
        if abs(balance) > _BALANCE_TOL:
            raise StateConsistencyError(f"slot {t}: supply-demand balance off by {balance:.3e}")

        purchase += e * price
        entry += entry_cost(q, s_r, d_rate, battery)
        net = q + s_r - d_rate
        usage += abs(net)  # controller.usage_amount(q, s_r, d_rate)
        delay_sum += delay
        net_flow += net

        # In SlotRecord's field order.
        record = make_record((
            t, price, renewable, demand,
            e, q, d_rate, s_w, s_r, delay,
            b, z, x, h_u, h_d,
            regime, gamma_u, gamma_d,
        ))
        append(record)
        state = update_queues(state, record, d_avg_max, shift)
        t += 1

    return _summarize(
        policy, bundle, records, initial_state, state_at_horizon, state,
        horizon_sums, (purchase, entry, usage),
    )


def _summarize(
    policy: str,
    bundle: ModelBundle,
    records: list[SlotRecord],
    initial_state: ControllerState,
    state_at_horizon: ControllerState,
    final_state: ControllerState,
    horizon_sums: tuple[float, float, float, float, float],
    inclusive_sums: tuple[float, float, float],
) -> RunSummary:
    """Average the loop's sums: `horizon_sums` are (purchase, entry, usage,
    delay, net flow) over slots 0..horizon-1 and `inclusive_sums` (purchase,
    entry, usage) over every simulated slot."""
    purchase, entry, usage, delay, net_flow = horizon_sums
    purchase_all, entry_all, usage_all = inclusive_sums

    # An empty horizon has no slots to average over; every mean is zero.
    slots = max(bundle.horizon, 1)
    j_bar = purchase / slots
    entry_bar = entry / slots
    usage_avg = usage / slots
    delay_avg = delay / slots
    usage_cost = bundle.costs.usage.value(usage_avg)
    delay_cost = bundle.weights.alpha * bundle.costs.delay.value(delay_avg)
    j_bar_inc = purchase_all / slots
    entry_bar_inc = entry_all / slots
    usage_avg_inc = usage_all / slots
    return RunSummary(
        policy=policy,
        horizon=bundle.horizon,
        j_bar=j_bar,
        entry_bar=entry_bar,
        usage_avg=usage_avg,
        usage_cost=usage_cost,
        delay_avg=delay_avg,
        delay_cost=delay_cost,
        total=j_bar + entry_bar + usage_cost + delay_cost,
        j_bar_inclusive=j_bar_inc,
        entry_bar_inclusive=entry_bar_inc,
        usage_avg_inclusive=usage_avg_inc,
        total_inclusive=j_bar_inc + entry_bar_inc + bundle.costs.usage.value(usage_avg_inc) + delay_cost,
        epsilon_u=net_flow - bundle.weights.delta_u,
        drain_slots=max(len(records) - bundle.horizon, 0),
        records=tuple(records),
        initial_state=initial_state,
        state_at_horizon=state_at_horizon,
        final_state=final_state,
    )


_RECORD_COLUMNS = (
    "slot", "price", "renewable", "demand", "E", "Q", "D", "S_w", "S_r",
    "delay", "B", "Z", "X", "H_u", "H_d", "regime",
)
# One conversion per column, in _RECORD_COLUMNS order, which is also the order
# of SlotRecord's first 16 fields: floats to 9 significant digits, `slot` and
# `delay` as integers, and rows ending in `\r\n` as csv.writer's do.
_ROW = ",".join(["%d"] + ["%.9g"] * 8 + ["%d"] + ["%.9g"] * 5 + ["%s"]) + "\r\n"


def write_records(path, records: Iterable[SlotRecord]) -> None:
    """Dump per-slot records in the standard CSV layout (drain slots included)."""
    rows = [_ROW % r[:16] for r in records]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_RECORD_COLUMNS) + "\r\n" + "".join(rows))
