"""Per-slot simulation loop, service ledger, and cost accounting.

A run walks the trace slot by slot: schedule the arriving task, split the
renewable between serving and storing, pick the energy flows, then update
queues and ledgers. After the horizon ends, a drain phase keeps the
controller running (with no new arrivals and no renewable, prices repeating
the trace's daily pattern) until every scheduled load has been fully served,
so the supply-demand balance holds on every simulated slot.

Cost averages follow the horizon-literal definitions: purchase, entry, and
usage sums run over slots 0..horizon-1 and are divided by the horizon, as is
the delay sum over arrivals. Because drain-phase purchases fall outside those
sums, the summary also carries "inclusive" variants that fold drain costs in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable

from . import controller
from .controller import ControlDecision, ControllerState
from .model import InfeasibleSlot, ModelBundle, StateConsistencyError
from .scenario import LoadTask, SlotInput, Trace

_BALANCE_TOL = 1e-12

POLICIES = ("joint", "storage_only", "no_storage")


class ServiceLedger:
    """Open service windows of scheduled loads.

    Each scheduled task occupies the window [arrival + delay, arrival + delay
    + duration); its intensity contributes to the demand of every slot inside.
    """

    def __init__(self):
        self._windows: list[tuple[int, int, float]] = []  # (start, end, intensity)

    def add(self, task: LoadTask, delay: int) -> None:
        if delay < 0 or delay > task.max_delay:
            raise ValueError(f"delay {delay} outside [0, {task.max_delay}] for task at {task.arrival_slot}")
        start = task.arrival_slot + delay
        self._windows.append((start, start + task.duration, task.intensity))

    def active_demand(self, t: int) -> float:
        return sum(rho for start, end, rho in self._windows if start <= t < end)

    def pending_after(self, t: int) -> bool:
        """True while some window still extends past slot t."""
        return any(end > t + 1 for _, end, _ in self._windows)

    def prune(self, t: int) -> None:
        """Drop windows fully served before slot t."""
        self._windows = [w for w in self._windows if w[1] > t]


@dataclass
class CostLedger:
    """Running sums behind the objective; horizon sums freeze at the horizon."""

    horizon: int
    sum_purchase: float = 0.0
    sum_entry: float = 0.0
    sum_usage: float = 0.0
    sum_delay: float = 0.0
    sum_purchase_all: float = 0.0
    sum_entry_all: float = 0.0
    sum_usage_all: float = 0.0
    slots_counted: int = 0

    def record(self, slot: int, decision: ControlDecision, price: float) -> None:
        purchase = decision.e * price
        self.sum_purchase_all += purchase
        self.sum_entry_all += decision.entry_cost
        self.sum_usage_all += decision.usage_amount
        if slot < self.horizon:
            self.sum_purchase += purchase
            self.sum_entry += decision.entry_cost
            self.sum_usage += decision.usage_amount
            self.sum_delay += decision.delay
            self.slots_counted += 1


@dataclass(frozen=True)
class SlotRecord:
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
    in_horizon: bool


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


def _drain_input(trace: Trace, t: int) -> SlotInput:
    # Prices repeat the trace's pattern; no renewable or arrivals after the end.
    return SlotInput(slot=t, price=trace.slots[t % trace.horizon].price, renewable=0.0, task=None)


def step(
    state: ControllerState,
    ledger: ServiceLedger,
    costs: CostLedger,
    slot_input: SlotInput,
    bundle: ModelBundle,
    policy: str = "joint",
) -> tuple[ControlDecision, ControllerState, SlotRecord]:
    """Run one slot: schedule, split renewable, pick energy flows, update queues.

    Under "storage_only" every arriving task is served at once: the
    scheduling rule gets an effective delay cap of 0.
    """
    if slot_input.slot != state.slot:
        raise ValueError(f"slot input {slot_input.slot} does not match state slot {state.slot}")
    weights = bundle.weights
    t = state.slot

    delay = 0
    gamma_d_cap = float(weights.d_avg_max)
    if slot_input.task is not None:
        task = slot_input.task
        d_cap = 0 if policy == "storage_only" else task.max_delay
        delay = controller.schedule_load(state, task, weights.mu, d_cap)
        ledger.add(task, delay)
        gamma_d_cap = float(min(d_cap, weights.d_avg_max))
    gamma_d = controller.aux_solution(
        state.h_d, state.v, weights.alpha / weights.mu, bundle.costs.delay, gamma_d_cap
    )

    demand = ledger.active_demand(t)
    s_w = controller.renewable_split(demand, slot_input.renewable)

    gamma_u = controller.aux_solution(state.h_u, state.v, 1.0, bundle.costs.usage, state.gamma_u_cap)
    action = controller.energy_control(
        state, demand, s_w, slot_input.renewable, slot_input.price, bundle.battery, bundle.grid
    )

    balance = action.e - action.q + s_w + action.d_rate - demand
    if abs(balance) > _BALANCE_TOL:
        raise StateConsistencyError(f"slot {t}: supply-demand balance off by {balance:.3e}")

    decision = ControlDecision(
        e=action.e,
        q=action.q,
        d_rate=action.d_rate,
        s_w=s_w,
        s_r=action.s_r,
        delay=delay,
        gamma_u=gamma_u,
        gamma_d=gamma_d,
        usage_amount=abs(action.q + action.s_r - action.d_rate),
        entry_cost=(bundle.battery.c_rc if action.q + action.s_r > 0.0 else 0.0)
        + (bundle.battery.c_dc if action.d_rate > 0.0 else 0.0),
        regime=action.regime,
    )
    record = SlotRecord(
        slot=t,
        price=slot_input.price,
        renewable=slot_input.renewable,
        demand=demand,
        e=decision.e,
        q=decision.q,
        d_rate=decision.d_rate,
        s_w=decision.s_w,
        s_r=decision.s_r,
        delay=decision.delay,
        b=state.b,
        z=state.z,
        x=state.x,
        h_u=state.h_u,
        h_d=state.h_d,
        regime=decision.regime,
        gamma_u=decision.gamma_u,
        gamma_d=decision.gamma_d,
        in_horizon=t < bundle.horizon,
    )
    costs.record(t, decision, slot_input.price)
    next_state = controller.update_queues(state, decision, weights.d_avg_max, weights.delta_u, bundle.horizon)
    ledger.prune(t + 1)
    return decision, next_state, record


def run(trace: Trace, bundle: ModelBundle, policy: str = "joint") -> RunSummary:
    """Simulate the whole trace plus the drain phase and assemble the summary.

    `policy` names the summary; "storage_only" also serves every task on
    arrival (see `step`).
    """
    if trace.horizon != bundle.horizon:
        raise ValueError(f"trace horizon {trace.horizon} does not match configured horizon {bundle.horizon}")
    a_o, v_max = controller.design_params(
        bundle.battery, bundle.grid, bundle.costs, bundle.weights, bundle.horizon
    )
    v = bundle.weights.v if bundle.weights.v is not None else v_max
    state = controller.init_state(bundle.battery, a_o, v, bundle.gamma_u_cap, bundle.z0_mode)
    initial_state = state

    ledger = ServiceLedger()
    costs = CostLedger(horizon=bundle.horizon)
    records: list[SlotRecord] = []
    net_flow_sum = 0.0

    state_at_horizon = state
    t = 0
    while t < bundle.horizon or ledger.pending_after(t - 1):
        slot_input = trace.slots[t] if t < bundle.horizon else _drain_input(trace, t)
        decision, state, record = step(state, ledger, costs, slot_input, bundle, policy)
        records.append(record)
        if t < bundle.horizon:
            net_flow_sum += decision.q + decision.s_r - decision.d_rate
        t += 1
        if t == bundle.horizon:
            state_at_horizon = state
        if t > bundle.horizon + trace.horizon + 10_000:
            raise StateConsistencyError("drain phase failed to terminate")

    return _summarize(
        policy, bundle, costs, records, net_flow_sum, initial_state, state_at_horizon, state,
        drain_slots=max(t - bundle.horizon, 0),
    )


def _summarize(
    policy: str,
    bundle: ModelBundle,
    costs: CostLedger,
    records: list[SlotRecord],
    net_flow_sum: float,
    initial_state: ControllerState,
    state_at_horizon: ControllerState,
    final_state: ControllerState,
    drain_slots: int,
) -> RunSummary:
    # An empty horizon has no slots to average over; every mean is zero.
    slots = max(bundle.horizon, 1)
    j_bar = costs.sum_purchase / slots
    entry_bar = costs.sum_entry / slots
    usage_avg = costs.sum_usage / slots
    delay_avg = costs.sum_delay / slots
    usage_cost = bundle.costs.usage_cost(usage_avg)
    delay_cost = bundle.weights.alpha * bundle.costs.delay_cost(delay_avg)
    j_bar_inc = costs.sum_purchase_all / slots
    entry_bar_inc = costs.sum_entry_all / slots
    usage_avg_inc = costs.sum_usage_all / slots
    horizon = bundle.horizon
    return RunSummary(
        policy=policy,
        horizon=horizon,
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
        total_inclusive=j_bar_inc + entry_bar_inc + bundle.costs.usage_cost(usage_avg_inc) + delay_cost,
        epsilon_u=net_flow_sum - bundle.weights.delta_u,
        drain_slots=drain_slots,
        records=tuple(records),
        initial_state=initial_state,
        state_at_horizon=state_at_horizon,
        final_state=final_state,
    )


def _zero_delay_bundle(bundle: ModelBundle) -> ModelBundle:
    """Storage-only variant: the delay machinery is pinned to zero.

    The delay-cost function is kept as-is; with every delay forced to 0 it is
    only ever evaluated at 0, where any admissible cost is 0.
    """
    return replace(bundle, weights=replace(bundle.weights, d_avg_max=0))


def baseline_storage_only(trace: Trace, bundle: ModelBundle) -> RunSummary:
    """Storage control without scheduling: every load is served on arrival."""
    return run(trace, _zero_delay_bundle(bundle), policy="storage_only")


def baseline_no_storage(trace: Trace, bundle: ModelBundle) -> RunSummary:
    """Neither storage nor scheduling: buy whatever the renewable cannot cover."""
    ledger = ServiceLedger()
    costs = CostLedger(horizon=bundle.horizon)
    records: list[SlotRecord] = []
    a_o, v_max = controller.design_params(
        bundle.battery, bundle.grid, bundle.costs, bundle.weights, bundle.horizon
    )
    v = bundle.weights.v if bundle.weights.v is not None else v_max
    state = controller.init_state(bundle.battery, a_o, v, bundle.gamma_u_cap, bundle.z0_mode)
    initial_state = state
    state_at_horizon = state

    t = 0
    while t < bundle.horizon or ledger.pending_after(t - 1):
        slot_input = trace.slots[t] if t < bundle.horizon else _drain_input(trace, t)
        if slot_input.task is not None:
            ledger.add(slot_input.task, 0)
        demand = ledger.active_demand(t)
        s_w = controller.renewable_split(demand, slot_input.renewable)
        e = demand - s_w
        if e > bundle.grid.e_max + 1e-12:
            raise InfeasibleSlot(t, e, bundle.grid.e_max, "no-storage baseline")
        decision = ControlDecision(
            e=e, q=0.0, d_rate=0.0, s_w=s_w, s_r=0.0, delay=0,
            gamma_u=0.0, gamma_d=0.0, usage_amount=0.0, entry_cost=0.0, regime="idle",
        )
        records.append(
            SlotRecord(
                slot=t, price=slot_input.price, renewable=slot_input.renewable, demand=demand,
                e=e, q=0.0, d_rate=0.0, s_w=s_w, s_r=0.0, delay=0,
                b=state.b, z=state.z, x=state.x, h_u=state.h_u, h_d=state.h_d,
                regime="idle", gamma_u=0.0, gamma_d=0.0, in_horizon=t < bundle.horizon,
            )
        )
        costs.record(t, decision, slot_input.price)
        state = controller.update_queues(state, decision, bundle.weights.d_avg_max, bundle.weights.delta_u, bundle.horizon)
        ledger.prune(t + 1)
        t += 1
        if t == bundle.horizon:
            state_at_horizon = state

    return _summarize(
        "no_storage", bundle, costs, records, 0.0, initial_state, state_at_horizon, state,
        drain_slots=max(t - bundle.horizon, 0),
    )


_RECORD_COLUMNS = (
    "slot", "price", "renewable", "demand", "E", "Q", "D", "S_w", "S_r",
    "delay", "B", "Z", "X", "H_u", "H_d", "regime",
)


def write_records(path, records: Iterable[SlotRecord]) -> None:
    """Dump per-slot records in the standard CSV layout (drain slots included)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.slot,
                    _fmt(r.price), _fmt(r.renewable), _fmt(r.demand),
                    _fmt(r.e), _fmt(r.q), _fmt(r.d_rate), _fmt(r.s_w), _fmt(r.s_r),
                    r.delay,
                    _fmt(r.b), _fmt(r.z), _fmt(r.x), _fmt(r.h_u), _fmt(r.h_d),
                    r.regime,
                ]
            )


def _fmt(x: float) -> str:
    return format(x, ".9g")


def run_policy(trace: Trace, bundle: ModelBundle, policy: str) -> RunSummary:
    if policy == "joint":
        return run(trace, bundle, policy="joint")
    if policy == "storage_only":
        return baseline_storage_only(trace, bundle)
    if policy == "no_storage":
        return baseline_no_storage(trace, bundle)
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
