"""Real-time load scheduling and storage control via drift-plus-penalty.

The controller keeps four virtual queues — x for the average-delay target,
z for the battery-level shift, h_u / h_d for the auxiliary equalities tying
per-slot stand-ins to the time-averaged usage and delay — and at each slot
minimizes an upper bound of (Lyapunov drift) + v * (instantaneous cost).
The per-slot problem separates, and every piece has a closed-form solution:

* schedule_load picks the delay for the arriving task (always 0, 1, or the
  per-load cap);
* aux_solution picks the auxiliary stand-in for a time-averaged cost term;
* energy_control picks the grid/battery energy flows by comparing one
  candidate action per battery regime against staying idle.

Queue state is a value: `ControllerState` is an immutable NamedTuple, and
every operation is state-in/state-out and pure, so independent runs can
execute concurrently without sharing anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .model import (
    GRID_CAP_TOL,
    BatteryParams,
    ConfigurationError,
    GridParams,
    InfeasibleSlot,
    ModelBundle,
    QuadraticCost,
    StateConsistencyError,
    battery_headroom,
)
from .scenario import LoadTask

if TYPE_CHECKING:
    from .simulator import SlotRecord

_IDENTITY_TOL = 1e-9


class ControllerState(NamedTuple):
    """Virtual queues, battery level, and the designed constants in force.

    z tracks the battery level minus a time-dependent shift (so it ranges over
    all reals), x >= 0 accumulates delay excess over the per-slot target, and
    h_u / h_d are signed backlogs of the auxiliary equalities.
    """

    z: float
    x: float
    h_u: float
    h_d: float
    b: float
    a_o: float
    v: float
    slot: int = 0


def design_params(bundle: ModelBundle) -> tuple[float, float, float]:
    """Compute the shift constant a_o, the largest admissible weight v_max and
    the weight v in use.

    a_o places the battery-level queue so that any v in [0, v_max] keeps the
    battery inside [b_min, b_max] at every slot. Returns (a_o, v_max, v), where
    v is weights.v, defaulting to v_max, and a_o is evaluated at that v.
    """
    battery, grid, weights = bundle.battery, bundle.grid, bundle.weights
    gamma_u = battery.gamma_u_cap
    marginal = bundle.costs.usage.derivative(gamma_u)
    slope = grid.p_max + marginal
    if not slope > 0.0:
        raise ConfigurationError(f"V_max has no finite value: p_max + C_u'(gamma_u) = {slope:.6g} <= 0")
    v_max = battery_headroom(battery, weights.delta_u) / slope
    if v_max <= 0.0:
        raise ConfigurationError(
            f"battery window too small for any feasible weight: v_max = {v_max:.6g} <= 0"
        )
    v = weights.v if weights.v is not None else v_max
    a_o = (
        battery.b_min + v * grid.p_max + v * marginal + gamma_u + battery.d_max_rate
        + bundle.delta_per_slot
    )
    if weights.delta_u < 0.0:
        a_o -= weights.delta_u
    return a_o, v_max, v


def init_state(battery: BatteryParams, a_o: float, v: float) -> ControllerState:
    """Fresh state at slot 0: empty queues, battery at its initial level.

    z starts at b_init - a_o, the shifted origin the battery-bounds guarantee
    assumes, so z = b - (a_o + shift * slot) holds at every slot of the run.
    """
    return ControllerState(z=battery.b_init - a_o, x=0.0, h_u=0.0, h_d=0.0, b=battery.b_init, a_o=a_o, v=v)


def schedule_load(state: ControllerState, task: LoadTask, mu: float, effective_d_max: int) -> int:
    """Choose the service delay for the task arriving this slot.

    Compares the queue-weighted cost of serving now against the cheapest
    nonzero delay; the answer is always 0, 1, or the cap. Ties go to
    immediate service.
    """
    _, intensity, _, max_delay = task
    d_cap = max_delay if max_delay < effective_d_max else effective_d_max
    if d_cap <= 0:
        return 0
    omega_o = -intensity * (state.z - abs(state.h_u))
    backlog = state.x - state.h_d
    if backlog >= 0.0:
        return 0 if omega_o <= mu * backlog else 1
    return 0 if omega_o <= mu * d_cap * backlog else d_cap


def aux_solution(h: float, v: float, beta: float, cost: QuadraticCost, cap: float) -> float:
    """Optimal auxiliary stand-in gamma* in [0, cap] for backlog h.

    Minimizes h*gamma + v*beta*C(gamma): 0 when the backlog is nonnegative,
    the cap when the backlog outweighs the marginal cost there, and the
    marginal-cost inversion in between. v*beta = 0 degenerates to a bang-bang
    choice (the limit of the general rule).
    """
    if cap <= 0.0 or h >= 0.0:
        return 0.0
    vb = v * beta
    if vb <= 0.0:
        return cap
    if h < -vb * cost.derivative(cap):
        return cap
    return cost.inverse_derivative(-h / vb)


def renewable_split(demand: float, renewable: float) -> float:
    """Renewable serves the current demand first; the rest may be stored."""
    return renewable if renewable < demand else demand


def entry_cost(q: float, s_r: float, d_rate: float, battery: BatteryParams) -> float:
    """Battery wear of a slot: one fixed fee per direction the battery moves."""
    cost = 0.0
    if q + s_r > 0.0:
        cost += battery.c_rc
    if d_rate > 0.0:
        cost += battery.c_dc
    return cost


def usage_amount(q: float, s_r: float, d_rate: float) -> float:
    """Battery usage of a slot: the magnitude of its net flow into the battery."""
    return abs(q + s_r - d_rate)


def energy_objective(
    e: float,
    q: float,
    d_rate: float,
    s_r: float,
    key1: float,
    key2: float,
    v: float,
    battery: BatteryParams,
) -> float:
    """Queue-weighted per-slot value of the energy flows (lower is better).

    The flows come first in the order `energy_control` returns them, so an
    action `a` is priced as `energy_objective(*a[:4], key1, key2, v, battery)`.
    """
    return e * key1 + s_r * key2 + v * entry_cost(q, s_r, d_rate, battery)


def energy_control(
    state: ControllerState,
    demand_l: float,
    s_w: float,
    renewable: float,
    price: float,
    battery: BatteryParams,
    grid: GridParams,
) -> tuple[float, float, float, float, str]:
    """Choose the grid purchase and battery flows for this slot: returns
    (e, q, d_rate, s_r, regime).

    The sign pattern of key2 = z - h_u and key1 = key2 + v*price selects the
    battery regime to consider: key1 <= 0 favors charging, key2 >= 0 favors
    discharging, and the mixed band considers both directions at once (at most
    one of them is actually available, because the renewable surplus and the
    residual demand cannot both be positive). The regime's candidate action is
    taken only if it moves some energy and beats staying idle strictly; ties
    stay idle.

    Raises InfeasibleSlot when the chosen action needs a grid purchase above
    e_max. The regime is picked before that limit is checked, so a raise does
    not mean that no admissible action exists: a forced discharge may still
    cover the excess (ROADMAP item 1).
    """
    residual = demand_l - s_w
    surplus = renewable - s_w
    v = state.v
    key2 = state.z - state.h_u
    key1 = key2 + v * price

    # `b if b < a else a` is min(a, b), ties included, without a builtin call.
    r_max, d_max_rate = battery.r_max, battery.d_max_rate
    if key1 <= 0.0:
        s_r = r_max if r_max < surplus else surplus
        q, headroom = r_max - s_r, grid.e_max - residual
        if headroom < q:
            q = headroom
        if q < 0.0:
            q = 0.0  # no grid headroom left; charge from the surplus alone
        e, d_rate, regime = residual + q, 0.0, "charge"
    elif key2 < 0.0:
        d_rate = d_max_rate if d_max_rate < residual else residual
        s_r = r_max if r_max < surplus else surplus
        e, q = residual - d_rate, 0.0
        regime = "charge" if s_r > 0.0 else "discharge"
    else:
        d_rate = d_max_rate if d_max_rate < residual else residual
        e, q, s_r, regime = residual - d_rate, 0.0, 0.0, "discharge"

    # Idle is energy_objective(residual, 0.0, 0.0, 0.0, ...) less its terms
    # 0.0*key2 and v*0.0, which add only signed zeros: no `<` below changes.
    if not (
        (q > 0.0 or s_r > 0.0 or d_rate > 0.0)
        and energy_objective(e, q, d_rate, s_r, key1, key2, v, battery) < residual * key1
    ):
        e, q, d_rate, s_r, regime = residual, 0.0, 0.0, 0.0, "idle"

    if e > grid.e_max + GRID_CAP_TOL:
        raise InfeasibleSlot(state.slot, e, grid.e_max, f"regime={regime}, residual demand {residual:.6f}")
    return e, q, d_rate, s_r, regime


def update_queues(state: ControllerState, record: SlotRecord, d_avg_max: int, shift: float) -> ControllerState:
    """Advance every queue and the battery by the slot `record` describes;
    `shift` is the model's `delta_per_slot`.

    Re-asserts the shift identity z = b - (a_o + shift * slot); a violation
    means a bug in the flow accounting, not bad input, so it raises
    StateConsistencyError.
    """
    z, x, h_u, h_d, b, a_o, v, slot = state
    q, d_rate, s_r, delay = record.q, record.d_rate, record.s_r, record.delay
    net_flow = q + s_r - d_rate
    z = z + net_flow - shift
    b = b + net_flow
    slot = slot + 1
    drift = z - (b - (a_o + shift * slot))
    if abs(drift) > _IDENTITY_TOL:
        raise StateConsistencyError(
            f"slot {slot}: battery-queue shift identity drifted by {drift:.3e}"
        )
    x = x + delay - d_avg_max
    # In field order: z, x, h_u, h_d, b, a_o, v, slot.
    return ControllerState._make((
        z,
        0.0 if 0.0 > x else x,  # max(x, 0.0)
        h_u + record.gamma_u - abs(net_flow),  # usage_amount(q, s_r, d_rate)
        h_d + record.gamma_d - delay,
        b, a_o, v, slot,
    ))


def drift_bound_G(bundle: ModelBundle, per_load_d_max: int) -> float:
    """Constant G bounding the quadratic queue-growth terms of a single slot.

    per_load_d_max is the largest per-load delay cap over the whole trace.
    """
    battery, weights, shift = bundle.battery, bundle.weights, bundle.delta_per_slot
    return (
        0.5 * max((battery.r_max - shift) ** 2, (battery.d_max_rate + shift) ** 2)
        + 0.5 * max(battery.r_max**2, battery.d_max_rate**2)
        + 0.5 * weights.mu * max(float(weights.d_avg_max) ** 2, float(per_load_d_max - weights.d_avg_max) ** 2)
        + 0.5 * weights.mu * float(per_load_d_max) ** 2
    )


def lyapunov(state: ControllerState | SlotRecord, mu: float) -> float:
    """Quadratic size of the queue vector (a record holds its slot's entering queues)."""
    return 0.5 * (state.z**2 + state.h_u**2 + mu * (state.x**2 + state.h_d**2))


def drift_upper_bound(record: SlotRecord, g: float, bundle: ModelBundle) -> float:
    """Per-slot upper bound on lyapunov(next) - lyapunov(current).

    The record holds the queues entering its slot, the slot's served demand
    (which already reflects the slot's own scheduling choice) and the
    decision. Every quantity here is observable, so the bound can be
    asserted slot by slot during a run.
    """
    weights, shift = bundle.weights, bundle.delta_per_slot
    return (
        record.z * (record.e + record.s_r + record.s_w - record.demand - shift)
        + record.h_u * record.gamma_u
        - record.h_u * (record.e + record.s_r)
        + weights.mu * record.x * (record.delay - weights.d_avg_max)
        + g
        - abs(record.h_u) * (record.s_w - record.demand)
        + weights.mu * record.h_d * (record.gamma_d - record.delay)
    )
