"""Parameters and quadratic costs for battery-plus-scheduling energy management.

Units are fixed across the package: energy in kWh per slot, money in dollars,
scheduling delay in integer slots. All parameter containers are immutable and
freely shareable across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass


# How far a slot's grid purchase may pass e_max, float rounding of its flows,
# before the slot counts as over the cap.
GRID_CAP_TOL = 1e-12


class ConfigurationError(ValueError):
    """Raised when parameters admit no feasible controller design."""


class InfeasibleSlot(RuntimeError):
    """The selected action needs more grid energy than the per-slot limit allows.

    Clamping the purchase would silently violate the supply-demand balance, so
    the run aborts with diagnostics instead.
    """

    def __init__(self, slot: int, required: float, limit: float, detail: str = ""):
        self.slot = slot
        self.required = required
        self.limit = limit
        self.detail = detail
        msg = f"slot {slot}: required grid purchase {required:.6f} kWh exceeds E_max={limit:.6f}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StateConsistencyError(RuntimeError):
    """Internal bug trap: a state invariant that must hold by construction failed."""


@dataclass(frozen=True)
class QuadraticCost:
    """k * x**2, the usage and delay cost of the model. k must be finite and
    >= 0, so the cost is convex; `name` labels k in the error otherwise."""

    k: float
    name: InitVar[str] = "k"

    def __post_init__(self, name: str) -> None:
        if not 0.0 <= self.k < math.inf:  # NaN fails both
            raise ConfigurationError(f"{name} must be finite and >= 0, got {self.k}")

    def value(self, x: float) -> float:
        return self.k * x * x

    def derivative(self, x: float) -> float:
        return 2.0 * self.k * x

    def inverse_derivative(self, y: float) -> float:
        if self.k <= 0.0:
            # Flat cost: the marginal-cost inversion is never consulted because
            # the closed-form saturates first; 0 is a safe answer for probes.
            return 0.0
        return y / (2.0 * self.k)


def default_k_d(d_avg_max: int) -> float:
    """Delay-cost coefficient normalizing the cost at the average-delay target to 1.

    With a target of 0 slots the delay cost is identically zero on the only
    admissible input, so any positive coefficient works; 1.0 keeps the model
    well defined.
    """
    if d_avg_max <= 0:
        return 1.0
    return 1.0 / float(d_avg_max) ** 2


@dataclass(frozen=True)
class CostModel:
    """Battery usage cost C_u and scheduling delay cost C_d."""

    usage: QuadraticCost
    delay: QuadraticCost

    @staticmethod
    def quadratic(k_u: float = 0.2, k_d: float | None = None, *, d_avg_max: int = 18) -> "CostModel":
        if k_d is None:
            k_d = default_k_d(d_avg_max)
        return CostModel(usage=QuadraticCost(k_u, "costs.k_u"), delay=QuadraticCost(k_d, "costs.k_d"))


@dataclass(frozen=True)
class BatteryParams:
    """Ideal battery: capacity window, per-slot rate limits, and entry fees.

    c_rc / c_dc are fixed dollar costs charged once per slot in which a
    charging / discharging event occurs, modeling cycle-entry degradation.
    """

    b_min: float = 0.0
    b_max: float = 3.0
    b_init: float = 0.0
    r_max: float = 0.165
    d_max_rate: float = 0.165
    c_rc: float = 0.001
    c_dc: float = 0.001

    @property
    def gamma_u_cap(self) -> float:
        """Cap of the usage stand-in: the largest flow one slot can move."""
        return max(self.r_max, self.d_max_rate)


@dataclass(frozen=True)
class GridParams:
    """Grid purchase limits: per-slot energy cap and the price band."""

    e_max: float = 0.3
    p_min: float = 0.063
    p_max: float = 0.118


@dataclass(frozen=True)
class Weights:
    """Objective weights and horizon-level targets.

    v is the cost-vs-queue-drift weight; None means "use the largest value the
    battery-capacity guarantee allows" (resolved at design time). delta_u is
    the desired net change of battery level over the horizon. d_avg_max is the
    average-delay target in slots.
    """

    alpha: float = 1.0
    mu: float = 1.0
    v: float | None = None
    delta_u: float = 0.0
    d_avg_max: int = 18


@dataclass(frozen=True)
class ModelBundle:
    """Everything a run needs besides the trace itself."""

    battery: BatteryParams = BatteryParams()
    grid: GridParams = GridParams()
    costs: CostModel = CostModel.quadratic()
    weights: Weights = Weights()
    horizon: int = 288

    @property
    def delta_per_slot(self) -> float:
        """The battery level's planned shift per slot, delta_u / horizon (0 with no slots)."""
        return self.weights.delta_u / self.horizon if self.horizon > 0 else 0.0


def battery_headroom(battery: BatteryParams, delta_u: float) -> float:
    """Battery window left once the rate limits, the usage stand-in cap and the
    net shift are set aside; v_max is positive exactly when this is."""
    return battery.b_max - battery.b_min - battery.r_max - battery.d_max_rate - 2.0 * battery.gamma_u_cap - abs(delta_u)


def validate_config(bundle: ModelBundle, max_task_delay: int | None = None) -> list[str]:
    """Report every violated parameter invariant of `bundle`; an empty list means valid.

    Also reports whether the feasible weight range is finite and nonempty:
    the designed v_max must be finite (p_max + C_u'(gamma_u) > 0) and
    positive (b_max - b_min > r_max + d_max_rate + 2*gamma_u + |delta_u|).

    max_task_delay, when supplied, is the largest per-load delay cap in the
    trace; the average-delay target is only effective if it does not exceed it.
    """
    battery, grid, costs, weights, horizon = bundle.battery, bundle.grid, bundle.costs, bundle.weights, bundle.horizon
    problems: list[str] = []
    if horizon < 1:
        problems.append(f"horizon must be >= 1, got {horizon}")

    if not (0.0 <= battery.b_min <= battery.b_init <= battery.b_max < math.inf):
        problems.append(
            "battery levels must satisfy 0 <= b_min <= b_init <= b_max < inf, got "
            f"b_min={battery.b_min}, b_init={battery.b_init}, b_max={battery.b_max}"
        )
    if not 0.0 < battery.r_max < math.inf:
        problems.append(f"charge rate limit r_max must be > 0 and finite, got {battery.r_max}")
    if not 0.0 < battery.d_max_rate < math.inf:
        problems.append(f"discharge rate limit d_max_rate must be > 0 and finite, got {battery.d_max_rate}")
    if not (0.0 <= battery.c_rc < math.inf and 0.0 <= battery.c_dc < math.inf):
        problems.append(f"entry costs must be >= 0 and finite, got c_rc={battery.c_rc}, c_dc={battery.c_dc}")

    if not 0.0 < grid.e_max < math.inf:
        problems.append(f"grid purchase limit e_max must be > 0 and finite, got {grid.e_max}")
    if not (0.0 <= grid.p_min <= grid.p_max < math.inf):
        problems.append(f"prices must satisfy 0 <= p_min <= p_max < inf, got p_min={grid.p_min}, p_max={grid.p_max}")

    if not 0.0 < weights.alpha < math.inf:
        problems.append(f"alpha must be > 0 and finite, got {weights.alpha}")
    if not 0.0 < weights.mu < math.inf:
        problems.append(f"mu must be > 0 and finite, got {weights.mu}")
    if weights.v is not None and not 0.0 <= weights.v < math.inf:
        problems.append(f"v must be >= 0 and finite, got {weights.v}")
    if weights.d_avg_max < 0:
        problems.append(f"d_avg_max must be >= 0, got {weights.d_avg_max}")
    if max_task_delay is not None and weights.d_avg_max > max_task_delay:
        problems.append(
            f"average-delay target d_avg_max={weights.d_avg_max} exceeds the largest "
            f"per-load delay cap {max_task_delay}; the constraint cannot bind"
        )

    if horizon >= 1:
        delta_cap = min(
            battery.b_max - battery.b_min,
            horizon * battery.gamma_u_cap,
        )
        if not abs(weights.delta_u) <= delta_cap:
            problems.append(
                f"|delta_u|={abs(weights.delta_u)} is unreachable within the horizon "
                f"(cap {delta_cap})"
            )

    gamma_u = battery.gamma_u_cap
    if not math.isfinite(costs.usage.derivative(gamma_u)):
        problems.append(f"usage-cost derivative is not finite at {gamma_u}")
    if weights.d_avg_max > 0 and not math.isfinite(costs.delay.derivative(float(weights.d_avg_max))):
        problems.append(f"delay-cost derivative is not finite at {weights.d_avg_max}")

    slope = grid.p_max + costs.usage.derivative(gamma_u)
    if not slope > 0.0:
        problems.append(f"V_max has no finite value: p_max + C_u'(max(r_max, d_max_rate)) = {slope} <= 0")
    if not battery_headroom(battery, weights.delta_u) > 0.0:
        problems.append(
            "V_max <= 0: battery window b_max - b_min = "
            f"{battery.b_max - battery.b_min} does not exceed "
            f"r_max + d_max_rate + 2*max(r_max, d_max_rate) + |delta_u| = "
            f"{battery.r_max + battery.d_max_rate + 2.0 * gamma_u + abs(weights.delta_u)}; "
            "no feasible weight v exists"
        )

    return problems
