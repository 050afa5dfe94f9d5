"""Cost functions, parameter containers, and configuration validation."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emsched.model import (
    BatteryParams,
    ConfigurationError,
    CostModel,
    GridParams,
    ModelBundle,
    QuadraticCost,
    Weights,
    default_k_d,
    validate_config,
)


def defaults_valid(**overrides):
    kwargs = dict(
        battery=BatteryParams(),
        grid=GridParams(),
        costs=CostModel.quadratic(),
        weights=Weights(),
        horizon=288,
    )
    kwargs.update(overrides)
    return validate_config(ModelBundle(**kwargs))


class TestQuadraticCosts:
    def test_usage_cost_at_rate_cap(self):
        costs = CostModel.quadratic(k_u=0.2)
        assert costs.usage.value(0.165) == pytest.approx(0.005445, abs=1e-15)

    def test_delay_cost_normalized_to_one_at_target(self):
        costs = CostModel.quadratic(d_avg_max=18)
        assert costs.delay.value(18.0) == pytest.approx(1.0, abs=1e-12)

    def test_usage_cost_zero(self):
        assert CostModel.quadratic().usage.value(0.0) == 0.0

    def test_default_delay_coefficient(self):
        assert default_k_d(18) == pytest.approx(1.0 / 324.0)
        assert default_k_d(0) == 1.0  # degenerate target: any coefficient works

    @pytest.mark.parametrize(("k_u", "k_d", "d_avg_max", "key"), [
        (-0.2, -1.0, 18, "costs.k_u"),  # concave: a default day run on it totalled -79.94
        (0.2, math.inf, 0, "costs.k_d"),  # validate_config probes the delay slope only when d_avg_max > 0
        (0.2, -1e-300, 18, "costs.k_d"),
        (math.nan, None, 18, "costs.k_u"),
    ])
    def test_a_concave_or_infinite_cost_is_refused_when_built(self, k_u, k_d, d_avg_max, key):
        with pytest.raises(ConfigurationError, match=re.escape(f"{key} must be finite and >= 0")):
            CostModel.quadratic(k_u, k_d, d_avg_max=d_avg_max)

    def test_a_flat_cost_is_allowed_and_a_concave_one_is_not(self):
        assert QuadraticCost(0.0).value(3.0) == 0.0
        with pytest.raises(ConfigurationError, match=re.escape("k must be finite and >= 0, got -1e-09")):
            QuadraticCost(-1e-9)


@given(
    k=st.floats(min_value=1e-6, max_value=100.0),
    x=st.floats(min_value=0.0, max_value=50.0),
    y=st.floats(min_value=0.0, max_value=50.0),
    t=st.floats(min_value=0.0, max_value=1.0),
)
@example(k=84.92013911859677, x=18.0, y=18.0, t=0.3984375)
def test_cost_convexity(k, x, y, t):
    # Both sides carry float rounding proportional to their size (at the
    # pinned example they differ by 3.6e-12 at a value of 27514), so the
    # slack is relative, with an absolute floor for values below 1.
    cost = QuadraticCost(k)
    mid = t * x + (1 - t) * y
    rhs = t * cost.value(x) + (1 - t) * cost.value(y)
    assert cost.value(mid) <= rhs + 1e-12 * max(rhs, 1.0)


@given(k=st.floats(min_value=1e-3, max_value=10.0), x=st.floats(min_value=1e-3, max_value=50.0))
@settings(max_examples=100)
def test_derivative_matches_finite_difference(k, x):
    cost = QuadraticCost(k)
    h = 1e-6 * max(x, 1.0)
    fd = (cost.value(x + h) - cost.value(x - h)) / (2 * h)
    assert cost.derivative(x) == pytest.approx(fd, rel=1e-6)


class TestValidateConfig:
    def test_defaults_pass(self):
        assert defaults_valid() == []

    def test_small_battery_window_kills_feasible_weight_range(self):
        problems = defaults_valid(battery=BatteryParams(b_max=0.5))
        assert any("V_max <= 0" in p for p in problems)

    def test_zero_purchase_cap_invalid(self):
        problems = defaults_valid(grid=GridParams(e_max=0.0))
        assert any("e_max" in p for p in problems)

    def test_delay_target_must_be_reachable(self):
        problems = validate_config(
            ModelBundle(BatteryParams(), GridParams(), CostModel.quadratic(), Weights(d_avg_max=20), horizon=288),
            max_task_delay=18,
        )
        assert any("cannot bind" in p for p in problems)

    def test_unreachable_level_change_reported(self):
        problems = defaults_valid(weights=Weights(delta_u=5.0))
        assert any("delta_u" in p for p in problems)

    def test_bad_level_ordering_reported(self):
        problems = defaults_valid(battery=BatteryParams(b_min=1.0, b_init=0.5))
        assert any("b_min <= b_init <= b_max" in p for p in problems)

    def test_nonpositive_weights_reported(self):
        problems = defaults_valid(weights=Weights(alpha=0.0, mu=-1.0))
        assert any("alpha" in p for p in problems)
        assert any("mu" in p for p in problems)

    def test_zero_price_band_with_flat_usage_cost_has_no_finite_v_max(self):
        # v_max = headroom / (p_max + C_u'(gamma_u cap)) would divide by zero
        problems = defaults_valid(grid=GridParams(p_min=0.0, p_max=0.0), costs=CostModel.quadratic(k_u=0.0))
        assert problems == ["V_max has no finite value: p_max + C_u'(max(r_max, d_max_rate)) = 0.0 <= 0"]
        assert defaults_valid(grid=GridParams(p_min=0.0, p_max=0.0)) == []


class TestModelBundle:
    def test_usage_auxiliary_cap_is_larger_rate(self):
        bundle = ModelBundle(battery=BatteryParams(r_max=0.1, d_max_rate=0.2))
        assert bundle.battery.gamma_u_cap == 0.2

    def test_per_slot_level_shift(self):
        bundle = ModelBundle(weights=Weights(delta_u=2.88), horizon=288)
        assert bundle.delta_per_slot == pytest.approx(0.01)
