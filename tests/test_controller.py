"""Closed-form per-slot decisions, parameter design, and queue dynamics."""

import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from emsched import controller
from emsched.controller import (
    ControllerState,
    aux_solution,
    design_params,
    drift_bound_G,
    drift_upper_bound,
    energy_control,
    init_state,
    lyapunov,
    energy_objective,
    renewable_split,
    schedule_load,
    update_queues,
    usage_amount,
)
from emsched.model import (
    BatteryParams,
    ConfigurationError,
    CostModel,
    GridParams,
    InfeasibleSlot,
    ModelBundle,
    QuadraticCost,
    StateConsistencyError,
    Weights,
)
from emsched.scenario import LoadTask
from emsched.simulator import SlotRecord

from conftest import day_bundle


def make_state(**overrides) -> ControllerState:
    kwargs = dict(
        z=0.0, x=0.0, h_u=0.0, h_d=0.0, b=0.0,
        a_o=2.67, v=10.0, slot=0,
    )
    kwargs.update(overrides)
    return ControllerState(**kwargs)


def task_with(intensity=0.1, duration=1, max_delay=18) -> LoadTask:
    return LoadTask(arrival_slot=0, intensity=intensity, duration=duration, max_delay=max_delay)


class TestDesignParams:
    def test_default_constants(self):
        a_o, v_max, v = design_params(ModelBundle(BatteryParams(), GridParams(), CostModel.quadratic(), Weights(), 288))
        assert v_max == pytest.approx(12.717391304347826, abs=1e-12)
        assert v == v_max  # weights.v None means the designed V_max
        assert a_o == pytest.approx(2.67, abs=1e-12)

    def test_zero_weight_strips_price_terms(self):
        a_o, _, v = design_params(
            ModelBundle(BatteryParams(), GridParams(), CostModel.quadratic(), Weights(v=0.0), 288)
        )
        assert v == 0.0
        assert a_o == pytest.approx(0.0 + 0.165 + 0.165)

    def test_no_headroom_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            design_params(
                ModelBundle(BatteryParams(b_max=0.5), GridParams(), CostModel.quadratic(), Weights(), 288)
            )

    def test_no_finite_v_max_is_a_configuration_error(self):
        free = ModelBundle(grid=GridParams(p_min=0.0, p_max=0.0), costs=CostModel.quadratic(k_u=0.0))
        with pytest.raises(ConfigurationError, match="V_max has no finite value"):
            design_params(free)

    def test_negative_level_change_widens_the_shift(self):
        base, _, _ = design_params(ModelBundle(BatteryParams(), GridParams(), CostModel.quadratic(),
                                               Weights(v=0.0), 288))
        shifted, _, _ = design_params(ModelBundle(BatteryParams(), GridParams(), CostModel.quadratic(),
                                                  Weights(v=0.0, delta_u=-1.0), 288))
        # a_o gains |delta_u| (minus the one-slot share already counted)
        assert shifted == pytest.approx(base - 1.0 / 288 + 1.0)


class TestInitState:
    def test_empty_battery_starts_queue_at_minus_shift(self):
        state = init_state(BatteryParams(b_init=0.0), a_o=2.67, v=10.0)
        assert state.z == pytest.approx(-2.67)
        assert (state.x, state.h_u, state.h_d) == (0.0, 0.0, 0.0)

    def test_battery_at_shift_level_starts_queue_at_zero(self):
        state = init_state(BatteryParams(b_max=3.0, b_init=2.67), a_o=2.67, v=10.0)
        assert state.z == pytest.approx(0.0)


def test_state_and_record_carry_only_per_slot_fields():
    assert ControllerState._fields == ("z", "x", "h_u", "h_d", "b", "a_o", "v", "slot")
    assert len(SlotRecord._fields) == 18 and SlotRecord._fields[-1] == "gamma_d"


class TestScheduleLoad:
    def test_serve_now_when_queue_pressure_wins(self):
        state = make_state(z=-2.0, h_u=0.3, x=0.5, h_d=0.2)
        # omega_o = 0.23 against a nonnegative backlog of 0.3
        assert schedule_load(state, task_with(), mu=1.0, effective_d_max=18) == 0

    def test_negative_backlog_pushes_to_the_cap(self):
        state = make_state(z=-2.0, h_u=0.3, x=0.0, h_d=0.5)
        assert schedule_load(state, task_with(), mu=1.0, effective_d_max=18) == 18

    def test_tie_goes_to_immediate_service(self):
        state = make_state()
        assert schedule_load(state, task_with(intensity=0.0), mu=1.0, effective_d_max=18) == 0

    def test_single_slot_delay_when_it_beats_both(self):
        state = make_state(z=-2.0, h_u=0.3, x=0.1, h_d=0.0)
        # omega_o = 0.23 > mu * backlog = 0.1
        assert schedule_load(state, task_with(), mu=1.0, effective_d_max=18) == 1

    def test_zero_cap_forces_immediate_service(self):
        state = make_state(z=-5.0)
        assert schedule_load(state, task_with(max_delay=0), mu=1.0, effective_d_max=18) == 0
        assert schedule_load(state, task_with(), mu=1.0, effective_d_max=0) == 0


@given(
    z=st.floats(-6.0, 3.0),
    x=st.floats(0.0, 40.0),
    h_u=st.floats(-2.0, 2.0),
    h_d=st.floats(-30.0, 30.0),
    intensity=st.floats(0.0, 0.3),
    mu=st.floats(0.1, 10.0),
    cap=st.integers(0, 24),
)
def test_schedule_output_is_zero_one_or_cap(z, x, h_u, h_d, intensity, mu, cap):
    state = make_state(z=z, x=x, h_u=h_u, h_d=h_d)
    d = schedule_load(state, task_with(intensity=intensity, max_delay=cap), mu, effective_d_max=cap)
    assert d in {0, 1, cap}


class TestAuxSolution:
    COST = QuadraticCost(0.2)

    def test_large_backlog_saturates_at_cap(self):
        assert aux_solution(-1.0, 10.0, 1.0, self.COST, 0.165) == pytest.approx(0.165)

    def test_interior_backlog_inverts_marginal_cost(self):
        assert aux_solution(-0.4, 10.0, 1.0, self.COST, 0.165) == pytest.approx(0.1)

    def test_nonnegative_backlog_returns_zero(self):
        assert aux_solution(0.5, 10.0, 1.0, self.COST, 0.165) == 0.0

    def test_zero_cap_returns_zero(self):
        assert aux_solution(-1.0, 10.0, 1.0, self.COST, 0.0) == 0.0

    def test_vanishing_weight_degenerates_to_bang_bang(self):
        assert aux_solution(-0.1, 0.0, 1.0, self.COST, 0.165) == 0.165
        assert aux_solution(-0.1, 10.0, 0.0, self.COST, 0.165) == 0.165
        assert aux_solution(0.1, 0.0, 1.0, self.COST, 0.165) == 0.0


@given(
    h=st.floats(-5.0, 5.0),
    v=st.floats(0.0, 20.0),
    beta=st.floats(0.0, 2.0),
    k=st.floats(0.01, 5.0),
    cap=st.floats(0.01, 20.0),
)
@settings(max_examples=200)
def test_aux_solution_is_feasible_and_locally_optimal(h, v, beta, k, cap):
    cost = QuadraticCost(k)
    g = aux_solution(h, v, beta, cost, cap)
    assert 0.0 <= g <= cap + 1e-12

    def objective(x):
        return h * x + v * beta * cost.value(x)

    eps = 1e-6 * cap
    for probe in (g - eps, g + eps):
        if 0.0 <= probe <= cap:
            assert objective(g) <= objective(probe) + 1e-9


class TestRenewableSplit:
    def test_renewable_limited(self):
        assert renewable_split(0.2, 0.05) == 0.05

    def test_demand_limited(self):
        assert renewable_split(0.05, 0.2) == 0.05

    def test_no_demand(self):
        assert renewable_split(0.0, 0.2) == 0.0


class TestEnergyControl:
    BATTERY = BatteryParams()
    GRID = GridParams()

    def test_cheap_price_charges_and_stores_surplus(self):
        state = make_state(z=-3.0)
        e, q, d_rate, s_r, regime = energy_control(state, 0.1, 0.0, 0.05, 0.118, self.BATTERY, self.GRID)
        assert regime == "charge"
        assert s_r == pytest.approx(0.05)
        assert q == pytest.approx(0.115)
        assert e == pytest.approx(0.215)
        key2 = state.z - state.h_u
        key1 = key2 + state.v * 0.118
        value = energy_objective(e, q, d_rate, s_r, key1, key2, state.v, self.BATTERY)
        assert value == pytest.approx(-0.5313, abs=1e-9)

    def test_no_residual_no_surplus_idles(self):
        state = make_state(z=1.0)
        action = energy_control(state, 0.05, 0.05, 0.05, 0.1, self.BATTERY, self.GRID)
        assert action == (0.0, 0.0, 0.0, 0.0, "idle")

    def test_high_queue_discharges_into_residual_demand(self):
        state = make_state(z=0.5)
        e, _, d_rate, _, regime = energy_control(state, 0.2, 0.0, 0.0, 0.118, self.BATTERY, self.GRID)
        assert regime == "discharge"
        assert d_rate == pytest.approx(0.165)
        assert e == pytest.approx(0.035)

    def test_discharge_entry_fee_can_keep_the_battery_idle(self):
        pricey = replace(self.BATTERY, c_dc=1.0)
        state = make_state(z=0.5)
        e, *_, regime = energy_control(state, 0.2, 0.0, 0.0, 0.118, pricey, self.GRID)
        assert regime == "idle"
        assert e == pytest.approx(0.2)

    def test_value_ties_resolve_to_idle(self):
        state = make_state(z=0.0, v=0.0)
        *_, regime = energy_control(state, 0.1, 0.0, 0.0, 0.118, self.BATTERY, self.GRID)
        assert regime == "idle"

    def test_mixed_band_stores_surplus_without_buying(self):
        # key1 > 0 > key2: charging from the grid is a loss but free surplus is not
        state = make_state(z=-0.5)
        _, q, _, s_r, regime = energy_control(state, 0.05, 0.05, 0.25, 0.118, self.BATTERY, self.GRID)
        assert regime == "charge"
        assert q == 0.0
        assert s_r == pytest.approx(0.165)

    def test_unservable_demand_is_a_hard_error(self):
        state = make_state(z=2.0)
        with pytest.raises(InfeasibleSlot):
            energy_control(state, 0.5, 0.0, 0.0, 0.118, self.BATTERY, self.GRID)


@st.composite
def slot_situations(draw):
    state = make_state(
        z=draw(st.floats(-6.0, 3.0)),
        h_u=draw(st.floats(-2.0, 2.0)),
        v=draw(st.floats(0.0, 12.7)),
    )
    s_w = draw(st.floats(0.0, 0.25))
    if draw(st.booleans()):
        residual, surplus = draw(st.floats(0.0, 0.27)), 0.0
    else:
        residual, surplus = 0.0, draw(st.floats(0.0, 0.4))
    price = draw(st.floats(0.063, 0.118))
    return state, s_w + residual, s_w, s_w + surplus, price


@given(slot_situations())
@settings(max_examples=300)
def test_energy_control_respects_flow_limits_and_balance(situation):
    state, demand_l, s_w, renewable, price = situation
    battery, grid = BatteryParams(), GridParams()
    e, q, d_rate, s_r, _ = energy_control(state, demand_l, s_w, renewable, price, battery, grid)
    assert -1e-12 <= e <= grid.e_max + 1e-12
    assert -1e-12 <= q + s_r <= battery.r_max + 1e-12
    assert -1e-12 <= d_rate <= battery.d_max_rate + 1e-12
    assert (q + s_r) * d_rate == 0.0  # never both directions
    assert e - q + s_w + d_rate == pytest.approx(demand_l, abs=1e-12)


def _scales_exactly(situation) -> bool:
    state = situation[0]
    return all(f == 0.0 or abs(f) >= 2.0**-900 for f in (state.h_u, state.v))


@given(situation=slot_situations().filter(_scales_exactly), scale=st.sampled_from([0.5, 2.0, 4.0]))
@example(situation=(make_state(z=-1.0, h_u=-(2.0**-900), v=2.0), 0.1, 0.0, 0.1, 0.1), scale=2.0)
@settings(max_examples=200)
def test_decisions_invariant_under_price_cost_rescaling(situation, scale):
    """Multiplying all prices and cost coefficients by c while dividing the
    penalty weight by c leaves every decision bit-identical.

    Powers of two keep the arithmetic exact only while every product and
    quotient stays a normal float, so h_u and v are drawn as 0 or of
    magnitude >= 2**-900. Below that, halving rounds: h_u = -5e-324 with
    v = 2 gives gamma 0.0 at one scale and 5e-324 at the other.
    """
    state, demand_l, s_w, renewable, price = situation
    battery, grid = BatteryParams(), GridParams()
    scaled_battery = replace(battery, c_rc=battery.c_rc * scale, c_dc=battery.c_dc * scale)
    scaled_state = state._replace(v=state.v / scale)

    base = energy_control(state, demand_l, s_w, renewable, price, battery, grid)
    scaled = energy_control(scaled_state, demand_l, s_w, renewable, price * scale,
                            scaled_battery, grid)
    assert base == scaled

    cost = QuadraticCost(0.2)
    scaled_cost = QuadraticCost(0.2 * scale)
    g = aux_solution(state.h_u, state.v, 1.0, cost, 0.165)
    g_scaled = aux_solution(state.h_u, state.v / scale, 1.0, scaled_cost, 0.165)
    assert g == g_scaled


class TestUpdateQueues:
    BATTERY = BatteryParams()

    def fresh(self, **overrides):
        state = init_state(self.BATTERY, a_o=2.67, v=10.0)
        return state._replace(**overrides) if overrides else state

    @staticmethod
    def decision(**overrides) -> SlotRecord:
        kwargs = dict(slot=0, price=0.0, renewable=0.0, demand=0.0,
                      e=0.0, q=0.0, d_rate=0.0, s_w=0.0, s_r=0.0, delay=0,
                      b=0.0, z=0.0, x=0.0, h_u=0.0, h_d=0.0, regime="idle",
                      gamma_u=0.0, gamma_d=0.0)
        kwargs.update(overrides)
        return SlotRecord(**kwargs)

    def test_null_action_only_applies_the_level_shift(self):
        state = self.fresh()
        nxt = update_queues(state, self.decision(), d_avg_max=2, shift=2.88 / 288)
        assert nxt.x == 0.0
        assert nxt.z == pytest.approx(state.z - 0.01)
        assert nxt.b == state.b
        assert nxt.slot == 1

    def test_charging_moves_queue_and_battery_together(self):
        state = self.fresh()
        nxt = update_queues(state, self.decision(q=0.06, s_r=0.04),
                            d_avg_max=18, shift=0.0)
        assert nxt.z == pytest.approx(state.z + 0.1)
        assert nxt.b == pytest.approx(state.b + 0.1)

    def test_delay_queue_accumulates_excess_over_target(self):
        state = self.fresh()
        nxt = update_queues(state, self.decision(delay=18), d_avg_max=12, shift=0.0)
        assert nxt.x == pytest.approx(6.0)

    def test_delay_queue_floors_at_zero(self):
        state = self.fresh(x=1.0)
        nxt = update_queues(state, self.decision(delay=0), d_avg_max=5, shift=0.0)
        assert nxt.x == 0.0

    def test_auxiliary_queues_track_their_equalities(self):
        state = self.fresh(h_u=0.2, h_d=-1.0)
        nxt = update_queues(
            state,
            self.decision(q=0.1, gamma_u=0.04, gamma_d=2.0, delay=5),
            d_avg_max=18, shift=0.0,
        )
        assert nxt.h_u == pytest.approx(0.2 + 0.04 - 0.1)
        assert nxt.h_d == pytest.approx(-1.0 + 2.0 - 5)

    def test_corrupted_state_trips_the_identity_trap(self):
        state = self.fresh()._replace(z=1.0)  # identity no longer matches b
        with pytest.raises(StateConsistencyError, match="identity"):
            update_queues(state, self.decision(), d_avg_max=18, shift=0.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _bits(value) -> tuple[type, bytes]:
    return type(value), struct.pack("<d", value)


@given(demand=FINITE, renewable=FINITE)
@example(demand=0.0, renewable=-0.0)
@example(demand=-0.0, renewable=0.0)
@example(demand=0.05, renewable=0.05)
@example(demand=0, renewable=0.2)   # a slot no service window covers has demand int 0
@example(demand=0, renewable=0.0)
@example(demand=0, renewable=-0.0)
def test_renewable_split_is_builtin_min_bit_for_bit(demand, renewable):
    assert _bits(renewable_split(demand, renewable)) == _bits(min(demand, renewable))


@given(x=FINITE, delay=st.integers(0, 50), d_avg_max=st.integers(0, 50))
@example(x=-0.0, delay=0, d_avg_max=0)
@example(x=0.0, delay=0, d_avg_max=0)
@example(x=3.0, delay=2, d_avg_max=5)
@example(x=-3.0, delay=5, d_avg_max=2)
def test_delay_queue_clamp_is_builtin_max_bit_for_bit(x, delay, d_avg_max):
    state = init_state(BatteryParams(), a_o=2.67, v=10.0)._replace(x=x)
    record = SlotRecord(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, delay,
                        0.0, 0.0, 0.0, 0.0, 0.0, "idle", 0.0, 0.0)
    nxt = update_queues(state, record, d_avg_max=d_avg_max, shift=0.0)
    assert _bits(nxt.x) == _bits(max(x + delay - d_avg_max, 0.0))


@given(residual=FINITE, key1=FINITE, key2=FINITE, v=st.floats(0.0, 1e6))
@example(residual=0.0, key1=-0.0, key2=-1.0, v=0.0)
@example(residual=-0.0, key1=0.0, key2=-0.0, v=10.0)
@example(residual=-0.0, key1=-0.0, key2=2.0, v=0.0)
@example(residual=0, key1=-3.0, key2=-3.5, v=12.7)  # demand int 0 with no renewable
def test_idle_value_is_energy_objective_of_the_idle_action(residual, key1, key2, v):
    # energy_control prices idle as residual * key1; the terms it drops add only signed zeros
    assert residual * key1 == energy_objective(residual, 0.0, 0.0, 0.0, key1, key2, v, BatteryParams())


FLOWS = st.floats(0.0, 1.0)


@given(h_u=FINITE, gamma_u=FINITE, q=FLOWS, s_r=FLOWS, d_rate=FLOWS)
@example(h_u=-0.0, gamma_u=0.0, q=0.0, s_r=0.0, d_rate=0.0)
@example(h_u=0.0, gamma_u=-0.0, q=-0.0, s_r=0.0, d_rate=-0.0)
@example(h_u=0.5, gamma_u=0.0, q=0.1, s_r=0.065, d_rate=0.165)  # a net flow of (nearly) zero
@example(h_u=-0.2, gamma_u=0.04, q=0.0, s_r=0.0, d_rate=0.165)
def test_usage_queue_update_is_usage_amount_bit_for_bit(h_u, gamma_u, q, s_r, d_rate):
    state = init_state(BatteryParams(), a_o=2.67, v=10.0)._replace(h_u=h_u)
    record = SlotRecord(0, 0.0, 0.0, 0.0, 0.0, q, d_rate, 0.0, s_r, 0,
                        0.0, 0.0, 0.0, h_u, 0.0, "idle", gamma_u, 0.0)
    nxt = update_queues(state, record, d_avg_max=0, shift=0.0)
    assert _bits(nxt.h_u) == _bits(h_u + gamma_u - usage_amount(q, s_r, d_rate))


def test_every_day_run_decision_is_the_one_pricing_idle_by_energy_objective(day_runs, monkeypatch):
    # Replays each slot of the day ensemble: energy_control returns the record's
    # flows, and it leaves idle exactly when it priced a moving candidate below
    # energy_objective of the idle action, as the rule read before idle became
    # residual * key1.
    bundle = day_bundle()
    battery, grid = bundle.battery, bundle.grid
    priced = []

    def recording(*args):
        priced.append(energy_objective(*args))
        return priced[-1]

    monkeypatch.setattr(controller, "energy_objective", recording)
    slots = moved = 0
    for _, run in day_runs:
        a_o, v = run.initial_state.a_o, run.initial_state.v
        for r in run.records:
            priced.clear()
            state = ControllerState(r.z, r.x, r.h_u, r.h_d, r.b, a_o, v, r.slot)
            action = energy_control(state, r.demand, r.s_w, r.renewable, r.price, battery, grid)
            assert action == (r.e, r.q, r.d_rate, r.s_r, r.regime)
            key2 = r.z - r.h_u
            key1 = key2 + v * r.price
            idle = energy_objective(r.demand - r.s_w, 0.0, 0.0, 0.0, key1, key2, v, battery)
            assert (r.regime != "idle") == (len(priced) == 1 and priced[0] < idle), (r.slot, r.regime)
            slots, moved = slots + 1, moved + (r.regime != "idle")
    assert 0 < moved < slots


class TestDriftBound:
    def test_default_constant(self):
        g = drift_bound_G(ModelBundle(BatteryParams(), weights=Weights(), horizon=288), per_load_d_max=18)
        assert g == pytest.approx(324.027225, abs=1e-9)

    def test_degenerate_inputs_vanish(self):
        battery = BatteryParams(r_max=1e-12, d_max_rate=1e-12)
        g = drift_bound_G(ModelBundle(battery, weights=Weights(d_avg_max=0), horizon=288), per_load_d_max=0)
        assert g == pytest.approx(0.0, abs=1e-20)

    def test_positive_shift_selects_discharge_branch(self):
        battery = BatteryParams()
        weights = Weights(delta_u=288 * battery.r_max)
        g = drift_bound_G(ModelBundle(battery, weights=weights, horizon=288), per_load_d_max=18)
        expected = (
            0.5 * (battery.d_max_rate + battery.r_max) ** 2
            + 0.5 * battery.r_max**2
            + 0.5 * 18.0**2
            + 0.5 * 18.0**2
        )
        assert g == pytest.approx(expected)


class TestDriftUpperBound:
    def test_null_slot_bound_is_the_constant(self):
        decision = TestUpdateQueues.decision(z=-2.67)
        bound = drift_upper_bound(decision, g=324.0, bundle=ModelBundle(weights=Weights(), horizon=288))
        assert bound == pytest.approx(324.0)

    def test_one_step_drift_never_exceeds_bound_on_a_random_walk(self):
        # quick standalone spot check; run-level coverage lives in the oracle tests
        state = init_state(BatteryParams(), a_o=2.67, v=10.0)
        weights = Weights()
        bundle = ModelBundle(BatteryParams(), weights=weights, horizon=288)
        g = drift_bound_G(bundle, per_load_d_max=18)
        decision = TestUpdateQueues.decision(q=0.1, gamma_u=0.05, gamma_d=1.0,
                                             delay=2, e=0.1, b=state.b, z=state.z)
        nxt = update_queues(state, decision, weights.d_avg_max, bundle.delta_per_slot)
        drift = lyapunov(nxt, weights.mu) - lyapunov(decision, weights.mu)
        bound = drift_upper_bound(decision, g=g, bundle=bundle)
        assert drift <= bound + 1e-9
