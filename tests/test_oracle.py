"""Grid-search ground truth vs the closed forms, and the bound checkers."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emsched import controller, oracle
from emsched.controller import drift_bound_G
from emsched.model import CostModel, InfeasibleSlot, ModelBundle, QuadraticCost, Weights
from emsched.oracle import (
    CheckReport,
    CheckResult,
    Frame,
    GridSpec,
    SearchSpaceError,
    drift_checks,
    equivalence_battery,
    feasibility_checks,
    frames_from_run,
    jensen_check,
    lookahead_optima,
    lookahead_optimum,
    margin_checks,
    oracle_schedule,
    sample_slot_states,
    slot_mismatches,
    lookahead_bound_check,
)
from emsched.scenario import LoadTask, SlotInput, StageProfile, generate_trace
from emsched.simulator import SlotRecord, run_policy

from conftest import (
    DAY_HORIZON, SMALL_ENERGY_STEP, SMALL_FRAME_LENGTH, SMALL_HORIZON, day_bundle, day_profile, small_bundle, small_profile,
)
from test_controller import make_state, task_with


def two_slot_frame(alpha: float) -> tuple[Frame, ModelBundle]:
    """One deferrable unit load, expensive slot now, cheap slot next."""
    bundle = ModelBundle(
        costs=CostModel.quadratic(0.2, None, d_avg_max=18),
        weights=Weights(alpha=alpha, d_avg_max=18),
        horizon=2,
    )
    task = LoadTask(arrival_slot=0, intensity=0.1, duration=1, max_delay=1)
    slots = (
        SlotInput(slot=0, price=0.118, renewable=0.0, task=task),
        SlotInput(slot=1, price=0.063, renewable=0.0),
    )
    return Frame(start=0, slots=slots, boundary_b=0.0), bundle


def energy_keys(state, price):
    """A state's (key1, key2) at `price`, keyed as `slot_mismatches` keys a record."""
    key2 = state.z - state.h_u
    return key2 + state.v * price, key2


def exact_minimum(residual, surplus, key1, key2, v, bundle):
    """`oracle._energy_minima` of one slot."""
    columns = (np.array([value]) for value in (residual, surplus, key1, key2))
    return float(oracle._energy_minima(*columns, v, bundle.battery, bundle.grid)[0])


def lattice_minimum(residual, surplus, key1, key2, v, bundle, step):
    """The least per-slot bound e*key1 + s_r*key2 + v*entry over one slot's
    `oracle._slot_flows` lattice, inf when no lattice flow is feasible."""
    flows = oracle._slot_flows(residual, surplus, bundle.battery, bundle.grid, step)
    return float(np.where(flows.ok, flows.e * key1 + flows.s_r * key2 + v * flows.entry, np.inf).min())


def idle_record(state, slot, demand):
    """The record of a sampled (state, slot, demand) decided idle, at delay 0 and both stand-ins 0."""
    s_w = controller.renewable_split(demand, slot.renewable)
    return SlotRecord(
        state.slot, slot.price, slot.renewable, demand, demand - s_w, 0.0, 0.0, s_w, 0.0, 0,
        state.b, state.z, state.x, state.h_u, state.h_d, "idle", 0.0, 0.0,
    )


class TestSubproblemOracles:
    def test_schedule_oracle_agrees_on_the_serve_now_example(self):
        state = make_state(z=-2.0, h_u=0.3, x=0.5, h_d=0.2)
        assert oracle_schedule(state, task_with(), mu=1.0) == 0

    def test_aux_oracle_lands_on_the_interior_optimum(self):
        g, _ = oracle._aux_argmins(QuadraticCost(0.2), np.array([0.165]), np.array([-0.4]), np.array([10.0]))
        assert g[0] == pytest.approx(0.1, abs=1e-4)

    def test_energy_oracle_reproduces_the_charge_example_value(self):
        # the surplus 0.05 topped up from the grid to r_max, as the rule charges
        state, bundle = make_state(z=-3.0), day_bundle()
        key1, key2 = energy_keys(state, 0.118)
        exact = exact_minimum(0.1, 0.05, key1, key2, state.v, bundle)
        action = controller.energy_control(state, 0.1, 0.0, 0.05, 0.118, bundle.battery, bundle.grid)
        assert exact == pytest.approx(-0.5313, abs=1e-6)
        assert action[1:4] == pytest.approx((0.115, 0.0, 0.05))
        assert exact == controller.energy_objective(*action[:4], key1, key2, state.v, bundle.battery)
        assert exact == lattice_minimum(0.1, 0.05, key1, key2, state.v, bundle, 1e-3)


def grid_before_surplus(action, residual, grid):
    """The same charge, bought from the grid as far as e_max allows."""
    _, q, d_rate, s_r, regime = action
    charge = q + s_r
    q = min(charge, max(grid.e_max - residual, 0.0))
    return residual + q, q, d_rate, charge - q, regime


def half_discharge(action, residual, grid):
    """Half the discharge the rule chose."""
    e, q, d_rate, s_r, regime = action
    return e + d_rate / 2, q, d_rate / 2, s_r, regime


class TestEquivalenceBattery:
    def test_small_sample_all_checks_pass(self):
        report = equivalence_battery(day_bundle(), n_states=200, seed=2024)
        assert report.passed, [c for c in report if not c.passed]

    def test_corrupted_schedule_rule_is_caught(self, monkeypatch):
        # The closed form fed a state whose immediate-service weight has the
        # wrong sign must disagree with the enumeration somewhere.
        exact = controller.schedule_load

        def negated_omega(state, task, mu, effective_d_max):
            flipped = state._replace(z=-(state.z - abs(state.h_u)), h_u=0.0)
            return exact(flipped, task, mu, effective_d_max)

        monkeypatch.setattr(controller, "schedule_load", negated_omega)
        report = equivalence_battery(day_bundle(), n_states=200, seed=2024)
        bad = report["schedule_equivalence"]
        assert not bad.passed
        assert bad.achieved >= 1.0

    def test_aux_mismatches_are_counted_per_state(self, monkeypatch):
        # A closed form that is wrong on exactly five known comparisons (three
        # usage and two delay backlogs) must be counted exactly five times,
        # however the comparisons are grouped.
        bundle = day_bundle()
        a_o, v_max, _ = controller.design_params(bundle)
        samples = sample_slot_states(bundle, 200, seed=2024, a_o=a_o, v=v_max)
        wrong = {samples[i][0].h_u for i in (0, 3, 7)} | {samples[i][0].h_d for i in (1, 4)}
        assert len(wrong) == 5
        exact = controller.aux_solution

        def sometimes_wrong(h, v, beta, cost, cap):
            return cap + 1.0 if h in wrong else exact(h, v, beta, cost, cap)

        monkeypatch.setattr(controller, "aux_solution", sometimes_wrong)
        report = equivalence_battery(bundle, n_states=200, seed=2024)
        assert report["aux_equivalence"].achieved == 5.0
        assert report["schedule_equivalence"].passed

    @pytest.mark.parametrize("mutate", [grid_before_surplus, half_discharge], ids=lambda f: f.__name__)
    def test_corrupted_energy_rule_is_caught(self, monkeypatch, mutate):
        # A closed form that leaves value on the table must be beaten by a
        # lattice flow, and the energy checks must count it.
        exact = controller.energy_control

        def mutant(state, demand_l, s_w, renewable, price, battery, grid):
            return mutate(exact(state, demand_l, s_w, renewable, price, battery, grid), demand_l - s_w, grid)

        monkeypatch.setattr(controller, "energy_control", mutant)
        report = equivalence_battery(day_bundle(), n_states=200, seed=2024)
        assert report["energy_dominance"].achieved >= 1.0
        assert not report.passed
        assert report["schedule_equivalence"].passed and report["aux_equivalence"].passed

    def test_a_flow_outside_the_feasible_set_is_caught_as_slack(self, monkeypatch):
        # 0.05 kWh more bought and charged in every grid-charging decision takes
        # the charge past r_max or the purchase past e_max: a value no feasible
        # flow reaches.
        exact = controller.energy_control

        def overcharge(state, demand_l, s_w, renewable, price, battery, grid):
            e, q, d_rate, s_r, regime = exact(state, demand_l, s_w, renewable, price, battery, grid)
            return (e + 0.05, q + 0.05, d_rate, s_r, regime) if q > 0.0 else (e, q, d_rate, s_r, regime)

        monkeypatch.setattr(controller, "energy_control", overcharge)
        report = equivalence_battery(day_bundle(), n_states=300, seed=2024)
        assert (report["energy_slack"].achieved, report["energy_dominance"].achieved) == (131.0, 0.0)

    def test_energy_mismatches_are_counted_per_state(self, monkeypatch):
        # A closed form that is wrong on four known states (the first, the last
        # and two between) is counted on exactly those states.
        bundle, n_states, wrong_at = day_bundle(), 69, (0, 5, 40, 68)
        a_o, v_max, _ = controller.design_params(bundle)
        samples = sample_slot_states(bundle, n_states, seed=2024, a_o=a_o, v=v_max)
        wrong = {samples[i][0].z for i in wrong_at}
        assert len(wrong) == len(wrong_at)
        exact = controller.energy_control

        def sometimes_wrong(state, demand_l, s_w, renewable, price, battery, grid):
            action = exact(state, demand_l, s_w, renewable, price, battery, grid)
            if state.z not in wrong:
                return action
            # a purchase 10 kWh off in the direction that raises e*key1
            key1 = state.z - state.h_u + state.v * price
            e, *flows = action
            return e + math.copysign(10.0, key1), *flows

        monkeypatch.setattr(controller, "energy_control", sometimes_wrong)
        report = equivalence_battery(bundle, n_states=n_states, seed=2024)
        assert report["energy_dominance"].achieved == float(len(wrong_at))
        assert report["schedule_equivalence"].passed and report["aux_equivalence"].passed

    def test_an_infeasible_state_raises_for_the_first_such_row(self):
        # States 1 and 3 need more than e_max even after the largest discharge;
        # the comparison names the first, with its residual demand.
        bundle = day_bundle()
        a_o, v_max, _ = controller.design_params(bundle)
        samples = sample_slot_states(bundle, 5, seed=7, a_o=a_o, v=v_max)
        overload = bundle.grid.e_max + bundle.battery.d_max_rate + 0.01
        for i in (1, 3):
            state, slot, demand = samples[i]
            s_w = controller.renewable_split(demand, slot.renewable)
            samples[i] = (state._replace(slot=10 + i), slot._replace(renewable=s_w), s_w + overload)
        rows = [(idle_record(*sample), sample[1].task) for sample in samples]
        with pytest.raises(InfeasibleSlot) as err:
            slot_mismatches(rows, bundle, v_max)
        assert str(err.value) == (
            "slot 11: required grid purchase 0.475000 kWh exceeds E_max=0.300000 (grid oracle found no feasible point)"
        )

    def test_each_sampled_state_is_split_as_a_run_splits_it(self, monkeypatch):
        # s_w is not drawn: the run's renewable split gives it, once per state,
        # from that state's demand and renewable.
        bundle = day_bundle()
        a_o, _, v = controller.design_params(bundle)
        samples = sample_slot_states(bundle, 50, seed=3, a_o=a_o, v=v)
        calls, split = [], controller.renewable_split
        monkeypatch.setattr(controller, "renewable_split", lambda *args: calls.append(args) or split(*args))
        equivalence_battery(bundle, n_states=50, seed=3)
        assert calls == [(demand, slot.renewable) for _, slot, demand in samples]

    @pytest.mark.parametrize("make_bundle", [small_bundle, day_bundle], ids=["desk", "day"])
    def test_sampled_states_admit_feasible_actions(self, make_bundle):
        # Each field is drawn as a column; every state must still be one the
        # closed forms can act on, and all three energy regimes must appear.
        bundle = make_bundle()
        a_o, v_max, _ = controller.design_params(bundle)
        samples = sample_slot_states(bundle, 300, seed=7, a_o=a_o, v=v_max)
        assert len(samples) == 300
        kinds, tasks = set(), 0
        for state, slot, demand in samples:
            s_w = controller.renewable_split(demand, slot.renewable)
            residual = demand - s_w
            surplus = slot.renewable - s_w
            assert not (residual > 0.0 and surplus > 0.0)
            assert 0.0 <= residual <= 0.9 * bundle.grid.e_max + 1e-12  # demand - s_w rounds
            assert surplus >= 0.0
            kinds.add((residual > 0.0, surplus > 0.0))
            assert state.b == bundle.battery.b_init
            assert (state.a_o, state.v) == (a_o, v_max)
            assert bundle.grid.p_min <= slot.price <= bundle.grid.p_max
            if slot.task is not None:
                tasks += 1
                assert type(slot.task.duration) is int and 1 <= slot.task.duration <= 12
                assert 0 <= slot.task.max_delay <= 2 * max(bundle.weights.d_avg_max, 1)
        assert kinds == {(False, False), (True, False), (False, True)}
        assert 0 < tasks < 300


def run_rows(trace, run):
    """A run's records as `slot_mismatches` rows: each with the task that
    arrived in its slot (None in the drain), at the delay cap the run's
    scheduling rule was given, which is 0 for a baseline."""
    joint = run.policy == "joint"
    tasks = [s.task if joint or s.task is None else s.task._replace(max_delay=0) for s in trace.slots]
    return [(r, tasks[r.slot] if r.slot < trace.horizon else None) for r in run.records]


def next_slot_price(trace):
    """An `energy_control` that prices each slot at the next trace slot's price."""
    exact = controller.energy_control

    def mutant(state, demand_l, s_w, renewable, price, battery, grid):
        price = trace.slots[(state.slot + 1) % trace.horizon].price
        return exact(state, demand_l, s_w, renewable, price, battery, grid)

    return mutant


def stale_state(trace):
    """An `energy_control` that decides each slot on the previous slot's state (slot 0 on its own)."""
    exact = controller.energy_control
    seen = []

    def mutant(state, *args):
        stale = seen[-1] if seen else state
        seen.append(state)
        return exact(stale, *args)

    return mutant


class TestRunAudit:
    """`slot_mismatches` on a run's own records: every slot a run decides must
    be the brute-force minimiser the battery's sampled states are."""

    def test_every_slot_of_the_day_runs_is_a_minimiser(self, day_runs):
        bundle, profile = day_bundle(), day_profile()
        flagged = {}
        for seed, run in day_runs:
            trace = generate_trace(profile, DAY_HORIZON, seed)
            counts = slot_mismatches(run_rows(trace, run), bundle, run.initial_state.v)
            if counts != (0, 0, 0, 0):
                flagged[seed] = counts
        assert flagged == {}

    @pytest.mark.parametrize("policy", ["joint", "storage_only"])
    def test_every_slot_of_the_small_runs_is_a_minimiser(self, small_instances, policy):
        bundle = small_bundle()
        for seed, trace, _ in small_instances:
            run = run_policy(trace, bundle, policy)
            assert slot_mismatches(run_rows(trace, run), bundle, run.initial_state.v) == (0, 0, 0, 0), seed

    @pytest.mark.parametrize("mutant, n_slots, n_flagged", [
        (next_slot_price, 518, 41),
        (stale_state, 517, 82),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_slot_loop_mutants_are_flagged_in_every_completing_run(self, monkeypatch, mutant, n_slots, n_flagged):
        # Each mutant feeds the rule a wrong input inside `run_policy` only; the
        # rules themselves are exact, so the battery's sampled states miss it,
        # and a run's records are where it shows.
        bundle = small_bundle()
        runs = flagged_runs = slots = flagged_slots = 0
        for seed in range(20):
            trace = generate_trace(small_profile(), SMALL_HORIZON, seed)
            with monkeypatch.context() as patch:
                patch.setattr(controller, "energy_control", mutant(trace))
                try:
                    run = run_policy(trace, bundle, "joint")
                except InfeasibleSlot:
                    continue
            schedule, aux, dominance, slack = slot_mismatches(run_rows(trace, run), bundle, run.initial_state.v)
            assert (schedule, aux, slack) == (0, 0, 0)
            runs, flagged_runs = runs + 1, flagged_runs + (dominance > 0)
            slots, flagged_slots = slots + len(run.records), flagged_slots + dominance
        assert (flagged_runs, runs) == (17, 17)
        assert (flagged_slots, slots) == (n_flagged, n_slots)


@st.composite
def backlogs(draw):
    return (
        draw(st.floats(-2.0, 2.0)),
        draw(st.floats(0.0, 13.0)),
        draw(st.floats(0.05, 2.0)),
        draw(st.floats(0.01, 1.0)),
    )


@given(backlogs())
@example((-5e-324, 0.0, 0.05, 0.01))  # h*g underflowed to 0 on every lattice point
@example((-0.4, 10.0, 1.0, 0.0))  # a flat cost: a negative backlog takes the cap, a positive one 0
@example((0.4, 10.0, 1.0, 0.0))
@settings(max_examples=100, deadline=None)
def test_aux_closed_form_tracks_grid_search(params):
    h, v, beta, k = params
    cost = QuadraticCost(k)
    closed = controller.aux_solution(h, v, beta, cost, 0.165)
    grid, _ = oracle._aux_argmins(cost, np.array([0.165]), np.array([h]), np.array([v * beta]))
    assert abs(closed - grid[0]) <= 1e-4 + 1e-9


def full_lattice_argmin(h: float, vb: float, cost: QuadraticCost, cap: float) -> tuple[float, float]:
    """The exhaustive reference for `oracle._aux_argmins`: h*g + vb*C(g) on
    every point of the gamma lattice 0, step, 2*step, ..., cap, scaled by the
    same power of two, with the first minimum winning."""
    grid = np.append(np.arange(0.0, cap, oracle._GAMMA_STEP), cap)
    values = cost.value(grid)
    _, exponent = math.frexp(max(abs(h), abs(vb)))
    shift = max(-exponent, 0)
    i = int(np.argmin(grid * math.ldexp(h, shift) + values * math.ldexp(vb, shift)))
    return float(grid[i]), float(h * grid[i] + vb * values[i])


def full_lattice_argmins(cost, cap, h, vb):
    """`oracle._aux_argmins` by the exhaustive reference, one row (and its own cap) at a time."""
    rows = zip(h.tolist(), vb.tolist(), cap.tolist())
    g, value = zip(*(full_lattice_argmin(h_i, vb_i, cost, cap_i) for h_i, vb_i, cap_i in rows))
    return np.array(g), np.array(value)


GAMMA_CAPS = (0.0, 1e-4, 0.165, 6.0, 0.12345)  # the last is not a multiple of the gamma step
TINY_BACKLOGS = (-5e-324, 5e-324, -1e-310, 0.0)  # h*g underflows on (nearly) every lattice point
TINY_WEIGHTS = (5e-324, 1e-310, 0.0)


@given(
    rows=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6) | st.sampled_from(TINY_BACKLOGS),
            st.floats(0.0, 1e6) | st.sampled_from(TINY_WEIGHTS),
            st.sampled_from(GAMMA_CAPS) | st.floats(1e-6, 6.0),
        ),
        min_size=1, max_size=6,
    ),
    k=st.floats(0.0, 1e3),
)
@example(rows=[(-5e-324, 0.0, 0.165)], k=0.01)  # h*g underflows to 0 on every lattice point
@example(rows=[(-5e-324, 0.0, 0.165), (-0.4, 10.0, 0.165)], k=0.2)  # rows scaled apart
@example(rows=[(-0.4, 1.0, 6.0), (0.4, 1.0, 6.0)], k=0.0)  # flat: a negative backlog takes the cap, a positive one 0
@example(rows=[(0.0, 1.0, 0.12345), (0.0, 0.0, 0.12345)], k=0.2)
@example(rows=[(-0.4, 1.0, 1e-4), (-1e-3, 0.5, 1e-4)], k=0.2)
@example(rows=[(-2.0, 1.0, 0.165), (-0.0661, 1.0, 0.165)], k=0.2)  # interior and at the cap
@example(rows=[(-3.0, 1.0 / 36.0, 6.0), (-1e-3, 1.0, 6.0)], k=1.0)
# one table, caps from 0 to 6: small caps repeat past their end through every level of the large one
@example(rows=[(-3.0, 1.0 / 36.0, 6.0), (-0.4, 1.0, 0.0), (-2.0, 1.0, 0.12345), (-1e-3, 1.0, 1e-4)], k=1.0)
@example(rows=[(-5e-324, 0.0, 6.0), (-5e-324, 0.0, 0.12345), (0.4, 1.0, 5.99995)], k=0.0)
@settings(max_examples=200, deadline=None)
def test_gamma_ladder_equals_the_full_lattice(rows, k):
    h, vb, cap = (np.array(column) for column in zip(*rows))
    cost = QuadraticCost(k)
    g, value = oracle._aux_argmins(cost, cap, h, vb)
    assert list(zip(g.tolist(), value.tolist())) == [full_lattice_argmin(*row[:2], cost, row[2]) for row in rows]


@pytest.mark.parametrize("steps", [1, 2])
def test_aux_answers_over_one_gamma_step_off_are_caught(monkeypatch, steps):
    # A closed form that answers `steps` lattice steps away from the lattice
    # argmin wherever that argmin is interior (moving inward at the cap) is
    # within the battery's one-step tolerance at one step and counted at
    # two, by the gamma ladder and by the full-lattice reference alike.
    bundle, shift = small_bundle(), steps * oracle._GAMMA_STEP
    moved = []

    def off(h, v, beta, cost, cap):
        g = full_lattice_argmin(h, v * beta, cost, cap)[0] if cap > 0.0 else 0.0
        if not 0.0 < g < cap:
            return g
        moved.append(h)
        return g + shift if g + shift <= cap else g - shift

    monkeypatch.setattr(controller, "aux_solution", off)
    pruned = equivalence_battery(bundle, 120, 2024)["aux_equivalence"].achieved
    n_moved, moved[:] = len(moved), []
    monkeypatch.setattr(oracle, "_aux_argmins", full_lattice_argmins)
    reference = equivalence_battery(bundle, 120, 2024)["aux_equivalence"].achieved
    assert len(moved) == n_moved > 0
    assert pruned == reference == (0.0 if steps == 1 else float(n_moved))


@pytest.mark.parametrize("alpha, counts", [(1.0, (0, 0)), (0.5, (11, 48)), (4.0, (29, 112))])
def test_an_aux_rule_that_ignores_beta_is_caught_where_alpha_is_not_mu(monkeypatch, alpha, counts):
    # gamma_d's weight is v*alpha/mu; a rule that weighs it by v alone is the
    # exact rule at alpha = mu, and off elsewhere (day, then small bundle).
    exact = controller.aux_solution
    monkeypatch.setattr(controller, "aux_solution", lambda h, v, beta, cost, cap: exact(h, v, 1.0, cost, cap))
    for make_bundle, count in zip((day_bundle, small_bundle), counts):
        assert equivalence_battery(make_bundle(alpha=alpha), 300, 2024)["aux_equivalence"].achieved == count


def explicit_energy_grid_min(residual, surplus, key1, key2, v, battery, grid, step):
    """The per-slot energy bound minimised over idle, every (s_r, q) charge and
    every discharge whose amounts are multiples of `step`."""
    tol = oracle._FEAS_TOL
    n_charge = math.floor(battery.r_max / step + tol)
    best = residual * key1 if residual <= grid.e_max + tol else math.inf
    for i in range(n_charge + 1):
        s_r = i * step
        if s_r > surplus:
            break
        for j in range(n_charge + 1 - i):
            e = residual + j * step
            if i + j > 0 and e <= grid.e_max + tol:
                best = min(best, e * key1 + s_r * key2 + v * battery.c_rc)
    for m in range(1, math.floor(battery.d_max_rate / step + tol) + 1):
        e = residual - m * step
        if m * step <= min(battery.d_max_rate, residual) + tol and e <= grid.e_max + tol:
            best = min(best, e * key1 + v * battery.c_dc)
    return best


@st.composite
def energy_slots(draw):
    grid = day_bundle().grid
    return (
        draw(st.floats(-5.0, 5.0)),  # z
        draw(st.floats(-2.0, 2.0)),  # h_u
        draw(st.floats(0.0, 50.0)),  # v
        draw(st.floats(0.0, grid.e_max + 0.2)),  # residual demand
        draw(st.floats(0.0, 0.4)),  # renewable surplus
        draw(st.floats(grid.p_min, grid.p_max)),  # price
        draw(st.sampled_from([0.005, 0.015, 0.04])),  # lattice step
    )


@given(energy_slots())
@example((-2.0, 0.0, 10.0, 0.0, 0.1, 0.1, 0.015))  # charging from the surplus pays
@settings(max_examples=150, deadline=None)
def test_surplus_first_flows_lose_nothing_to_the_full_charge_grid(params):
    """One surplus-first flow per charge amount is as good as the whole
    (s_r, q) plane: the shared flow table's minimum is never above it."""
    z, h_u, v, residual, surplus, price, step = params
    bundle = day_bundle()
    key1, key2 = energy_keys(make_state(z=z, h_u=h_u, v=v), price)
    table_min = lattice_minimum(residual, surplus, key1, key2, v, bundle, step)
    grid_min = explicit_energy_grid_min(residual, surplus, key1, key2, v, bundle.battery, bundle.grid, step)
    if math.isinf(grid_min):
        assert math.isinf(table_min)
    else:
        assert table_min <= grid_min + 1e-12 * max(1.0, abs(grid_min))


def test_a_grid_first_flow_table_fails_the_surplus_first_property(monkeypatch):
    exact = oracle._slot_flows

    def grid_first(residual, surplus, battery, grid, step):
        flows = exact(residual, surplus, battery, grid, step)
        charge = flows.q + flows.s_r
        q = np.minimum(charge, max(grid.e_max - residual, 0.0))
        return flows._replace(q=q, s_r=charge - q, e=residual + q - flows.d_rate)

    monkeypatch.setattr(oracle, "_slot_flows", grid_first)
    with pytest.raises(AssertionError):
        test_surplus_first_flows_lose_nothing_to_the_full_charge_grid()


@given(energy_slots())
@example((-2.0, 0.0, 10.0, 0.0, 0.1, 0.1, 0.015))  # charging from the surplus pays
@example((-2.0, 0.0, 10.0, 0.4, 0.0, 0.1, 0.015))  # forced: the least discharge that meets e_max
@example((2.0, 0.0, 10.0, 0.5, 0.0, 0.1, 0.015))  # no discharge meets e_max
@settings(max_examples=150, deadline=None)
def test_the_exact_minimum_is_within_one_lattice_step_of_the_lattice(params):
    """A brute force that owes nothing to the five points: every lattice flow
    is feasible, so none beats the exact minimum, and one lies within a step
    of each of its points; no lattice flow is feasible where no point is."""
    z, h_u, v, residual, surplus, price, step = params
    bundle = day_bundle()
    key1, key2 = energy_keys(make_state(z=z, h_u=h_u, v=v), price)
    exact = exact_minimum(residual, surplus, key1, key2, v, bundle)
    lattice = lattice_minimum(residual, surplus, key1, key2, v, bundle, step)
    if math.isinf(exact):
        assert math.isinf(lattice)
    elif math.isfinite(lattice):
        # the lattice admits a flow up to its feasibility tolerances past r_max
        # and e_max, where the exact points stop; 1e-9 covers either edge
        assert exact <= lattice + 1e-9 * max(1.0, abs(key1) + abs(key2))
        assert lattice <= exact + step * (abs(key1) + abs(key2)) + 1e-9


def test_no_feasible_flow_buys_a_negative_amount():
    # Desk seed 200500003, sampled state 168: a residual 3.6e-10 kWh below the
    # lattice discharge 0.128 once admitted that discharge, buying -3.6e-10.
    battery, grid, step = ModelBundle().battery, ModelBundle().grid, 0.001
    flows = oracle._slot_flows(0.12799999964, 0.0, battery, grid, step)
    assert flows.e[flows.ok].min() >= 0.0
    assert not flows.ok[flows.k == -128].any()
    assert flows.ok[flows.k == -127].all()


@given(
    st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.4)), min_size=1, max_size=40),
    st.sampled_from([0.001, 0.005, 0.015, 0.04]),
)
@example([(0.12799999964, 0.0), (0.35, 0.0), (0.0, 0.3), (0.0, 0.0)], 0.001)  # desk edge; residual > e_max
@settings(max_examples=100, deadline=None)
def test_a_table_row_is_the_single_slot_table(slots, step):
    battery, grid = ModelBundle().battery, ModelBundle().grid
    residual, surplus = (np.array(column) for column in zip(*slots))
    table = oracle._slot_flows(residual, surplus, battery, grid, step)
    assert table.e.shape == (len(slots), sum(oracle._flow_counts(battery, step)) + 1)
    for r, (res, sur) in enumerate(slots):
        single = oracle._slot_flows(res, sur, battery, grid, step)
        for name, column, expected in zip(single._fields, table, single):
            row = np.broadcast_to(column, table.e.shape)[r]
            assert row.dtype == expected.dtype and row.tobytes() == expected.tobytes(), name


class TestFrameOracle:
    def test_empty_slot_idles_for_free(self):
        bundle = replace(day_bundle(), horizon=1)
        frame = Frame(start=0,
                      slots=(SlotInput(slot=0, price=0.118, renewable=0.0),),
                      boundary_b=0.0)
        sol = lookahead_optimum(frame, bundle, GridSpec(energy_step=0.005))
        assert sol.u_opt == 0.0
        assert sol.decisions[0].e == 0.0

    def test_two_slot_deferral_tradeoff(self):
        # cheap second slot: wait iff the price saving beats the delay cost
        frame, bundle = two_slot_frame(alpha=0.001)
        sol = lookahead_optimum(frame, bundle, GridSpec(energy_step=0.005))
        assert sol.delays == ((0, 1),)
        assert sol.u_opt == pytest.approx(0.1 * 0.063 / 2 + 0.001 * (1 / 324) * 0.25, abs=1e-12)

        frame, bundle = two_slot_frame(alpha=20.0)
        sol = lookahead_optimum(frame, bundle, GridSpec(energy_step=0.005))
        assert sol.delays == ((0, 0),)
        assert sol.u_opt == pytest.approx(0.1 * 0.118 / 2, abs=1e-12)

    def test_halving_the_lattice_never_hurts(self):
        frame, bundle = two_slot_frame(alpha=0.001)
        coarse = lookahead_optimum(frame, bundle, GridSpec(energy_step=0.01))
        fine = lookahead_optimum(frame, bundle, GridSpec(energy_step=0.005))
        assert fine.u_opt <= coarse.u_opt + 1e-12

    def test_default_lattice_is_too_fine_for_day_scale_frames(self):
        frame, bundle = two_slot_frame(alpha=1.0)
        with pytest.raises(SearchSpaceError) as err:
            lookahead_optimum(frame, bundle, GridSpec())
        assert err.value.suggested_step > GridSpec().energy_step
        assert "energy_step" in str(err.value)

    def test_delay_combinations_are_counted_before_any_is_built(self, small_instances, monkeypatch):
        # A 12-slot desk frame has 592,950,960 delay combinations: past the node
        # limit at one node per slot, so no energy step fits and none is built.
        _, trace, summary = small_instances[0]
        frame = frames_from_run(trace, summary, 12)[0]
        monkeypatch.setattr(oracle.itertools, "product", lambda *a: pytest.fail("combinations were built"))
        with pytest.raises(SearchSpaceError, match="shorten experiment.frame_length") as err:
            lookahead_optimum(frame, small_bundle(), GridSpec(energy_step=SMALL_ENERGY_STEP))
        assert err.value.suggested_step is None and err.value.nodes > 592_950_960 * 12

    def test_solutions_respect_slot_feasibility(self, small_instances):
        seed, trace, summary = small_instances[0]
        bundle = small_bundle()
        frames = frames_from_run(trace, summary, SMALL_FRAME_LENGTH)
        sol = lookahead_optimum(frames[0], bundle, GridSpec(energy_step=SMALL_ENERGY_STEP))
        b = frames[0].boundary_b
        for d in sol.decisions:
            assert d.e - d.q + d.s_w + d.d_rate == pytest.approx(d.demand, abs=1e-9)
            assert -1e-9 <= d.e <= bundle.grid.e_max + 1e-9
            assert (d.q + d.s_r) * d.d_rate == 0.0
            b += d.q + d.s_r - d.d_rate
            assert bundle.battery.b_min - 1e-9 <= b <= bundle.battery.b_max + 1e-9

    def test_plan_is_one_slot_record_per_slot(self, small_instances):
        # a frame that defers its load, then every frame of a desk seed
        frame, bundle = two_slot_frame(alpha=0.001)
        cases = [(frame, bundle, GridSpec(energy_step=0.005))]
        _, trace, summary = small_instances[0]
        grid = GridSpec(energy_step=SMALL_ENERGY_STEP)
        cases += [(f, small_bundle(), grid) for f in frames_from_run(trace, summary, SMALL_FRAME_LENGTH)]
        delay_sums = []
        for frame, bundle, grid in cases:
            sol = lookahead_optimum(frame, bundle, grid)
            delay_sums.append(sol.delay_sum)
            assert len(sol.decisions) == frame.length
            b = frame.boundary_b
            for slot, r in zip(frame.slots, sol.decisions):
                assert type(r) is SlotRecord
                assert (r.slot, r.price, r.renewable) == (slot.slot, slot.price, slot.renewable)
                assert r.b == b
                b += r.q + r.s_r - r.d_rate
                assert r.regime == ("charge" if r.q + r.s_r > 0.0 else "discharge" if r.d_rate > 0.0 else "idle")
                assert (r.z, r.x, r.h_u, r.h_d, r.gamma_u, r.gamma_d) == (0.0,) * 6
            assert sum(r.delay for r in sol.decisions) == sol.delay_sum
            assert [(r.slot, r.delay) for r, s in zip(sol.decisions, frame.slots) if s.task] == list(sol.delays)
        assert delay_sums[0] == 1  # the deferred load's delay sits in its arrival slot's record

    def test_frame_partition_requires_divisible_horizon(self, small_instances):
        seed, trace, summary = small_instances[0]
        with pytest.raises(ValueError, match="divide"):
            frames_from_run(trace, summary, 7)


def full_dp_forward(actions, n_off: int, n_use: int, o_lo: int) -> list[np.ndarray]:
    """`oracle._dp_forward` without its window: every (offset, usage) state of
    every layer, for flows with |k| < n_off and |k| < n_use as the oracle's are."""
    cost = np.full((n_off, n_use), np.inf)
    cost[-o_lo, 0] = 0.0
    layers = [cost]
    for feasible in actions:
        new = np.full_like(cost, np.inf)
        for k, c in feasible:
            a = abs(k)
            src = cost[max(0, -k) : n_off - max(0, k), : n_use - a]
            dst = new[max(0, k) : n_off - max(0, -k), a:]
            np.minimum(dst, src + c, out=dst)
        cost = new
        layers.append(cost)
    return layers


def unpruned_lookahead(frame: Frame, bundle: ModelBundle, grid: GridSpec) -> oracle.OracleSolution:
    """The frame search with a full-table DP (`full_dp_forward`) on every
    budget-feasible delay combination, in product order: the reference the
    cost-floor skip and the DP window must match. The delay choices and each
    combo's demand profile are built here, one combo at a time and priced in
    its own table, with rows range(T), and each row's feasible (k, cost) list
    is built here from that table; the slot flows, walk back and plan come
    from the oracle's own helpers."""
    T, h = frame.length, grid.energy_step
    battery, grid_params, weights = bundle.battery, bundle.grid, bundle.weights
    tol = oracle._FEAS_TOL
    k_charge, k_discharge = oracle._flow_counts(battery, h)
    # Delays pushing service entirely past the frame all leave the same (empty)
    # in-frame demand, so each range stops at the first such delay.
    arrivals = [(p, s.task) for p, s in enumerate(frame.slots) if s.task is not None]
    choices = [range(0, min(task.max_delay, T - p) + 1) for p, task in arrivals]
    o_lo = max(-T * k_discharge, int(math.ceil((battery.b_min - frame.boundary_b) / h - tol)))
    o_hi = min(T * k_charge, int(math.floor((battery.b_max - frame.boundary_b) / h + tol)))
    n_off, n_use = o_hi - o_lo + 1, T * max(k_charge, k_discharge) + 1
    o_target = int(round(T * weights.delta_u / bundle.horizon / h))
    usage_penalty = np.array([bundle.costs.usage.value(j * h / T) for j in range(n_use)])

    best, best_value = None, math.inf
    renewable = np.array([slot.renewable for slot in frame.slots])
    price = np.array([[slot.price] for slot in frame.slots])
    for combo in itertools.product(*choices):
        delay_sum = sum(combo)
        if delay_sum > T * weights.d_avg_max:
            continue
        demand = np.zeros(T)
        for (p, task), d in zip(arrivals, combo):
            demand[p + d : p + d + task.duration] += task.intensity
        s_w = [controller.renewable_split(d, slot.renewable) for d, slot in zip(demand.tolist(), frame.slots)]
        table = oracle._slot_flows(demand - s_w, renewable - s_w, battery, grid_params, h)
        cost = table.e * price + table.entry
        actions = [list(zip(table.k[ok].tolist(), row[ok].tolist())) for ok, row in zip(table.ok, cost)]
        if not all(actions):
            continue
        layers = full_dp_forward(actions, n_off, n_use, o_lo)
        delay_term = weights.alpha * bundle.costs.delay.value(delay_sum / T)
        totals = layers[-1][o_target - o_lo] / T + usage_penalty + delay_term
        idx = int(np.argmin(totals))
        if totals[idx] < best_value:
            demand_sw = list(zip(demand.tolist(), s_w))
            best, best_value = (combo, demand_sw, table, actions, layers, idx), float(totals[idx])
    if best is None:
        raise InfeasibleSlot(frame.start, 0.0, grid_params.e_max, "no feasible frame plan")

    combo, demand_sw, table, actions, layers, idx = best
    steps = oracle._walk_back(layers, actions, o_lo, o_target, idx)
    return oracle._frame_solution(frame, bundle, h, best_value, arrivals, combo, demand_sw, table, range(T), steps)


def overloaded_first_slot_frame(intensity: float) -> tuple[Frame, ModelBundle]:
    """A load that cannot be served on arrival from an empty battery; one slot
    later the renewable covers most of it."""
    bundle = ModelBundle(
        costs=CostModel.quadratic(0.2, None, d_avg_max=1),
        weights=Weights(alpha=1.0, d_avg_max=1),
        horizon=2,
    )
    task = LoadTask(arrival_slot=0, intensity=intensity, duration=1, max_delay=1)
    slots = (
        SlotInput(slot=0, price=0.063, renewable=0.0, task=task),
        SlotInput(slot=1, price=0.118, renewable=0.3),
    )
    return Frame(start=0, slots=slots, boundary_b=0.0), bundle


class TestCostFloorSkip:
    """The cost-floor skip must return exactly what the unpruned search does."""

    def test_every_frame_of_several_desk_seeds(self, small_instances, monkeypatch):
        bundle = small_bundle()
        grid = GridSpec(energy_step=SMALL_ENERGY_STEP)
        dp_calls = []
        dp_forward, full_forward = oracle._dp_forward, full_dp_forward
        monkeypatch.setattr(oracle, "_dp_forward", lambda *a: dp_calls.append(1) or dp_forward(*a))
        monkeypatch.setitem(globals(), "full_dp_forward", lambda *a: dp_calls.append(1) or full_forward(*a))
        pruned_calls = full_calls = floor_only_calls = 0
        # Seeds 6 and 11 have frames whose optimum discharges the battery, where a
        # floor above the cheapest slot flow would skip the winning profile.
        for _, trace, summary in (inst for inst in small_instances if inst[0] in (0, 6, 11)):
            frames, unpruned = frames_from_run(trace, summary, SMALL_FRAME_LENGTH), []
            for frame in frames:
                dp_calls.clear()
                fast = lookahead_optimum(frame, bundle, grid)
                pruned_calls += len(dp_calls)
                dp_calls.clear()
                unpruned.append(unpruned_lookahead(frame, bundle, grid))
                assert fast == unpruned[-1]
                full_calls += len(dp_calls)
                with monkeypatch.context() as m:  # an offset-only bound that never skips: the floor alone
                    m.setattr(oracle, "_offset_floor", lambda *a: -math.inf)
                    dp_calls.clear()
                    assert lookahead_optimum(frame, bundle, grid) == fast
                    floor_only_calls += len(dp_calls)
            assert lookahead_optima(frames, bundle, grid) == unpruned  # the whole run in one call
        assert pruned_calls < full_calls  # the skip was exercised
        assert pruned_calls < floor_only_calls  # and so was the offset-only bound

    def test_every_frame_of_desk_seeds_0_to_2_at_cheap_deferral(self):
        # At alpha 0.001 deferring is cheap, so many profiles stay near the optimum.
        bundle = small_bundle(alpha=0.001)
        grid = GridSpec(energy_step=SMALL_ENERGY_STEP)
        for seed in range(3):
            trace = generate_trace(small_profile(), SMALL_HORIZON, seed)
            summary = run_policy(trace, bundle, policy="joint")
            for frame in frames_from_run(trace, summary, SMALL_FRAME_LENGTH):
                assert lookahead_optimum(frame, bundle, grid) == unpruned_lookahead(frame, bundle, grid)

    def test_equal_delay_sums_keep_the_first_combo(self):
        # Delays (1, 1) and (2, 0) both leave demand only in slot 1, at the same
        # delay sum, so their totals tie; that demand wins, and of tied
        # combinations the search keeps the first in product order, (1, 1).
        bundle = ModelBundle(
            costs=CostModel.quadratic(0.2, None, d_avg_max=2), weights=Weights(alpha=0.012, d_avg_max=2), horizon=2
        )
        slots = (
            SlotInput(slot=0, price=0.118, renewable=0.0, task=LoadTask(0, 0.1, duration=1, max_delay=2)),
            SlotInput(slot=1, price=0.063, renewable=0.0, task=LoadTask(1, 0.1, duration=1, max_delay=1)),
        )
        frame, grid = Frame(start=0, slots=slots, boundary_b=0.0), GridSpec(energy_step=0.005)
        sol = lookahead_optimum(frame, bundle, grid)
        assert [r.demand for r in sol.decisions] == [0.0, 0.1]
        assert sol.delays == ((0, 1), (1, 1))
        assert sol == unpruned_lookahead(frame, bundle, grid)

    def test_equal_profiles_keep_the_least_total_delay(self):
        # The first load has zero intensity, so it leaves the same demand at
        # every delay: delays (0, d) and (1, d) leave one profile, and (1, d)
        # costs more delay. Product order searches (0, d) first, and the strict
        # < keeps it, the least total delay of its profile.
        bundle = ModelBundle(
            costs=CostModel.quadratic(0.2, None, d_avg_max=2), weights=Weights(alpha=1.0, d_avg_max=2), horizon=2
        )
        slots = (
            SlotInput(slot=0, price=0.118, renewable=0.0, task=LoadTask(0, 0.0, duration=1, max_delay=1)),
            SlotInput(slot=1, price=0.063, renewable=0.0, task=LoadTask(1, 0.1, duration=2, max_delay=1)),
        )
        frame, grid = Frame(start=0, slots=slots, boundary_b=0.0), GridSpec(energy_step=0.005)
        sol = lookahead_optimum(frame, bundle, grid)
        assert sol.delays == ((0, 0), (1, 0)) and sol.delay_sum == 0
        assert sol == unpruned_lookahead(frame, bundle, grid)

    @pytest.mark.parametrize("alpha", [0.001, 20.0])
    def test_two_slot_frame(self, alpha):
        frame, bundle = two_slot_frame(alpha)
        grid = GridSpec(energy_step=0.005)
        assert lookahead_optimum(frame, bundle, grid) == unpruned_lookahead(frame, bundle, grid)

    @pytest.mark.parametrize("intensity", [0.5, 0.4])
    def test_infeasible_zero_delay_profile(self, intensity):
        # 0.5 kWh: no flow of the arrival slot stays under e_max. 0.4 kWh: a
        # discharge would, but the battery starts empty, so the DP finds no plan.
        frame, bundle = overloaded_first_slot_frame(intensity)
        grid = GridSpec(energy_step=0.015)
        sol = lookahead_optimum(frame, bundle, grid)
        assert sol.delays == ((0, 1),)
        assert sol == unpruned_lookahead(frame, bundle, grid)


class TestWalkBack:
    """The plan read back from the forward DP's layers, ties included."""

    # Every slot offers idle at 1.0 or one step either way at 0.5, so states
    # reachable both ways (net offset 0 at usage 2, say) tie exactly.
    TWO_SLOTS = [[(0, 1.0), (1, 0.5), (-1, 0.5)]] * 2
    # The flows an argmin table kept while the DP ran (strict <, so the first
    # flow in each slot's order to reach the minimum) on every reachable
    # (offset, usage) end state.
    TWO_SLOT_PLANS = {
        (-2, 2): [-1, -1], (-1, 1): [-1, 0], (0, 0): [0, 0],
        (0, 2): [-1, 1], (1, 1): [1, 0], (2, 2): [1, 1],
    }
    THREE_SLOTS = [[(0, 1.0), (1, 0.5), (-1, 0.5), (2, 1.0), (-2, 0.0)]] * 3
    THREE_SLOT_PLANS = {
        (-4, 4): [-2, -2, 0], (-3, 3): [-2, -1, 0], (-3, 5): [-2, -2, 1], (-2, 2): [-2, 0, 0],
        (-2, 4): [-2, -1, 1], (-2, 6): [-2, -2, 2], (-1, 1): [-1, 0, 0], (-1, 3): [-2, 1, 0],
        (-1, 5): [-2, 2, -1], (0, 0): [0, 0, 0], (0, 2): [-1, 1, 0], (0, 4): [-2, 1, 1],
        (1, 1): [1, 0, 0], (1, 3): [-1, 1, 1], (1, 5): [-2, 2, 1], (2, 2): [1, 1, 0],
        (2, 4): [2, -1, 1], (2, 6): [-2, 2, 2], (3, 3): [1, 1, 1], (3, 5): [2, 2, -1],
        (4, 4): [2, 1, 1],
    }

    @pytest.mark.parametrize("actions, n_off, n_use, o_lo, plans", [
        (TWO_SLOTS, 5, 3, -2, TWO_SLOT_PLANS),
        (THREE_SLOTS, 9, 7, -4, THREE_SLOT_PLANS),
    ], ids=["two_slots", "three_slots"])
    def test_exact_ties_take_the_first_flow_in_slot_order(self, actions, n_off, n_use, o_lo, plans):
        full = full_dp_forward(actions, n_off, n_use, o_lo)
        reachable = {
            (i + o_lo, j) for i, j in zip(*np.nonzero(np.isfinite(full[-1])))
        }
        assert reachable == set(plans)
        for (o_target, u_target), flows in plans.items():
            layers = oracle._dp_forward(actions, n_off, n_use, o_lo, o_target)
            assert oracle._walk_back(layers, actions, o_lo, o_target, u_target) == flows
            # the plan costs what the DP says it costs
            cost = sum(dict(slot)[k] for slot, k in zip(actions, flows))
            assert cost == layers[-1][o_target - o_lo, u_target]

    def test_unreachable_end_state_is_refused(self):
        # inf + c == inf, so a walk from an unreachable state would "match"
        layers = oracle._dp_forward(self.TWO_SLOTS, 5, 3, -2, 0)
        with pytest.raises(ValueError, match="no plan ends"):
            oracle._walk_back(layers, self.TWO_SLOTS, -2, 0, 1)


@st.composite
def dp_instances(draw):
    """Random `_dp_forward` inputs: 1-5 slots of flows with k in [-4, 4] in any
    order, costs from a few exact values so that plans tie, some slots with
    only charges or no discharge, an offset window that may clip at either
    battery bound, and any net-flow target inside it."""
    n_slots = draw(st.integers(1, 5))
    actions = []
    for _ in range(n_slots):
        k_min = draw(st.sampled_from([-4, 0, 1]))  # any flow, no discharge, only charges
        flow = st.tuples(st.integers(k_min, 4), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        actions.append(draw(st.lists(flow, min_size=1, max_size=9, unique_by=lambda f: f[0])))
    k_flow = max(abs(k) for feasible in actions for k, _ in feasible)
    o_lo = draw(st.integers(-4 * n_slots, 0))
    o_hi = draw(st.integers(max(0, o_lo + 4), max(4 * n_slots, o_lo + 4)))  # n_off > every |k|
    o_target = draw(st.integers(o_lo, o_hi))
    n_use = draw(st.integers(k_flow + 1, n_slots * k_flow + 1))
    return actions, o_hi - o_lo + 1, n_use, o_lo, o_target


# From b_min, slot 0's discharge falls off the battery (row -1) and its
# charge of 3 cannot come back to the target: neither is in layer 1's window.
FIRST_SLOT_LEAVES_THE_WINDOW = ([[(0, 0.5), (-1, 0.25), (3, 1.0)], [(0, 0.0), (-2, 0.5)]], 5, 7, 0, 0)


@given(dp_instances())
@example(([[(0, 1.0), (1, 0.5), (-1, 0.5)]] * 2, 5, 3, -2, 0))  # TestWalkBack.TWO_SLOTS
@example(([[(2, 0.5), (3, 0.25)], [(0, 0.0), (4, 1.0)]], 5, 9, 0, 4))  # only charges, clipped at b_min
@example(([[(0, 0.0), (-1, 0.5), (-4, 0.5)]] * 3, 6, 13, -5, -5))  # clipped at b_max, target at b_min
@example(FIRST_SLOT_LEAVES_THE_WINDOW)
@settings(max_examples=300, deadline=None)
def test_dp_window_leaves_the_target_row_bit_for_bit(instance):
    actions, n_off, n_use, o_lo, o_target = instance
    full = full_dp_forward(actions, n_off, n_use, o_lo)
    windowed = oracle._dp_forward(actions, n_off, n_use, o_lo, o_target)
    assert [layer.shape for layer in windowed] == [layer.shape for layer in full]
    for w, f in zip(windowed, full):
        assert ((w == f) | (w == np.inf)).all()  # a cell outside the window is inf, never a wrong value
    row = o_target - o_lo
    assert windowed[-1][row].tobytes() == full[-1][row].tobytes()
    for u_target in np.nonzero(np.isfinite(full[-1][row]))[0].tolist():
        flows = oracle._walk_back(windowed, actions, o_lo, o_target, u_target)
        assert flows == oracle._walk_back(full, actions, o_lo, o_target, u_target)


@given(dp_instances())
@example(([[(1, 0.5), (2, 0.25)]] * 2, 5, 5, 0, 0))  # only charges: the start row is unreachable
@example(FIRST_SLOT_LEAVES_THE_WINDOW)
@settings(max_examples=300, deadline=None)
def test_offset_floor_is_the_least_cost_of_the_target_row(instance):
    actions, n_off, _, o_lo, o_target = instance
    # the oracle's usage axis holds every plan's usage
    n_use = len(actions) * max(abs(flow) for feasible in actions for flow, _ in feasible) + 1
    k = np.arange(-4, 5)
    costs = np.full((len(actions), len(k)), np.inf)  # inf where a slot has no such flow
    for p, feasible in enumerate(actions):
        for flow, c in feasible:
            costs[p, flow + 4] = c
    least = oracle._offset_floor(costs, k, n_off, -o_lo, o_target - o_lo)
    row = full_dp_forward(actions, n_off, n_use, o_lo)[-1][o_target - o_lo]
    assert np.float64(least).tobytes() == row.min().tobytes()
    if not np.isfinite(row).any():
        assert least == math.inf


def same_as_unpruned(frame: Frame, bundle: ModelBundle, grid: GridSpec) -> bool:
    """Assert that `lookahead_optimum` returns what `unpruned_lookahead` does,
    or that both find no plan. False, with nothing compared, when the oracle
    refuses the frame because its net-flow target is outside its battery window."""
    try:
        sol = lookahead_optimum(frame, bundle, grid)
    except ValueError as err:
        assert "net-flow target" in str(err)
        return False
    except InfeasibleSlot:
        with pytest.raises(InfeasibleSlot):
            unpruned_lookahead(frame, bundle, grid)
        return True
    assert sol == unpruned_lookahead(frame, bundle, grid)
    return True


class TestNetFlowTarget:
    """Frames whose net-flow target is not the boundary level (delta_u != 0),
    or whose battery window is clipped by b_min or b_max."""

    GRID = GridSpec(energy_step=SMALL_ENERGY_STEP)

    @pytest.mark.parametrize("delta_u", [0.36, -0.36])  # a target of +-4 steps per 4-slot frame
    def test_every_frame_of_desk_seeds_0_to_2(self, delta_u):
        bundle = small_bundle(delta_u=delta_u)
        compared = 0
        for seed in range(3):
            trace = generate_trace(small_profile(), SMALL_HORIZON, seed)
            summary = run_policy(trace, bundle, policy="joint")
            compared += sum(same_as_unpruned(frame, bundle, self.GRID)
                            for frame in frames_from_run(trace, summary, SMALL_FRAME_LENGTH))
        assert compared >= 12

    @pytest.mark.parametrize("boundary_b, delta_u", [
        (0.0, 0.0), (0.0, 0.36),  # at b_min
        (2.95, 0.0), (2.95, -0.36), (2.95, 0.18),  # under b_max by less than one frame's charge
    ])
    def test_every_frame_of_desk_seed_0_from_a_clipped_window(self, small_instances, boundary_b, delta_u):
        bundle = small_bundle(delta_u=delta_u)
        assert bundle.battery.b_min == 0.0 and bundle.battery.b_max == 3.0
        _, trace, summary = small_instances[0]
        for frame in frames_from_run(trace, summary, SMALL_FRAME_LENGTH):
            assert same_as_unpruned(replace(frame, boundary_b=boundary_b), bundle, self.GRID)


def same_as_frame_by_frame(frames: list[Frame], bundle: ModelBundle, grid: GridSpec) -> int:
    """Assert that one `lookahead_optima` call returns what `lookahead_optimum`
    returns frame by frame or, at the first frame it refuses, raises that
    frame's error; then the same for the frames after it. Returns the number
    of frames solved."""
    solved = 0
    while frames:
        expected, error = [], None
        for frame in frames:
            try:
                expected.append(lookahead_optimum(frame, bundle, grid))
            except (ValueError, InfeasibleSlot) as exc:
                error = exc
                break
        if error is None:
            assert lookahead_optima(frames, bundle, grid) == expected
        else:
            with pytest.raises(type(error)) as raised:
                lookahead_optima(frames, bundle, grid)
            assert str(raised.value) == str(error)
        solved += len(expected)
        frames = frames[len(expected) + 1 :]
    return solved


def refused_and_infeasible_frames() -> tuple[Frame, Frame, ModelBundle]:
    """A frame whose net-flow target lies below its empty battery, and a frame
    whose 0.5 kWh load can neither wait nor be bought under e_max = 0.3."""
    bundle = ModelBundle(
        costs=CostModel.quadratic(0.2, None, d_avg_max=1),
        weights=Weights(alpha=1.0, d_avg_max=1, delta_u=-0.03),  # a target of -2 steps per 2-slot frame
        horizon=2,
    )
    refused = Frame(start=0, slots=(SlotInput(0, 0.063, 0.0), SlotInput(1, 0.118, 0.0)), boundary_b=0.0)
    task = LoadTask(arrival_slot=2, intensity=0.5, duration=1, max_delay=0)
    infeasible = Frame(start=2, slots=(SlotInput(2, 0.063, 0.0, task), SlotInput(3, 0.118, 0.0)), boundary_b=1.0)
    return refused, infeasible, bundle


class TestRunWidePass:
    """`lookahead_optima` solves a run's frames with one set-up, and returns
    what `lookahead_optimum` returns frame by frame, errors included."""

    GRID = GridSpec(energy_step=SMALL_ENERGY_STEP)

    @pytest.mark.parametrize("weights, solved", [
        ({"delta_u": 0.36}, 18), ({"delta_u": -0.36}, 14), ({"alpha": 0.001}, 18),
    ])
    def test_whole_runs_of_desk_seeds_0_to_2(self, weights, solved):
        # TestNetFlowTarget and TestCostFloorSkip hold these frames' solutions to the unpruned search
        bundle = small_bundle(**weights)
        compared = 0
        for seed in range(3):
            trace = generate_trace(small_profile(), SMALL_HORIZON, seed)
            summary = run_policy(trace, bundle, policy="joint")
            compared += same_as_frame_by_frame(frames_from_run(trace, summary, SMALL_FRAME_LENGTH), bundle, self.GRID)
        assert compared == solved

    @pytest.mark.parametrize("delta_u, solved", [(0.0, 18), (0.36, 12), (-0.36, 11), (0.18, 18)])
    def test_frames_from_different_boundary_levels_in_one_call(self, small_instances, delta_u, solved):
        # desk seed 0's frames from their own level, from b_min and from under b_max, as in TestNetFlowTarget
        bundle = small_bundle(delta_u=delta_u)
        _, trace, summary = small_instances[0]
        frames = [replace(frame, boundary_b=b) for frame in frames_from_run(trace, summary, SMALL_FRAME_LENGTH)
                  for b in (frame.boundary_b, 0.0, 2.95)]
        assert same_as_frame_by_frame(frames, bundle, self.GRID) == solved  # the rest have no target in their window

    def test_frames_without_loads_share_no_profile_or_row(self, small_instances):
        # Every such frame has the one all-zero profile, whose slot rows differ only by
        # price and renewable; the net-flow target makes each frame buy or store some.
        _, trace, summary = small_instances[0]
        frames = [replace(frame, slots=tuple(s._replace(task=None) for s in frame.slots))
                  for frame in frames_from_run(trace, summary, SMALL_FRAME_LENGTH)]
        assert same_as_frame_by_frame(frames, small_bundle(delta_u=0.36), self.GRID) == 6

    def test_batches_by_size_and_length_change_nothing(self, small_instances, monkeypatch):
        _, trace, summary = small_instances[0]
        bundle = small_bundle()
        frames = frames_from_run(trace, summary, SMALL_FRAME_LENGTH)
        frames += frames_from_run(trace, summary, 2)[:3] + frames[:2]  # lengths 4, 2, then 4 again
        one_by_one = [lookahead_optimum(frame, bundle, self.GRID) for frame in frames]
        batches = []
        solve_batch = oracle._solve_batch
        monkeypatch.setattr(oracle, "_solve_batch", lambda b, *a: batches.append(len(b)) or solve_batch(b, *a))
        assert lookahead_optima(frames, bundle, self.GRID) == one_by_one
        assert batches == [6, 3, 2]
        batches.clear()
        monkeypatch.setattr(oracle, "_BATCH_CELLS", 2 * 4 * 120)  # two full 4-slot desk frames
        assert lookahead_optima(frames, bundle, self.GRID) == one_by_one
        assert batches == [2, 2, 2, 3, 2]

    def test_errors_come_out_in_frame_order(self):
        refused, infeasible, bundle = refused_and_infeasible_frames()
        grid = GridSpec(energy_step=0.015)
        with pytest.raises(InfeasibleSlot, match="no feasible frame plan"):
            lookahead_optima([infeasible, refused], bundle, grid)
        with pytest.raises(ValueError, match="net-flow target"):
            lookahead_optima([refused, infeasible], bundle, grid)

    def test_a_too_large_frame_is_named_by_its_start_slot(self, small_instances):
        _, trace, summary = small_instances[0]
        frames = [frames_from_run(trace, summary, SMALL_FRAME_LENGTH)[0], frames_from_run(trace, summary, 12)[1]]
        with pytest.raises(SearchSpaceError, match=r"shorten experiment.frame_length \(frame at slot 12\)$") as err:
            lookahead_optima(frames, small_bundle(), self.GRID)
        assert err.value.frame_start == 12


@pytest.fixture(scope="module")
def solved_instance(small_instances):
    seed, trace, summary = small_instances[0]
    bundle = small_bundle()
    frames = frames_from_run(trace, summary, SMALL_FRAME_LENGTH)
    solutions = [
        lookahead_optimum(f, bundle, GridSpec(energy_step=SMALL_ENERGY_STEP))
        for f in frames
    ]
    g = drift_bound_G(bundle, trace.max_task_delay())
    return trace, summary, solutions, g, bundle


class TestLookaheadBoundCheck:
    def test_bound_holds_on_a_solved_instance(self, solved_instance):
        trace, summary, solutions, g, bundle = solved_instance
        report = lookahead_bound_check(summary, solutions, g, bundle, trace=trace)
        assert report.passed, [c for c in report if not c.passed]
        assert report["frame_consistency"].achieved <= 1e-9

    def test_corrupted_frame_optimum_is_caught(self, solved_instance):
        trace, summary, solutions, g, bundle = solved_instance
        tampered = [replace(solutions[0], u_opt=solutions[0].u_opt + 10.0)] + list(solutions[1:])
        report = lookahead_bound_check(summary, tampered, g, bundle, trace=trace)
        assert not report["frame_consistency"].passed

    def test_frames_must_tile_the_horizon(self, solved_instance):
        trace, summary, solutions, g, bundle = solved_instance
        with pytest.raises(ValueError):
            lookahead_bound_check(summary, solutions[:-1], g, bundle, trace=trace)


@pytest.fixture(scope="module")
def checked_run():
    bundle = day_bundle()
    trace = generate_trace(StageProfile(), 288, seed=0)
    summary = run_policy(trace, bundle, policy="joint")
    g = drift_bound_G(bundle, trace.max_task_delay())
    return bundle, summary, g


class TestRunCheckers:
    def test_feasibility_checks_pass_on_a_real_run(self, checked_run):
        bundle, summary, _ = checked_run
        report = feasibility_checks(summary, bundle)
        assert report.passed
        assert report["battery_bounds"].achieved == 0.0

    def test_feasibility_checks_catch_a_tampered_purchase(self, checked_run):
        bundle, summary, _ = checked_run
        records = list(summary.records)
        records[5] = records[5]._replace(e=records[5].e + 0.01)
        tampered = replace(summary, records=tuple(records))
        report = feasibility_checks(tampered, bundle)
        assert not report["balance"].passed

    def test_feasibility_checks_catch_an_overfull_battery(self, checked_run):
        bundle, summary, _ = checked_run
        records = list(summary.records)
        records[5] = records[5]._replace(q=records[5].q + 10.0, e=records[5].e + 10.0)
        # keep the battery trajectory contiguous after the spike
        for i in range(6, len(records)):
            records[i] = records[i]._replace(b=records[i].b + 10.0)
        tampered = replace(summary, records=tuple(records))
        report = feasibility_checks(tampered, bundle)
        assert not report["battery_bounds"].passed

    def test_drift_checks_pass_on_a_real_run(self, checked_run):
        bundle, summary, g = checked_run
        report = drift_checks(summary, g, bundle)
        assert report.passed
        assert report["drift_bound"].achieved <= 0.0

    def test_drift_checks_catch_a_tampered_queue(self, checked_run):
        bundle, summary, g = checked_run
        records = list(summary.records)
        records[1] = records[1]._replace(x=records[1].x + 100.0)
        tampered = replace(summary, records=tuple(records))
        report = drift_checks(tampered, g, bundle)
        assert not report.passed

    def test_margin_checks_report_both_bounds(self, checked_run):
        bundle, summary, g = checked_run
        report = margin_checks(summary, g, bundle)
        assert report.passed
        mu = bundle.weights.mu
        expected = math.sqrt(
            2.0 * g / (mu * summary.horizon)
            + controller.lyapunov(summary.initial_state, mu) / (mu * summary.horizon)
        )
        assert report["delay_margin"].bound == pytest.approx(expected)  # X_0 = 0 adds nothing
        assert report["usage_mismatch"].achieved == abs(summary.epsilon_u)

    def test_jensen_gap_is_never_positive(self, checked_run):
        bundle, summary, _ = checked_run
        report = jensen_check(summary, bundle)
        assert report.passed
        assert all(c.achieved <= 1e-9 for c in report)

    def test_jensen_check_needs_records(self, checked_run):
        bundle, summary, _ = checked_run
        with pytest.raises(ValueError, match="records"):
            jensen_check(replace(summary, records=()), bundle)


class TestCheckReport:
    def test_lookup_by_name(self):
        result = CheckResult(name="x", achieved=1.0, bound=2.0)
        report = CheckReport((result,))
        assert report["x"] is result
        assert result.margin == 1.0
        with pytest.raises(KeyError):
            report["y"]

    def test_passed_requires_every_check(self):
        good = CheckResult(name="a", achieved=0.0, bound=1.0)
        bad = CheckResult(name="b", achieved=2.0, bound=1.0)
        assert CheckReport((good,)).passed
        assert not CheckReport((good, bad)).passed

    def test_the_verdict_is_achieved_within_tol_of_the_bound(self):
        assert CheckResult(name="a", achieved=1.0, bound=1.0).passed
        assert not CheckResult(name="b", achieved=1.0 + 1e-10, bound=1.0).passed
        assert CheckResult(name="c", achieved=1.0 + 1e-10, bound=1.0, tol=1e-9).passed
        assert not CheckResult(name="d", achieved=math.nan, bound=1.0, tol=1e-9).passed
