"""Whole-trace properties over hand-made traces (ROADMAP item 9).

`generate_trace`'s three-stage profile reaches only the regimes it makes.
`traces(bundle)` draws whole traces that reach the edges instead: prices at
`p_min` or `p_max`, no renewable or the full `r_max`, zero-intensity tasks,
caps of 0 and caps past the horizon. A run on any of them either completes
and passes the run-level checks, or aborts with `InfeasibleSlot` in a slot
that no action can serve within `e_max`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsched import controller
from emsched.controller import drift_bound_G
from emsched.model import InfeasibleSlot, ModelBundle
from emsched.oracle import drift_checks, feasibility_checks, margin_checks, slot_mismatches
from emsched.scenario import LoadTask, SlotInput, Trace
from emsched.simulator import POLICIES, run_policy

from conftest import small_bundle
from test_oracle import run_rows

BUNDLE = small_bundle()


@st.composite
def traces(draw, bundle: ModelBundle) -> Trace:
    """A trace of `bundle.horizon` slots. Each slot's price is `p_min`, `p_max`
    or uniform between them, and its renewable 0, uniform up to 0.3 or 0.165
    (`r_max`). In about 30% of slots a task arrives: 0, uniform in
    [0.005, 0.2] or 0.15 kWh per slot for 1 to 4 slots, with a delay cap of
    0, 1, 6 or uniform up to 30, which reaches past the horizon from any slot."""
    grid, slots = bundle.grid, []
    for t in range(bundle.horizon):
        price = draw(st.sampled_from((grid.p_min, grid.p_max)) | st.floats(grid.p_min, grid.p_max))
        renewable = draw(st.sampled_from((0.0, 0.165)) | st.floats(0.0, 0.3))
        task = None
        if draw(st.integers(0, 9)) < 3:
            intensity = draw(st.sampled_from((0.0, 0.15)) | st.floats(0.005, 0.2))
            cap = draw(st.sampled_from((0, 1, 6)) | st.integers(0, 30))
            task = LoadTask(t, intensity, draw(st.integers(1, 4)), cap)
        slots.append(SlotInput(t, price, renewable, task))
    return Trace(tuple(slots))


def zero_delay_residual(trace: Trace, t: int) -> float:
    """Slot t's demand less the renewable that serves it, when every task is
    served on arrival (a drain slot has no renewable)."""
    demand = sum(s.task.intensity for s in trace.slots[: t + 1] if s.task and t < s.slot + s.task.duration)
    renewable = trace.slots[t].renewable if t < trace.horizon else 0.0
    return demand - min(demand, renewable)


@pytest.mark.parametrize("policy", POLICIES)
@given(trace=traces(BUNDLE))
@settings(max_examples=60, deadline=None)
def test_a_run_completes_cleanly_or_raises_infeasible_slot(policy, trace):
    # A run may abort only in a slot whose residual demand exceeds e_max even
    # after the largest discharge the battery allows; with no storage, once it
    # exceeds e_max.
    decided = []  # the energy rule's (state, demand, s_w) of each slot
    with pytest.MonkeyPatch.context() as patch:
        rule = controller.energy_control
        patch.setattr(controller, "energy_control", lambda *a: decided.append(a[:3]) or rule(*a))
        try:
            run = run_policy(trace, BUNDLE, policy)
        except InfeasibleSlot as exc:
            battery, e_max = BUNDLE.battery, BUNDLE.grid.e_max
            if policy == "no_storage":
                assert zero_delay_residual(trace, exc.slot) > e_max
                return
            state, demand, s_w = decided[-1]
            residual = demand - s_w
            assert state.slot == exc.slot
            assert residual - min(battery.d_max_rate, residual, state.b - battery.b_min) > e_max
            return
    g = drift_bound_G(BUNDLE, trace.max_task_delay())
    for report in (feasibility_checks(run, BUNDLE), drift_checks(run, g, BUNDLE), margin_checks(run, g, BUNDLE)):
        assert report.passed, [c for c in report if not c.passed]

    # Every scheduled load is served, whole, by the end of the drain.
    served = [0.0] * len(run.records)
    for r in run.records[: trace.horizon]:
        task = trace.slots[r.slot].task
        if task is not None:
            start = r.slot + r.delay
            assert start + task.duration <= len(run.records), (r.slot, r.delay)
            for t in range(start, start + task.duration):
                served[t] += task.intensity
    assert [r.demand for r in run.records] == pytest.approx(served, abs=1e-12)

    # A no-storage record is no `slot_mismatches` row: its battery is pinned idle.
    if policy != "no_storage":
        assert slot_mismatches(run_rows(trace, run), BUNDLE, run.initial_state.v) == (0, 0, 0, 0)
