"""Shared fixtures: seeded run ensembles used across the test suite.

The day-scale ensembles cost a few seconds each, so they are built once per
session and shared. The run ensembles are seeds 0..N-1, every one of which
must complete: the stage profile occasionally draws an active-demand spike
above the grid purchase cap, and the energy rule covers it with a forced
discharge, so a joint run aborts only where no action could serve the slot.
The comparison ensemble still scans seeds upward from 0 and keeps the first
N whose cells all complete, because the no-storage baseline has no battery
to cover a spike.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from emsched import controller
from emsched.model import (
    BatteryParams,
    CostModel,
    InfeasibleSlot,
    ModelBundle,
    Weights,
)
from emsched.scenario import StageProfile, Trace, generate_trace
from emsched.simulator import run_policy

DAY_HORIZON = 288
ACCEPT_COUNT = 100
FIG_COUNT = 20
SMALL_COUNT = 20

# Comparison-ensemble axes.
DELAY_CAPS = (6, 12, 18, 24)
B_MAXES = (1.5, 2.25, 3.0)
LONG_DELAY = 216  # per-load cap loose enough that only the average cap binds

SMALL_HORIZON = 24
SMALL_FRAME_LENGTH = 4
SMALL_ENERGY_STEP = 0.015


def day_bundle(
    *,
    alpha: float = 1.0,
    mu: float = 1.0,
    d_avg_max: int = 18,
    b_max: float = 3.0,
    b_init: float = 0.0,
    v: float | None = None,
    delta_u: float = 0.0,
) -> ModelBundle:
    """Day-scale bundle (288 five-minute slots) with the delay-cost
    coefficient re-normalized whenever the average-delay cap moves."""
    return ModelBundle(
        battery=BatteryParams(b_max=b_max, b_init=b_init),
        costs=CostModel.quadratic(0.2, None, d_avg_max=d_avg_max),
        weights=Weights(alpha=alpha, mu=mu, v=v, delta_u=delta_u, d_avg_max=d_avg_max),
        horizon=DAY_HORIZON,
    )


def day_profile(max_delay: int = 18) -> StageProfile:
    return StageProfile(max_delay=max_delay)


def warm_bundle(bundle: ModelBundle) -> ModelBundle:
    """Start the battery at the level the controller holds at the cheapest
    price tier, so one-day comparisons are not tilted by the stranded charge a
    cold start leaves in the battery at the end of the day."""
    a_o, _, v = controller.design_params(bundle)
    level = min(bundle.battery.b_max, max(bundle.battery.b_min, a_o - v * bundle.grid.p_min))
    return replace(bundle, battery=replace(bundle.battery, b_init=level))


def small_profile() -> StageProfile:
    return StageProfile(slot_minutes=60, duration_max=4, max_delay=6)


def small_bundle(**weight_overrides) -> ModelBundle:
    weights = Weights(d_avg_max=6, **weight_overrides)
    return ModelBundle(
        costs=CostModel.quadratic(0.2, None, d_avg_max=weights.d_avg_max),
        weights=weights,
        horizon=SMALL_HORIZON,
    )


def completed_run(trace: Trace, bundle: ModelBundle, seed: int):
    """The joint run of `trace`; a test failure naming `seed` if it aborts."""
    try:
        return run_policy(trace, bundle, policy="joint")
    except InfeasibleSlot as exc:
        pytest.fail(f"seed {seed}: the joint run aborted: {exc}")


@pytest.fixture(scope="session")
def day_runs() -> list[tuple[int, object]]:
    """(seed, joint RunSummary) for the default-parameter day traces of seeds 0-99."""
    bundle, profile = day_bundle(), day_profile()
    return [
        (seed, completed_run(generate_trace(profile, DAY_HORIZON, seed), bundle, seed))
        for seed in range(ACCEPT_COUNT)
    ]


def _ensemble_cells(seed: int) -> dict | None:
    """Every comparison-ensemble cell value for one seed; None if any run aborts.

    A seed only enters the ensemble if all of its cells complete, so each
    cell's mean is taken over the same traces.
    """
    cells: dict = {}
    try:
        # Total cost vs the average-delay cap (per-load caps tied to it).
        for cap in DELAY_CAPS:
            trace = generate_trace(day_profile(max_delay=cap), DAY_HORIZON, seed)
            bundle = day_bundle(alpha=0.005, d_avg_max=cap)
            cells[("total_vs_cap", cap)] = run_policy(trace, bundle, "joint").total

        # Monetary cost with deferral allowed vs every load served on arrival.
        trace_long = generate_trace(day_profile(max_delay=LONG_DELAY), DAY_HORIZON, seed)
        for cap in DELAY_CAPS:
            bundle = day_bundle(alpha=0.005, d_avg_max=cap)
            cells[("monetary_deferral", cap)] = run_policy(trace_long, bundle, "joint").monetary_cost
        cells["monetary_never_defer"] = run_policy(
            trace_long, day_bundle(alpha=0.005), "storage_only"
        ).monetary_cost

        # Policy comparison across battery sizes at the small delay weight.
        for b_max in B_MAXES:
            bundle = warm_bundle(day_bundle(alpha=0.001, b_max=b_max))
            joint = run_policy(trace_long, bundle, "joint")
            storage = run_policy(trace_long, bundle, "storage_only")
            none = run_policy(trace_long, bundle, "no_storage")
            for policy, summary in (("joint", joint), ("storage_only", storage), ("no_storage", none)):
                cells[("policy_total", b_max, policy)] = summary.total
                cells[("policy_monetary", b_max, policy)] = summary.monetary_cost

        # Queue-weight sensitivity at the large delay weight.
        for cap in DELAY_CAPS:
            trace = generate_trace(day_profile(max_delay=cap), DAY_HORIZON, seed)
            for mu in (1.0, 10.0):
                bundle = day_bundle(alpha=1.0, mu=mu, d_avg_max=cap)
                cells[("total_vs_mu", cap, mu)] = run_policy(trace, bundle, "joint").total
    except InfeasibleSlot:
        return None
    return cells


@pytest.fixture(scope="session")
def ensemble_means() -> dict:
    """Cell means over the first 20 seeds for which every comparison cell runs."""
    per_seed: list[dict] = []
    seed = 0
    while len(per_seed) < FIG_COUNT:
        assert seed < 200, "seed scan ran away; the scenario defaults changed"
        cells = _ensemble_cells(seed)
        if cells is not None:
            per_seed.append(cells)
        seed += 1
    return {key: sum(c[key] for c in per_seed) / len(per_seed) for key in per_seed[0]}


@pytest.fixture(scope="session")
def small_instances() -> list[tuple[int, Trace, object]]:
    """(seed, trace, joint RunSummary) for the desk-scale instances (24 hourly
    slots) of seeds 0-19."""
    bundle, profile = small_bundle(), small_profile()
    traces = [generate_trace(profile, SMALL_HORIZON, seed) for seed in range(SMALL_COUNT)]
    return [(seed, trace, completed_run(trace, bundle, seed)) for seed, trace in enumerate(traces)]
