"""Release gate: the guarantees the controller is designed to deliver, checked
end to end on seeded ensembles with pinned tolerances.

One test here is a known red (see its comment and the README): the
storage-only-vs-joint ordering on *total* cost in the deferral cell. It is
kept failing rather than loosened because the underlying claim does not hold
at this load scale.
"""

import time

import pytest

from emsched.controller import design_params, drift_bound_G
from emsched.model import BatteryParams, CostModel, GridParams, ModelBundle, Weights
from emsched.scenario import generate_trace
from emsched.simulator import run_policy
from emsched.oracle import (
    GridSpec,
    drift_checks,
    equivalence_battery,
    feasibility_checks,
    frames_from_run,
    jensen_check,
    lookahead_optimum,
    margin_checks,
    lookahead_bound_check,
)

from conftest import (
    ACCEPT_COUNT,
    B_MAXES,
    DAY_HORIZON,
    DELAY_CAPS,
    SMALL_COUNT,
    SMALL_ENERGY_STEP,
    SMALL_FRAME_LENGTH,
    day_bundle,
    day_profile,
    small_bundle,
)


class TestClosedFormEquivalence:
    def test_closed_forms_match_brute_force_on_a_large_state_sample(self):
        started = time.perf_counter()
        report = equivalence_battery(day_bundle(), n_states=1000, seed=2024)
        elapsed = time.perf_counter() - started
        assert report.passed, [c for c in report if not c.passed]
        names = {c.name for c in report}
        assert names == {
            "schedule_equivalence", "aux_equivalence",
            "energy_dominance", "energy_slack",
        }
        assert elapsed < 60.0


class TestEnsembleFeasibility:
    def test_every_run_keeps_all_slot_constraints(self, day_runs):
        assert len(day_runs) == ACCEPT_COUNT
        bundle = day_bundle()
        for seed, summary in day_runs:
            report = feasibility_checks(summary, bundle)
            assert report.passed, (seed, [c for c in report if not c.passed])
            # the closed form never even grazes the battery limits
            assert report["battery_bounds"].achieved == 0.0, seed

    def test_per_slot_drift_never_exceeds_the_quadratic_bound(self, day_runs):
        bundle = day_bundle()
        g = drift_bound_G(bundle, 18)
        assert g == pytest.approx(324.027225, abs=1e-9)
        for seed, summary in day_runs:
            report = drift_checks(summary, g, bundle)
            assert report.passed, seed
            assert report["drift_bound"].achieved <= 0.0, seed

    def test_average_delay_respects_its_cap_and_margins(self, day_runs):
        bundle = day_bundle()
        g = drift_bound_G(bundle, 18)
        for seed, summary in day_runs:
            report = margin_checks(summary, g, bundle)
            assert report.passed, (seed, [c for c in report if not c.passed])
            assert summary.delay_avg <= bundle.weights.d_avg_max, seed

    def test_time_averaged_costs_dominate_costs_of_time_averages(self, day_runs):
        bundle = day_bundle()
        for seed, summary in day_runs:
            report = jensen_check(summary, bundle)
            assert report.passed, seed


class TestReferenceBound:
    def test_online_cost_stays_within_the_lookahead_bound(self, small_instances):
        assert len(small_instances) == SMALL_COUNT
        bundle = small_bundle()
        grid = GridSpec(energy_step=SMALL_ENERGY_STEP)
        for seed, trace, summary in small_instances:
            started = time.perf_counter()
            frames = frames_from_run(trace, summary, SMALL_FRAME_LENGTH)
            solutions = [lookahead_optimum(f, bundle, grid) for f in frames]
            g = drift_bound_G(bundle, trace.max_task_delay())
            report = lookahead_bound_check(summary, solutions, g, bundle, trace=trace)
            elapsed = time.perf_counter() - started
            assert report.passed, (seed, [c for c in report if not c.passed])
            assert elapsed < 300.0, seed


class TestCostShapes:
    """Ensemble means over a fixed 20-seed sampling frame (see conftest)."""

    def test_total_cost_never_rises_as_the_delay_cap_loosens(self, ensemble_means):
        totals = [ensemble_means[("total_vs_cap", cap)] for cap in DELAY_CAPS]
        assert all(a >= b for a, b in zip(totals, totals[1:])), totals

    def test_deferral_lowers_monetary_cost_at_every_cap(self, ensemble_means):
        never = ensemble_means["monetary_never_defer"]
        for cap in DELAY_CAPS:
            assert ensemble_means[("monetary_deferral", cap)] < never, cap

    def test_monetary_cost_ranks_no_storage_above_storage_only_above_joint(self, ensemble_means):
        b_max = B_MAXES[-1]
        none = ensemble_means[("policy_monetary", b_max, "no_storage")]
        storage = ensemble_means[("policy_monetary", b_max, "storage_only")]
        joint = ensemble_means[("policy_monetary", b_max, "joint")]
        assert none > storage > joint, (none, storage, joint)

    def test_storage_lowers_total_cost_in_the_deferral_cell(self, ensemble_means):
        b_max = B_MAXES[-1]
        none = ensemble_means[("policy_total", b_max, "no_storage")]
        storage = ensemble_means[("policy_total", b_max, "storage_only")]
        joint = ensemble_means[("policy_total", b_max, "joint")]
        assert none > storage, (none, storage)
        assert none > joint, (none, joint)

    def test_deferral_lowers_total_cost_below_storage_only(self, ensemble_means):
        # Known red. The deferral discount at this load scale is ~0.00067/day
        # of monetary cost, but the delay penalty the joint policy pays for it
        # is ~0.00084/day, so the joint TOTAL lands slightly above
        # storage-only (the monetary ordering above does hold). The load
        # would have to grow ~2.4x before the saving outgrew the penalty.
        # Kept failing rather than loosened; the README documents it.
        b_max = B_MAXES[-1]
        storage = ensemble_means[("policy_total", b_max, "storage_only")]
        joint = ensemble_means[("policy_total", b_max, "joint")]
        assert storage > joint, (storage, joint)

    def test_no_storage_total_ignores_battery_size(self, ensemble_means):
        totals = {ensemble_means[("policy_total", b_max, "no_storage")] for b_max in B_MAXES}
        assert len(totals) == 1, totals

    def test_heavier_queue_weight_never_lowers_total_cost(self, ensemble_means):
        for cap in DELAY_CAPS:
            light = ensemble_means[("total_vs_mu", cap, 1.0)]
            heavy = ensemble_means[("total_vs_mu", cap, 10.0)]
            assert heavy >= light, cap


class TestAlphaThreshold:
    """Why the known red fails (ROADMAP item 3): at the day config's V =
    V_max the joint policy's delays do not respond to alpha below alpha* =
    d_avg_max**2 / (2 V), and follow it above."""

    def test_delays_ignore_alpha_below_the_threshold_and_fall_above_it(self):
        _, _, v = design_params(day_bundle())
        assert 1.0 < 18**2 / (2 * v) < 20.0  # alpha* ~ 12.7
        for seed in (0, 2, 3):
            trace = generate_trace(day_profile(), DAY_HORIZON, seed)
            low, unit, high = (run_policy(trace, day_bundle(alpha=a), "joint") for a in (0.001, 1.0, 20.0))
            assert [r.delay for r in low.records] == [r.delay for r in unit.records], seed
            assert round(low.delay_avg, 4) == round(unit.delay_avg, 4) == 8.9410, seed
            assert high.delay_avg < 0.2, (seed, high.delay_avg)


class TestDesignConstants:
    def test_default_day_design_point(self):
        a_o, v_max, _ = design_params(ModelBundle(
            BatteryParams(),
            GridParams(),
            CostModel.quadratic(0.2, None, d_avg_max=18),
            Weights(),
            DAY_HORIZON,
        ))
        assert a_o == pytest.approx(2.67, abs=1e-6)
        assert v_max == pytest.approx(2.34 / 0.184, abs=1e-6)
        assert round(v_max, 4) == 12.7174
