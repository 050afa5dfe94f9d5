"""Per-slot loop, service ledger, baselines, and cost accounting."""

import csv
import dataclasses
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from emsched import controller
from emsched.controller import ControllerState
from emsched.cli import load_experiment, main
from emsched.model import (
    CostModel,
    InfeasibleSlot,
    ModelBundle,
    StateConsistencyError,
    Weights,
)
from emsched.scenario import LoadTask, SlotInput, StageProfile, Trace, generate_trace
from emsched.simulator import (
    POLICIES,
    RunSummary,
    ServiceLedger,
    SlotRecord,
    run_policy,
    write_records,
)

from conftest import DAY_HORIZON, day_bundle, day_profile, warm_bundle

DEFAULT = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def flat_trace(horizon: int, price: float = 0.118, tasks: dict | None = None) -> Trace:
    tasks = tasks or {}
    return Trace(
        slots=tuple(
            SlotInput(slot=t, price=price, renewable=0.0, task=tasks.get(t))
            for t in range(horizon)
        )
    )


def small_run_bundle(horizon: int, **weight_overrides) -> ModelBundle:
    weights = Weights(**{"d_avg_max": 18, **weight_overrides})
    return ModelBundle(
        costs=CostModel.quadratic(0.2, None, d_avg_max=weights.d_avg_max),
        weights=weights,
        horizon=horizon,
    )


class TestServiceLedger:
    def test_service_window_respects_the_chosen_delay(self):
        ledger = ServiceLedger()
        ledger.add(LoadTask(arrival_slot=5, intensity=0.1, duration=3, max_delay=5), delay=2)
        assert ledger.active_demand(6) == 0.0      # service starts at 7
        assert ledger.active_demand(7) == pytest.approx(0.1)
        assert ledger.active_demand(8) == pytest.approx(0.1)
        assert ledger.active_demand(9) == pytest.approx(0.1)
        assert ledger.active_demand(10) == 0.0     # window [7, 10) closed

    def test_overlapping_tasks_sum(self):
        ledger = ServiceLedger()
        ledger.add(LoadTask(arrival_slot=0, intensity=0.1, duration=4, max_delay=0), delay=0)
        ledger.add(LoadTask(arrival_slot=1, intensity=0.05, duration=2, max_delay=0), delay=0)
        assert ledger.active_demand(1) == pytest.approx(0.15)

    def test_pending_after_tracks_unfinished_windows(self):
        ledger = ServiceLedger()
        ledger.add(LoadTask(arrival_slot=0, intensity=0.1, duration=2, max_delay=3), delay=3)
        assert ledger.pending_after(0)   # window [3, 5) still ahead
        assert ledger.pending_after(3)   # last served slot is 4
        assert not ledger.pending_after(4)


class TestNoStorageBaseline:
    def test_single_task_slot_cost(self):
        task = LoadTask(arrival_slot=0, intensity=0.1, duration=1, max_delay=0)
        trace = flat_trace(1, price=0.118, tasks={0: task})
        summary = run_policy(trace, small_run_bundle(1), "no_storage")
        assert summary.total == pytest.approx(0.0118)
        assert summary.j_bar == pytest.approx(0.0118)

    def test_cost_independent_of_battery_capacity(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        totals = {
            b_max: run_policy(trace, day_bundle(b_max=b_max), "no_storage").total
            for b_max in (1.5, 3.0, 6.0)
        }
        assert len(set(totals.values())) == 1

    def test_renewable_covering_demand_means_no_purchases(self):
        task = LoadTask(arrival_slot=0, intensity=0.1, duration=2, max_delay=0)
        slots = (
            SlotInput(slot=0, price=0.118, renewable=0.5, task=task),
            SlotInput(slot=1, price=0.118, renewable=0.5),
        )
        summary = run_policy(Trace(slots=slots), small_run_bundle(2), "no_storage")
        assert summary.j_bar == 0.0
        assert summary.total == 0.0

    def test_task_free_zero_solar_day_costs_nothing(self):
        summary = run_policy(flat_trace(12), small_run_bundle(12), "no_storage")
        assert summary.total == 0.0

    def test_demand_above_purchase_cap_aborts(self):
        task = LoadTask(arrival_slot=0, intensity=0.4, duration=1, max_delay=0)
        with pytest.raises(InfeasibleSlot) as err:
            run_policy(flat_trace(1, tasks={0: task}), small_run_bundle(1), "no_storage")
        assert "slot 0" in str(err.value)
        assert "no-storage baseline" in str(err.value)


class TestRun:
    def test_zero_slot_trace_yields_all_zero_summary(self):
        summary = run_policy(Trace(slots=()), small_run_bundle(0), policy="joint")
        assert summary.total == 0.0
        assert summary.records == ()

    def test_same_inputs_same_records(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=3)
        a = run_policy(trace, day_bundle(), policy="joint")
        b = run_policy(trace, day_bundle(), policy="joint")
        assert a.records == b.records
        assert a.total == b.total

    def test_trace_and_bundle_horizons_must_agree(self):
        trace = flat_trace(4)
        with pytest.raises(ValueError, match="horizon"):
            run_policy(trace, small_run_bundle(8), policy="joint")

    def test_total_is_composed_from_its_parts(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=3)
        bundle = day_bundle(alpha=0.005)
        s = run_policy(trace, bundle, policy="joint")
        assert s.total == pytest.approx(s.j_bar + s.entry_bar + s.usage_cost + s.delay_cost, abs=1e-15)
        assert s.usage_cost == pytest.approx(bundle.costs.usage.value(s.usage_avg), abs=1e-15)
        assert s.delay_cost == pytest.approx(
            bundle.weights.alpha * bundle.costs.delay.value(s.delay_avg), abs=1e-15
        )
        assert s.monetary_cost == pytest.approx(s.total - s.delay_cost, abs=1e-15)

    def test_drain_phase_serves_every_scheduled_load(self):
        task = LoadTask(arrival_slot=3, intensity=0.05, duration=4, max_delay=6)
        trace = flat_trace(4, tasks={3: task})
        summary = run_policy(trace, small_run_bundle(4, d_avg_max=6), policy="joint")
        served = sum(1 for r in summary.records if r.demand > 0.0)
        assert served == 4  # the full duration, wherever the window landed
        assert summary.drain_slots == len(summary.records) - 4
        assert all(r.slot >= 4 for r in summary.records[4:])
        # averages only count the in-horizon slots
        in_horizon_purchases = sum(r.e * r.price for r in summary.records[:4])
        assert summary.j_bar == pytest.approx(in_horizon_purchases / 4)

    def test_inclusive_averages_count_drain_purchases(self):
        task = LoadTask(arrival_slot=3, intensity=0.05, duration=4, max_delay=6)
        trace = flat_trace(4, tasks={3: task})
        summary = run_policy(trace, small_run_bundle(4, d_avg_max=6), policy="joint")
        all_purchases = sum(r.e * r.price for r in summary.records)
        assert summary.j_bar_inclusive == pytest.approx(all_purchases / 4)
        assert summary.j_bar_inclusive >= summary.j_bar

    def test_zero_delay_caps_reduce_to_the_storage_only_baseline(self):
        profile = replace(day_profile(), max_delay=0)
        trace = generate_trace(profile, DAY_HORIZON, seed=0)
        joint = run_policy(trace, day_bundle(), policy="joint")
        storage = run_policy(trace, day_bundle(), "storage_only")
        assert joint.delay_avg == 0.0
        assert joint.records == storage.records
        assert joint.total == pytest.approx(storage.total, abs=1e-15)

    def test_drain_guard_stops_a_ledger_that_never_empties(self, monkeypatch):
        # The guard fires after the record of slot 2*horizon + 10_000.
        calls = []
        original = controller.update_queues

        def counting(*args):
            calls.append(args[0].slot)
            return original(*args)

        monkeypatch.setattr(ServiceLedger, "pending_after", lambda self, t: True)
        monkeypatch.setattr(controller, "update_queues", counting)
        with pytest.raises(StateConsistencyError, match="^drain phase failed to terminate$"):
            run_policy(flat_trace(4), small_run_bundle(4), policy="joint")
        assert len(calls) == 2 * 4 + 10_001
        assert calls[-1] == 2 * 4 + 10_000

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            run_policy(flat_trace(1), small_run_bundle(1), "greedy")
        assert POLICIES == ("joint", "storage_only", "no_storage")


def summarize_by_records(bundle: ModelBundle, records) -> dict[str, float]:
    """The float fields of `RunSummary` computed by walking the records after
    the run, as `simulator._summarize` did before the slot loop kept running
    sums: the reference those sums must match bit for bit."""
    purchase = entry = usage = delay = net_flow = 0.0
    purchase_all = entry_all = usage_all = 0.0
    horizon = bundle.horizon
    for r in records:
        r_purchase = r.e * r.price
        r_entry = controller.entry_cost(r.q, r.s_r, r.d_rate, bundle.battery)
        r_usage = controller.usage_amount(r.q, r.s_r, r.d_rate)
        purchase_all += r_purchase
        entry_all += r_entry
        usage_all += r_usage
        if r.slot < horizon:
            purchase += r_purchase
            entry += r_entry
            usage += r_usage
            delay += r.delay
            net_flow += r.q + r.s_r - r.d_rate

    slots = max(horizon, 1)
    j_bar = purchase / slots
    entry_bar = entry / slots
    usage_avg = usage / slots
    delay_avg = delay / slots
    usage_cost = bundle.costs.usage.value(usage_avg)
    delay_cost = bundle.weights.alpha * bundle.costs.delay.value(delay_avg)
    j_bar_inc = purchase_all / slots
    entry_bar_inc = entry_all / slots
    usage_avg_inc = usage_all / slots
    return {
        "j_bar": j_bar,
        "entry_bar": entry_bar,
        "usage_avg": usage_avg,
        "usage_cost": usage_cost,
        "delay_avg": delay_avg,
        "delay_cost": delay_cost,
        "total": j_bar + entry_bar + usage_cost + delay_cost,
        "j_bar_inclusive": j_bar_inc,
        "entry_bar_inclusive": entry_bar_inc,
        "usage_avg_inclusive": usage_avg_inc,
        "total_inclusive": j_bar_inc + entry_bar_inc + bundle.costs.usage.value(usage_avg_inc) + delay_cost,
        "epsilon_u": net_flow - bundle.weights.delta_u,
    }


class TestRunningSums:
    """`run_policy` sums the costs inside its slot loop; every float of the
    summary must equal, by `repr`, the one a walk over the records gives."""

    FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(RunSummary) if f.type == "float")

    def assert_sums_match_records(self, summary: RunSummary, bundle: ModelBundle) -> None:
        reference = summarize_by_records(bundle, summary.records)
        assert set(reference) == set(self.FLOAT_FIELDS)
        assert {name: repr(getattr(summary, name)) for name in self.FLOAT_FIELDS} == {
            name: repr(value) for name, value in reference.items()
        }

    def test_every_completing_day_run(self):
        completed = {policy: 0 for policy in POLICIES}
        bundle = day_bundle()
        for seed in range(10):
            trace = generate_trace(day_profile(), DAY_HORIZON, seed)
            for policy in POLICIES:
                try:
                    summary = run_policy(trace, bundle, policy)
                except InfeasibleSlot:
                    continue
                self.assert_sums_match_records(summary, bundle)
                completed[policy] += 1
        assert min(completed.values()) > 0, completed

    def test_drain_slots_that_move_the_battery(self):
        # At a flat low price the battery keeps charging through the drain,
        # so every inclusive sum differs from its horizon sum.
        task = LoadTask(arrival_slot=3, intensity=0.05, duration=4, max_delay=6)
        trace = flat_trace(4, price=0.063, tasks={3: task})
        bundle = small_run_bundle(4, d_avg_max=6)
        summary = run_policy(trace, bundle, policy="joint")
        assert summary.drain_slots > 0
        assert summary.records[4].q > 0.0  # the first drain slot moves the battery
        assert summary.j_bar_inclusive != summary.j_bar
        assert summary.entry_bar_inclusive != summary.entry_bar
        assert summary.usage_avg_inclusive != summary.usage_avg
        assert summary.delay_avg > 0.0
        self.assert_sums_match_records(summary, bundle)

    def test_zero_slot_trace(self):
        bundle = small_run_bundle(0)
        summary = run_policy(Trace(slots=()), bundle, policy="joint")
        self.assert_sums_match_records(summary, bundle)


class TestStorageOnlyBaseline:
    def test_never_delays(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        summary = run_policy(trace, day_bundle(), "storage_only")
        assert summary.delay_avg == 0.0
        assert all(r.delay == 0 for r in summary.records)

    def test_policy_label(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        assert run_policy(trace, day_bundle(), "storage_only").policy == "storage_only"


class TestBaselinesShareTheSlotLoop:
    """Both baselines are the joint slot loop with stages pinned: a delay cap
    of 0 for both, and an idle battery for no_storage."""

    @pytest.mark.parametrize("seed", range(5))
    def test_baselines_read_no_delay_axis(self, seed):
        # every delay is 0, so neither the delay caps nor the delay weights
        # can reach a baseline's records, summary or abort: a sweep runs each
        # baseline once per b_max and shares it across the other axes
        settings = [  # (d_avg_max, max_delay, alpha, mu)
            (18, 18, 1.0, 1.0),
            (6, 18, 1.0, 1.0),
            (18, 216, 1.0, 1.0),
            (18, 18, 0.25, 1.0),
            (18, 18, 1.0, 4.0),
            (12, 216, 3.0, 0.5),
        ]
        for policy in ("storage_only", "no_storage"):
            outcomes = []
            for d_avg_max, max_delay, alpha, mu in settings:
                trace = generate_trace(day_profile(max_delay=max_delay), DAY_HORIZON, seed)
                bundle = day_bundle(d_avg_max=d_avg_max, alpha=alpha, mu=mu)
                try:
                    summary = run_policy(trace, bundle, policy)
                except InfeasibleSlot as err:
                    if policy != "no_storage":  # storage_only has to complete
                        raise
                    outcomes.append(f"{type(err).__name__}: {err}")
                    continue
                for r in summary.records:
                    assert (r.delay, r.x, r.h_d, r.gamma_d) == (0, 0.0, 0.0, 0.0)
                outcomes.append(summary)
            assert all(outcome == outcomes[0] for outcome in outcomes), policy

    @pytest.mark.parametrize("seed", range(5))
    def test_no_storage_buys_what_the_renewable_cannot_cover(self, seed):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed)
        bundle = day_bundle()
        try:
            summary = run_policy(trace, bundle, "no_storage")
        except InfeasibleSlot as err:
            # only a residual demand above the purchase cap may stop it
            assert err.detail == "no-storage baseline"
            assert err.required > bundle.grid.e_max
            return
        for r in summary.records:
            assert (r.q, r.s_r, r.d_rate, r.regime) == (0.0, 0.0, 0.0, "idle")
            assert (r.x, r.h_u, r.h_d, r.gamma_u, r.gamma_d) == (0.0, 0.0, 0.0, 0.0, 0.0)
            assert r.e == r.demand - min(r.demand, r.renewable)
        # loads are served on arrival, as under storage_only
        storage = run_policy(trace, bundle, "storage_only")
        assert [r.demand for r in summary.records] == [r.demand for r in storage.records]


class TestSeededRegression:
    """Pinned outputs for one completing seed; any drift in the decision rules,
    queue updates, or cost accounting moves these numbers."""

    def test_default_parameters_joint_total(self):
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        summary = run_policy(trace, day_bundle(), policy="joint")
        assert summary.total == pytest.approx(0.2510547605827935, rel=1e-9)
        assert summary.delay_avg == pytest.approx(8.940972222222221, rel=1e-9)

    def test_deferral_cell_beats_both_baselines(self):
        # small delay weight, loose per-load caps, warmed battery: the joint
        # policy wins on total cost, not just on the monetary part
        bundle = warm_bundle(day_bundle(alpha=0.001))
        trace = generate_trace(day_profile(max_delay=216), DAY_HORIZON, seed=0)
        joint = run_policy(trace, bundle, policy="joint")
        storage = run_policy(trace, bundle, "storage_only")
        none = run_policy(trace, bundle, "no_storage")
        assert joint.total == pytest.approx(0.004078566062471808, rel=1e-9)
        assert storage.total == pytest.approx(0.0038512052340816706, rel=1e-9)
        assert none.total == pytest.approx(0.004262232955472221, rel=1e-9)
        assert joint.total < none.total
        assert joint.monetary_cost < storage.monetary_cost < none.monetary_cost


class TestScaleInvariance:
    def test_rescaled_prices_and_costs_leave_decisions_unchanged(self):
        scale = 2.0  # exact in binary floating point
        profile = day_profile()
        scaled_profile = replace(
            profile,
            price_high=profile.price_high * scale,
            price_mid=profile.price_mid * scale,
            price_low=profile.price_low * scale,
        )
        trace = generate_trace(profile, DAY_HORIZON, seed=0)
        scaled_trace = generate_trace(scaled_profile, DAY_HORIZON, seed=0)

        bundle = day_bundle()
        scaled_bundle = replace(
            bundle,
            battery=replace(bundle.battery, c_rc=bundle.battery.c_rc * scale,
                            c_dc=bundle.battery.c_dc * scale),
            grid=replace(bundle.grid, p_min=bundle.grid.p_min * scale,
                         p_max=bundle.grid.p_max * scale),
            costs=CostModel.quadratic(0.2 * scale, scale / 324.0, d_avg_max=18),
        )
        # v defaults to the designed maximum, which absorbs the 1/scale factor
        base = run_policy(trace, bundle, policy="joint")
        scaled = run_policy(scaled_trace, scaled_bundle, policy="joint")
        for r_base, r_scaled in zip(base.records, scaled.records):
            assert (r_base.e, r_base.q, r_base.d_rate, r_base.s_r, r_base.delay) == (
                r_scaled.e, r_scaled.q, r_scaled.d_rate, r_scaled.s_r, r_scaled.delay
            )
        assert scaled.total == pytest.approx(scale * base.total, rel=1e-12)


class TestRecordFiles:
    def test_header_matches_documented_schema(self, tmp_path):
        trace = flat_trace(2)
        summary = run_policy(trace, small_run_bundle(2), policy="joint")
        path = tmp_path / "records.csv"
        write_records(path, summary.records)
        header = path.read_text().splitlines()[0]
        assert header == "slot,price,renewable,demand,E,Q,D,S_w,S_r,delay,B,Z,X,H_u,H_d,regime"

    def test_one_row_per_simulated_slot(self, tmp_path):
        trace = generate_trace(StageProfile(), 48, seed=0)
        bundle = day_bundle()
        bundle = replace(bundle, horizon=48)
        summary = run_policy(trace, bundle, policy="joint")
        path = tmp_path / "records.csv"
        write_records(path, summary.records)
        lines = path.read_text().splitlines()
        assert len(lines) == len(summary.records) + 1

    def test_bytes_match_csv_writer_at_nine_significant_digits(self, tmp_path):
        """records.csv is what csv.writer writes with every float formatted
        by format(x, ".9g"), on a run with drain slots, slots no service
        window covers (demand is the ledger's int 0) and negative Z."""
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        trace = replace(trace, slots=tuple(
            s._replace(task=None) if s.slot < 3 else s for s in trace.slots
        ))
        records = run_policy(trace, day_bundle(), policy="joint").records
        assert any(r.slot >= DAY_HORIZON for r in records)
        assert any(type(r.demand) is int for r in records)
        assert any(r.z < 0.0 for r in records)

        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "price", "renewable", "demand", "E", "Q", "D", "S_w", "S_r",
                             "delay", "B", "Z", "X", "H_u", "H_d", "regime"])
            for r in records:
                writer.writerow([
                    r.slot, *(format(x, ".9g") for x in r[1:9]),
                    r.delay, *(format(x, ".9g") for x in r[10:15]),
                    r.regime,
                ])
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert path.read_bytes() == reference.read_bytes()


class TestSlotLoopHooks:
    """`run` reads each per-slot rule from its module or class attribute when
    it starts, so a wrapper patched there before the call (a tracer, a fault
    classifier) sees every call."""

    HOOKS = (
        (controller, "schedule_load"),
        (controller, "aux_solution"),
        (controller, "energy_control"),
        (controller, "update_queues"),
        (ServiceLedger, "active_demand"),
    )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_hook_is_called_through_its_attribute(self, monkeypatch, policy):
        calls = {name: [] for _, name in self.HOOKS}
        for owner, name in self.HOOKS:
            def recorder(*args, _original=getattr(owner, name), _calls=calls[name], **kwargs):
                _calls.append((args, kwargs))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorder)
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        summary = run_policy(trace, day_bundle(), policy=policy)

        slots = len(summary.records)
        assert slots > DAY_HORIZON  # the drain slots go through the same hooks
        assert len(calls["schedule_load"]) == sum(s.task is not None for s in trace.slots)
        assert len(calls["aux_solution"]) == 2 * slots
        assert len(calls["active_demand"]) == slots
        assert len(calls["update_queues"]) == slots
        # The no-storage baseline keeps the battery idle without asking the rule.
        assert len(calls["energy_control"]) == (0 if policy == "no_storage" else slots)
        for args, kwargs in calls["energy_control"]:
            assert len(args) == 7 and not kwargs

    def test_records_and_states_are_immutable(self, monkeypatch):
        returned = {"energy_control": [], "update_queues": []}
        for name, values in returned.items():
            def recorder(*args, _original=getattr(controller, name), _values=values):
                value = _original(*args)
                _values.append(value)
                return value

            monkeypatch.setattr(controller, name, recorder)
        trace = generate_trace(day_profile(), DAY_HORIZON, seed=0)
        summary = run_policy(trace, day_bundle(), policy="joint")
        with pytest.raises(AttributeError):
            summary.records[0].e = 1.0
        with pytest.raises(AttributeError):
            summary.final_state.z = 1.0

        assert all(type(r) is SlotRecord for r in summary.records)
        states = [summary.initial_state, summary.state_at_horizon, summary.final_state, *returned["update_queues"]]
        assert len(states) == 3 + len(summary.records)
        assert all(type(s) is ControllerState for s in states)
        assert len(returned["energy_control"]) == len(summary.records)
        assert all(type(a) is tuple and len(a) == 5 for a in returned["energy_control"])
        # `_make` checks the arity that a bare `tuple.__new__` would not.
        with pytest.raises(TypeError):
            SlotRecord._make(tuple(summary.records[0])[:17])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _default_config(tmp_path: Path, **experiment) -> Path:
    """Copy of configs/default.yaml with `experiment` keys overridden."""
    cfg = yaml.safe_load(DEFAULT.read_text())
    cfg["experiment"].update(experiment)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestGoldenOutputs:
    """SHA-256 digests of the files the CLI writes on the default config.

    Any change to a decision rule, the slot loop, the cost accounting or the
    output formats moves them; a change meant to keep outputs byte-identical
    must leave them as they are. Seeds 0 and 2 complete under every policy,
    and seed 3 is truly infeasible for the no-storage baseline, so none of
    these inputs depends on how the energy rule handles the grid cap.
    """

    RUNS = {  # (seed, policy) -> (records.csv, summary.txt)
        (0, "joint"): (
            "a2be868b3ed409f33c157eebeb50ad2c5db4f386f30403f16fedad57f851d86c",
            "003db2e05f6233715533aec8fa3df2a7dc0e97685ecf6fb66395d47c30900f47",
        ),
        (0, "storage_only"): (
            "21b07991865c4f80870c8abf4d09cad49109b94c7ad0417a948d21dd1da9c5ca",
            "be6be6cfa17d9ded1c5ab5b573934db155274afacc5b4f32a40e9a1c9f8bf6f9",
        ),
        (0, "no_storage"): (
            "bb8d436d3a625d5d2d01f18cd188bcaffb698a18d6242549cb419ed9f96de1fb",
            "abb307924729d71208cdf113376268aea7e487eebbab2a689b242f50f0308ac8",
        ),
        (2, "joint"): (
            "0266fe2d8f06df5794c460952c4163900c2434d01fc594faf7d21e0df2b8b0af",
            "04ba07e25ad8b5c2e324df7a263f8dbb0323fa9d554c6acf5df4cb183d132203",
        ),
        (2, "storage_only"): (
            "554043be2555b687e6afe3101e581f2966fc2d665ce984b232c5713a572fac60",
            "ba0a3cde7c8393e63262700b4209a75d438dd9f7eb2fd27d458819a954b86cd7",
        ),
        (2, "no_storage"): (
            "b30dde17775e279654202c214ff8828a9f917e75f0ab9a839cf6f4482bce8175",
            "f7772ed3d87d447833ac348154f769865253a555957f0cd7144bd9b340d3c798",
        ),
    }

    @pytest.mark.parametrize("seed, policy", sorted(RUNS))
    def test_run_outputs(self, tmp_path, seed, policy):
        config = _default_config(tmp_path, policies=[policy])
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--seed", str(seed), "--out", str(out)]) == 0
        assert (_sha256(out / "records.csv"), _sha256(out / "summary.txt")) == self.RUNS[seed, policy]

    def test_no_storage_infeasible_message(self):
        spec = load_experiment(DEFAULT)
        trace = generate_trace(spec.profile, spec.bundle.horizon, seed=3)
        with pytest.raises(InfeasibleSlot) as err:
            run_policy(trace, spec.bundle, "no_storage")
        assert hashlib.sha256(str(err.value).encode()).hexdigest() == (
            "c56307860c45e6d046f23111477bfd7f78fadeca36226548a44e7b52eb806f3c"
        )

    def test_sweep_output(self, tmp_path):
        config = _default_config(tmp_path, replications=1)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
        assert _sha256(out / "sweep.csv") == "31ce72e25aba770f8bd0d5b3ca558d4038d912e4c214b21875fe3cc0a17d006c"
