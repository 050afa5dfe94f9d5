"""Trace generation, the stage pattern, and the trace CSV round trip."""

import dataclasses

import pytest

from emsched.model import GridParams
from emsched.scenario import (
    LoadTask,
    SlotInput,
    StageProfile,
    Trace,
    TraceFormatError,
    generate_trace,
    load_trace,
    save_trace,
    validate_trace,
)

SLOTS_PER_DAY = 288  # five-minute slots


def hourly_profile(**overrides) -> StageProfile:
    return StageProfile(slot_minutes=60, **overrides)


class TestGeneration:
    def test_same_seed_same_trace(self):
        a = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=42)
        b = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=42)
        assert a == b

    def test_different_seed_different_draws(self):
        a = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=1)
        b = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=2)
        assert a != b

    def test_prices_take_exactly_three_stage_values(self):
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=0)
        assert {s.price for s in trace.slots} == {0.118, 0.099, 0.063}

    def test_price_pattern_repeats_daily(self):
        trace = generate_trace(StageProfile(), 2 * SLOTS_PER_DAY, seed=0)
        for t in range(SLOTS_PER_DAY):
            assert trace.slots[t].price == trace.slots[t + SLOTS_PER_DAY].price

    def test_stage_windows_by_hour(self):
        profile = hourly_profile()
        trace = generate_trace(profile, 24, seed=0)
        assert trace.slots[12].price == profile.price_high   # 12:00, peak window
        assert trace.slots[7].price == profile.price_mid     # 07:00, shoulder
        assert trace.slots[17].price == profile.price_mid    # 17:00, shoulder
        assert trace.slots[3].price == profile.price_low     # night
        assert trace.slots[19].price == profile.price_low    # after the shoulder

    def test_zero_variance_profile_hits_stage_means(self):
        profile = hourly_profile(
            solar_std_ratio=0.0, load_std_ratio=0.0, duration_min=1, duration_max=1
        )
        trace = generate_trace(profile, 24, seed=7)
        slot = trace.slots[3]  # night stage
        assert slot.renewable == pytest.approx(profile.solar_mean_low, abs=1e-9)
        assert slot.task.duration == 1
        assert slot.task.intensity == pytest.approx(profile.load_mean_low, abs=1e-9)

    def test_every_slot_carries_one_task(self):
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=3)
        for s in trace.slots:
            assert s.task is not None
            assert s.task.arrival_slot == s.slot
            assert s.task.max_delay == 18

    def test_draws_are_clamped_nonnegative(self):
        noisy = StageProfile(solar_std_ratio=5.0, load_std_ratio=5.0)
        trace = generate_trace(noisy, SLOTS_PER_DAY, seed=11)
        assert all(s.renewable >= 0.0 for s in trace.slots)
        assert all(s.task.intensity >= 0.0 for s in trace.slots)

    def test_durations_within_configured_bounds(self):
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=5)
        assert all(1 <= s.task.duration <= 12 for s in trace.slots)

    def test_generated_trace_validates_against_grid_defaults(self):
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=9)
        assert validate_trace(trace, GridParams()) == []

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(StageProfile(), 0, seed=0)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(StageProfile(duration_min=0), 24, seed=0)
        with pytest.raises(ValueError):
            generate_trace(StageProfile(price_low=0.2), 24, seed=0)  # low above high


class TestTraceInvariants:
    def test_slots_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            Trace(slots=(SlotInput(slot=1, price=0.1, renewable=0.0),))

    def test_task_arrival_must_match_position(self):
        task = LoadTask(arrival_slot=3, intensity=0.1, duration=1, max_delay=0)
        with pytest.raises(ValueError, match="arrival_slot"):
            Trace(slots=(SlotInput(slot=0, price=0.1, renewable=0.0, task=task),))

    def test_task_invariants(self):
        with pytest.raises(ValueError, match="duration"):
            LoadTask(arrival_slot=0, intensity=0.1, duration=0, max_delay=0)
        with pytest.raises(ValueError, match="intensity"):
            LoadTask(arrival_slot=0, intensity=-0.1, duration=1, max_delay=0)
        with pytest.raises(ValueError, match="max_delay"):
            LoadTask(arrival_slot=0, intensity=0.1, duration=1, max_delay=-1)

    def test_max_task_delay_defaults_to_zero_without_tasks(self):
        trace = Trace(slots=(SlotInput(slot=0, price=0.1, renewable=0.0),))
        assert trace.max_task_delay() == 0

    def test_validate_trace_reports_price_and_sign_violations(self):
        task = LoadTask(arrival_slot=1, intensity=0.1, duration=1, max_delay=0)
        trace = Trace(
            slots=(
                SlotInput(slot=0, price=0.2, renewable=0.0),
                SlotInput(slot=1, price=0.1, renewable=0.0, task=task),
                SlotInput(slot=2, price=0.1, renewable=float("nan")),
                SlotInput(slot=3, price=0.1, renewable=float("inf")),
            )
        )
        problems = validate_trace(trace, GridParams(p_min=0.063, p_max=0.118))
        assert len(problems) == 3 and "slot 0" in problems[0] and "slot 2: renewable nan" in problems[1]
        assert "slot 3: renewable inf" in problems[2]

    def test_validate_trace_empty_is_vacuously_clean(self):
        assert validate_trace(Trace(slots=()), GridParams()) == []


class TestTraceFiles:
    def test_round_trip_equality(self, tmp_path):
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=13)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_generated_values_are_python_floats_like_a_loaded_trace(self, tmp_path):
        """A generated trace holds the types a loaded one does, so it equals
        its saved-and-loaded copy value for value and type for type."""
        trace = generate_trace(StageProfile(), SLOTS_PER_DAY, seed=13)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        slot_types = {"slot": int, "price": float, "renewable": float}
        task_types = {"arrival_slot": int, "intensity": float, "duration": int, "max_delay": int}
        assert list(task_types) == [f.name for f in dataclasses.fields(LoadTask)]
        for generated, read in zip(trace.slots, loaded.slots, strict=True):
            for name, kind in slot_types.items():
                a, b = getattr(generated, name), getattr(read, name)
                assert a == b and type(a) is type(b) is kind, name
            for name, kind in task_types.items():
                a, b = getattr(generated.task, name), getattr(read.task, name)
                assert a == b and type(a) is type(b) is kind, f"task.{name}"

    def test_header_is_the_documented_schema(self, tmp_path):
        trace = generate_trace(StageProfile(), 4, seed=0)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == "slot,price,renewable,intensity,duration,max_delay"

    def test_small_hand_written_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "slot,price,renewable,intensity,duration,max_delay\n"
            "0,0.118,0.0,0.1,2,3\n"
            "1,0.099,0.5,,,\n"
            "2,0.063,0.0,0.05,1,0\n"
        )
        trace = load_trace(path)
        assert trace.horizon == 3
        assert trace.slots[0].task == LoadTask(arrival_slot=0, intensity=0.1, duration=2, max_delay=3)
        assert trace.slots[1].task is None

    @pytest.mark.parametrize(
        "rows, fragment",
        [
            ("slot,price\n", "header"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,0.0,0.1,0,3\n", "line 2"),
            ("slot,price,renewable,intensity,duration,max_delay\n5,0.1,0.0,,,\n", "contiguous"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,abc,0.0,,,\n", "line 2"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,-0.5,,,\n", "renewable"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,nan,,,\n", "line 2: renewable"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,0.0,nan,1,0\n", "line 2: intensity"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,inf,,,\n", "line 2: renewable"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,0.0,inf,1,0\n", "line 2: intensity"),
            ("slot,price,renewable,intensity,duration,max_delay\n0,0.1,0.0,0.1,2\n", "fields"),
        ],
    )
    def test_malformed_files_rejected_with_line_numbers(self, tmp_path, rows, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        with pytest.raises(TraceFormatError, match=fragment):
            load_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty"):
            load_trace(path)
