"""Trace generation, the stage pattern, and the trace CSV round trip."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def stage_arrays_by_slot(profile: StageProfile, horizon: int) -> tuple[np.ndarray, ...]:
    """The reference for `StageProfile._stage_arrays`: each slot's stage
    looked up on its own, high windows first."""

    def stage(slot: int) -> str:
        hour = (slot * profile.slot_minutes / 60.0) % 24.0
        for lo, hi in profile.high_hours:
            if lo <= hour < hi:
                return "high"
        for lo, hi in profile.mid_hours:
            if lo <= hour < hi:
                return "mid"
        return "low"

    price = np.empty(horizon)
    solar = np.empty(horizon)
    load = np.empty(horizon)
    by_stage = {
        "high": (profile.price_high, profile.solar_mean_high, profile.load_mean_high),
        "mid": (profile.price_mid, profile.solar_mean_mid, profile.load_mean_mid),
        "low": (profile.price_low, profile.solar_mean_low, profile.load_mean_low),
    }
    for t in range(horizon):
        price[t], solar[t], load[t] = by_stage[stage(t)]
    return price, solar, load


# Window edges: any hour, or a whole minute, so that edges often fall exactly
# on a slot's start; 0.0 and 24.0 are drawn on purpose.
_HOUR_EDGES = st.one_of(
    st.floats(min_value=0.0, max_value=24.0),
    st.integers(min_value=0, max_value=24 * 60).map(lambda minute: minute / 60.0),
    st.sampled_from([0.0, 24.0]),
)
_WINDOWS = st.lists(
    st.tuples(_HOUR_EDGES, _HOUR_EDGES).filter(lambda edges: edges[0] != edges[1]).map(sorted).map(tuple),
    max_size=3,
).map(tuple)


@given(
    slot_minutes=st.integers(min_value=1, max_value=90),
    horizon=st.integers(min_value=1, max_value=1000),
    high_hours=_WINDOWS,
    mid_hours=_WINDOWS,
)
def test_stage_arrays_equal_the_per_slot_lookup(slot_minutes, horizon, high_hours, mid_hours):
    profile = StageProfile(slot_minutes=slot_minutes, high_hours=high_hours, mid_hours=mid_hours)
    profile.validate()
    for got, want in zip(profile._stage_arrays(horizon), stage_arrays_by_slot(profile, horizon), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("made_by", ["positional", "keyword", "_replace", "_make"])
    @pytest.mark.parametrize(
        "field, bad",
        [("duration", 0), ("intensity", -0.1), ("intensity", math.inf), ("intensity", math.nan), ("max_delay", -1)],
    )
    def test_task_refuses_a_bad_field_however_made(self, made_by, field, bad):
        good = dict(arrival_slot=0, intensity=0.1, duration=1, max_delay=0)
        values = {**good, field: bad}
        build = {
            "positional": lambda: LoadTask(*values.values()),
            "keyword": lambda: LoadTask(**values),
            "_replace": lambda: LoadTask(**good)._replace(**{field: bad}),
            "_make": lambda: LoadTask._make(values.values()),
        }[made_by]
        with pytest.raises(ValueError, match=f"^{field} >= "):
            build()

    def test_task_replace_keeps_the_type_and_the_other_fields(self):
        task = LoadTask(arrival_slot=4, intensity=0.1, duration=2, max_delay=3)
        capped = task._replace(max_delay=0)
        assert type(capped) is LoadTask
        assert capped == LoadTask(arrival_slot=4, intensity=0.1, duration=2, max_delay=0)

    def test_task_and_slot_fields_cannot_be_set(self):
        task = LoadTask(arrival_slot=0, intensity=0.1, duration=1, max_delay=0)
        slot = SlotInput(slot=0, price=0.1, renewable=0.0, task=task)
        for target, name in [(task, "duration"), (task, "unknown"), (slot, "task"), (slot, "unknown")]:
            with pytest.raises(AttributeError):
                setattr(target, name, None)

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
        assert list(task_types) == list(LoadTask._fields)
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
