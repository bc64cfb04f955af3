"""Counter arithmetic and the oscillator model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwb_rtls.clock import (
    HALF_WRAP,
    IDEAL_CLOCK,
    MAX_ABS_SKEW,
    TICK_SECONDS,
    TICK_WRAP,
    ClockArrays,
    ClockModel,
    device_time,
    read_clock,
    ts_diff,
)


def test_tick_is_about_15_65_picoseconds():
    assert TICK_SECONDS == pytest.approx(15.65e-12, rel=1e-3)
    assert TICK_SECONDS == 1.0 / (128 * 499.2e6)


def test_counter_wraps_after_about_17_seconds():
    assert TICK_WRAP * TICK_SECONDS == pytest.approx(17.2, abs=0.01)


def test_a_clock_model_holds_each_field_as_a_float():
    # So a truth clock line writes an int it was given as json.dumps writes a float.
    fields = vars(ClockModel(offset=1, skew=0, drift_rate=-0.0, jitter_std=1e-10))
    assert fields == {"offset": 1.0, "skew": 0.0, "drift_rate": 0.0, "jitter_std": 1e-10}
    assert [type(value) for value in fields.values()] == [float] * 4


def test_ideal_clock_reads_true_time():
    ts = read_clock(IDEAL_CLOCK, 1.0)
    assert ts == pytest.approx(1.0 / TICK_SECONDS, rel=1e-15)


def test_device_time_applies_offset_skew_and_drift():
    model = ClockModel(offset=0.5, skew=1e-5, drift_rate=2e-9)
    t = 3.0
    expected = 0.5 + (1 + 1e-5) * t + 0.5 * 2e-9 * t * t
    assert device_time(model, t) == pytest.approx(expected, rel=1e-15)


def test_plus_10ppm_clock_runs_fast():
    model = ClockModel(offset=0.0, skew=1e-5)
    assert device_time(model, 1.0) == pytest.approx(1.00001, rel=1e-12)


def test_read_clock_wraps_modulo_2_40():
    # 18 s of ideal time exceeds one counter period (about 17.2 s).
    ts = read_clock(IDEAL_CLOCK, 18.0)
    raw = 18.0 / TICK_SECONDS
    assert raw > TICK_WRAP
    assert ts == pytest.approx(raw - TICK_WRAP, rel=1e-12)
    assert 0 <= ts < TICK_WRAP


def test_read_clock_negative_true_time_rejected():
    with pytest.raises(ValueError):
        read_clock(IDEAL_CLOCK, -0.1)


@pytest.mark.parametrize("true_time", [math.nan, math.inf, -math.inf, -1.0])
def test_read_clock_rejects_true_time_that_is_negative_or_not_finite(true_time):
    with pytest.raises(ValueError, match="true_time"):
        read_clock(IDEAL_CLOCK, true_time)


def test_read_clock_negative_device_time_folds_into_range():
    # A negative offset models a counter whose phase predates t = 0; the
    # reading stays a valid wrapped tick count.
    model = ClockModel(offset=-1.0)
    ts = read_clock(model, 0.5)
    assert ts == pytest.approx(TICK_WRAP - 0.5 / TICK_SECONDS, rel=1e-12)


def test_read_clock_jitter_needs_rng():
    model = ClockModel(jitter_std=1e-10)
    with pytest.raises(ValueError):
        read_clock(model, 1.0)
    rng = np.random.default_rng(0)
    a = read_clock(model, 1.0, rng)
    b = read_clock(model, 1.0, rng)
    assert a != b


def test_skew_limited_to_100_ppm():
    ClockModel(skew=MAX_ABS_SKEW)
    with pytest.raises(ValueError):
        ClockModel(skew=MAX_ABS_SKEW * 1.01)
    with pytest.raises(ValueError):
        ClockModel(skew=-MAX_ABS_SKEW * 1.01)


def test_ts_diff_simple_and_wrapped():
    a = 100.0
    b = 40.0
    assert ts_diff(a, b) == 60.0
    assert ts_diff(b, a) == -60.0
    # Counter wrapped between b and a: a is "earlier" numerically but later
    # in time.
    near_top = float(TICK_WRAP - 10)
    past_wrap = 5.0
    assert ts_diff(past_wrap, near_top) == 15.0
    assert ts_diff(near_top, past_wrap) == -15.0


def test_ts_diff_of_a_non_finite_reading_is_nan():
    assert math.isnan(ts_diff(math.inf, 0.0))
    assert math.isnan(ts_diff(0.0, -math.inf))
    assert math.isnan(ts_diff(math.nan, 5.0))
    deltas = ts_diff(np.array([100.0, math.inf]), np.array([40.0, 0.0]))
    assert deltas[0] == 60.0 and math.isnan(deltas[1])


@given(
    base=st.integers(min_value=0, max_value=TICK_WRAP - 1),
    delta=st.integers(min_value=-(HALF_WRAP - 1), max_value=HALF_WRAP - 1),
)
def test_ts_diff_recovers_separation_across_wrap(base: int, delta: int):
    later = float((base + delta) % TICK_WRAP)
    earlier = float(base)
    assert ts_diff(later, earlier) == float(delta)


@given(
    a=st.integers(min_value=0, max_value=TICK_WRAP - 1),
    b=st.integers(min_value=0, max_value=TICK_WRAP - 1),
)
def test_ts_diff_antisymmetric_off_the_boundary(a: int, b: int):
    d = ts_diff(float(a), float(b))
    assert -HALF_WRAP <= d < HALF_WRAP
    if d != -HALF_WRAP:
        assert ts_diff(float(b), float(a)) == -d


@given(
    skew=st.floats(min_value=-MAX_ABS_SKEW, max_value=MAX_ABS_SKEW),
    t=st.floats(min_value=0.0, max_value=1e4),
    dt=st.floats(min_value=1e-6, max_value=1.0),
)
def test_device_time_monotonic_within_skew_limit(skew: float, t: float, dt: float):
    model = ClockModel(offset=1e-3, skew=skew)
    assert device_time(model, t + dt) > device_time(model, t)


def test_short_interval_measured_in_ticks_matches_truth():
    """Two reads 150 ms apart disagree from truth only by float rounding."""
    model = ClockModel(offset=0.004, skew=25e-6)
    t0, t1 = 2.0, 2.15
    d = ts_diff(read_clock(model, t1), read_clock(model, t0)) * TICK_SECONDS
    assert d == pytest.approx(0.15 * (1 + 25e-6), abs=1e-12)


def _scalar_reading(model: ClockModel, t: float, rng: np.random.Generator) -> float:
    """The reading in plain Python floats, one draw per jittery model."""
    seconds = model.offset + (1.0 + model.skew) * t + 0.5 * model.drift_rate * t * t
    if model.jitter_std > 0.0:
        seconds += rng.normal(0.0, model.jitter_std)
    ticks = math.fmod(seconds / TICK_SECONDS, TICK_WRAP)
    if ticks < 0.0:
        ticks += TICK_WRAP
    if ticks >= TICK_WRAP:
        ticks = 0.0
    return ticks


MIXED_CLOCKS = [
    ClockModel(offset=0.0012, skew=8e-6, jitter_std=1e-10),
    ClockModel(offset=-0.0034, skew=-1.2e-5),
    ClockModel(offset=16.9, skew=2.1e-5, drift_rate=3e-9, jitter_std=3e-10),
    ClockModel(offset=-1.0, skew=-9e-5, drift_rate=-2e-9),
    IDEAL_CLOCK,
    ClockModel(offset=-1e-30),  # at t = 0, fmod(-eps) + TICK_WRAP rounds up to TICK_WRAP
]


def test_array_reading_is_the_scalar_loop_bit_for_bit():
    gen = np.random.default_rng(5)
    index = gen.integers(0, len(MIXED_CLOCKS), 3000)
    times = np.sort(gen.uniform(0.0, 40.0, 3000))
    times[:2] = 0.0, 5e-324
    index[0] = len(MIXED_CLOCKS) - 1
    readings = read_clock(ClockArrays.gather(MIXED_CLOCKS, index), times, np.random.default_rng(9))

    loop_rng = np.random.default_rng(9)
    loop = [read_clock(MIXED_CLOCKS[i], t, loop_rng) for i, t in zip(index, times.tolist())]
    oracle_rng = np.random.default_rng(9)
    oracle = [_scalar_reading(MIXED_CLOCKS[i], t, oracle_rng)
              for i, t in zip(index, times.tolist())]
    assert readings.tobytes() == np.array(loop).tobytes() == np.array(oracle).tobytes()
    assert readings[0] == 0.0
    assert all(type(x) is float for x in loop)
    # The same number of draws on every path: the generators are in step.
    assert loop_rng.random() == oracle_rng.random()


def test_array_reading_checks_every_time_and_the_rng():
    clocks = ClockArrays.gather(MIXED_CLOCKS, np.array([1, 3, 4]))
    with pytest.raises(ValueError, match=r"true_time .* got nan"):
        read_clock(clocks, np.array([1.0, math.nan, 2.0]))
    with pytest.raises(ValueError, match=r"true_time .* got -1\.0"):
        read_clock(clocks, np.array([1.0, 2.0, -1.0]))
    assert read_clock(clocks, np.array([1.0, 2.0, 3.0])).shape == (3,)  # no jitter, no rng
    with pytest.raises(ValueError, match="rng"):
        read_clock(ClockArrays.gather(MIXED_CLOCKS, np.array([1, 0])), np.array([1.0, 2.0]))
