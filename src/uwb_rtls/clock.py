"""Device clock models and wrap-safe arithmetic on the 40-bit tick counter.

Anchors timestamp radio events with a free-running counter clocked at
63.8976 GHz (one tick is roughly 15.65 ps).  The counter is 40 bits wide, so
it wraps about every 17.2 s, and every anchor's counter runs on its own
crystal with its own phase offset, frequency error, and drift.  This module
models that behaviour for the simulator and provides the modular arithmetic
the synchronization engine needs to difference raw counter readings.

A reading is a plain float: device ticks modulo ``TICK_WRAP``, in
[0, 2**40), with a fractional part.  The counter quantum is
``TICK_SECONDS``, but readings keep sub-tick resolution so that
synchronization error budgets are set by the clock models, not by
representation rounding.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import NamedTuple, Sequence

import numpy as np

# One device tick: 1 / (128 * 499.2 MHz).
TICK_SECONDS = 1.0 / (128 * 499.2e6)

# The tick counter is 40 bits wide; readings wrap modulo this value.
TICK_WRAP = 2**40
HALF_WRAP = 2**39

# Crystals are specified to +/-100 ppm; a model outside that band is a bug,
# not a plausible clock.
MAX_ABS_SKEW = 100e-6


@dataclass(frozen=True)
class ClockModel:
    """Deviation of one device timer from global true time.

    offset      initial phase, seconds
    skew        fractional frequency error (10e-6 is "+10 ppm")
    drift_rate  change of skew per second of true time (temperature wander)
    jitter_std  white phase noise per reading, seconds

    All four must be finite; a broken rule raises ValueError naming the field.
    """

    offset: float = 0.0
    skew: float = 0.0
    drift_rate: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if abs(self.skew) > MAX_ABS_SKEW:
            raise ValueError(f"skew {self.skew!r} exceeds +/-{MAX_ABS_SKEW} sanity bound")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")


IDEAL_CLOCK = ClockModel()


class ClockArrays(NamedTuple):
    """The ``ClockModel`` fields of many readings, one array entry per reading."""

    offset: np.ndarray
    skew: np.ndarray
    drift_rate: np.ndarray
    jitter_std: np.ndarray

    @classmethod
    def gather(cls, models: Sequence[ClockModel], index: np.ndarray) -> ClockArrays:
        """The fields of ``models[index[i]]`` for every reading ``i``."""
        table = np.array([astuple(m) for m in models], dtype=float).reshape(-1, 4)
        return cls(*table[index].T)


def device_time(
    model: ClockModel | ClockArrays, true_time: float | np.ndarray
) -> float | np.ndarray:
    """Noise-free device seconds shown by ``model`` at a given true time."""
    return (
        model.offset
        + (1.0 + model.skew) * true_time
        + 0.5 * model.drift_rate * true_time * true_time
    )


def read_clock(
    model: ClockModel | ClockArrays,
    true_time: float | np.ndarray,
    rng: np.random.Generator | None = None,
) -> float | np.ndarray:
    """Sample the device timer at ``true_time`` as a wrapped tick count.

    The reading is ``offset + (1 + skew) * t + drift_rate / 2 * t**2`` plus
    Gaussian jitter, converted to ticks and wrapped into [0, 2**40).
    ``true_time`` must be finite and >= 0.  Jittery models need an ``rng``;
    deterministic models do not.

    Given an array of true times and a ``ClockArrays`` of matching
    per-reading fields, it returns the array of readings.  They are bit for
    bit the scalar readings taken one at a time in array order: the jitter
    of the readings with ``jitter_std > 0`` is drawn in one call, in order.
    """
    times = np.atleast_1d(np.asarray(true_time, dtype=float))
    valid = (times >= 0.0) & (times < math.inf)  # NaN fails too
    if not valid.all():
        bad = float(times[~valid][0])
        raise ValueError(f"true_time must be >= 0 and finite, got {bad!r}")
    seconds = device_time(model, times)
    jitter = np.broadcast_to(model.jitter_std, times.shape)
    jittery = jitter > 0.0
    if jittery.any():
        if rng is None:
            raise ValueError("model has jitter_std > 0 but no rng was provided")
        seconds[jittery] += rng.normal(0.0, jitter[jittery])
    ticks = np.fmod(seconds / TICK_SECONDS, TICK_WRAP)
    ticks[ticks < 0.0] += TICK_WRAP
    ticks[ticks >= TICK_WRAP] = 0.0  # fmod(-eps) + TICK_WRAP can round up to the modulus
    return ticks if np.ndim(true_time) else float(ticks[0])


def ts_diff(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """Signed tick delta ``a - b`` on the wrapping counter.

    Valid while the true separation is under 2**39 ticks (about 8.6 s): in
    that regime wrap crossings cancel and ``ts_diff(a, b) == -ts_diff(b, a)``.
    Elementwise on arrays; a float on floats; NaN for a non-finite reading.
    """
    with np.errstate(invalid="ignore"):
        delta = np.fmod(np.subtract(a, b), TICK_WRAP)
    delta = np.where(delta >= HALF_WRAP, delta - TICK_WRAP,
                     np.where(delta < -HALF_WRAP, delta + TICK_WRAP, delta))
    return delta if delta.ndim else float(delta)
