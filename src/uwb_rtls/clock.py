"""Device clock models and wrap-safe arithmetic on the 40-bit tick counter.

Anchors timestamp radio events with a free-running counter clocked at
63.8976 GHz (one tick is roughly 15.65 ps).  The counter is 40 bits wide, so
it wraps about every 17.2 s, and every anchor's counter runs on its own
crystal with its own phase offset, frequency error, and drift.  This module
models that behaviour for the simulator and provides the modular arithmetic
the synchronization engine needs to difference raw counter readings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class Timestamp:
    """One reading of a device tick counter.

    ``ticks`` counts device ticks modulo ``TICK_WRAP`` and may carry a
    fractional part: the counter quantum is ``TICK_SECONDS`` but readings
    keep sub-tick resolution so that synchronization error budgets are set
    by the clock models, not by representation rounding.
    """

    ticks: float

    def __post_init__(self) -> None:
        if not 0 <= self.ticks < TICK_WRAP:
            raise ValueError(f"ticks must lie in [0, 2**40), got {self.ticks!r}")


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


def device_time(model: ClockModel, true_time: float) -> float:
    """Noise-free device seconds shown by ``model`` at a given true time."""
    return (
        model.offset
        + (1.0 + model.skew) * true_time
        + 0.5 * model.drift_rate * true_time * true_time
    )


def read_clock(
    model: ClockModel, true_time: float, rng: np.random.Generator | None = None
) -> Timestamp:
    """Sample the device timer at ``true_time`` as a wrapped tick count.

    The reading is ``offset + (1 + skew) * t + drift_rate / 2 * t**2`` plus
    Gaussian jitter, converted to ticks and wrapped modulo 2**40.  Jittery
    models need an ``rng``; deterministic models do not.
    """
    if true_time < 0:
        raise ValueError("true_time must be >= 0")
    seconds = device_time(model, true_time)
    if model.jitter_std > 0.0:
        if rng is None:
            raise ValueError("model has jitter_std > 0 but no rng was provided")
        seconds += rng.normal(0.0, model.jitter_std)
    ticks = math.fmod(seconds / TICK_SECONDS, TICK_WRAP)
    if ticks < 0.0:
        ticks += TICK_WRAP
    if ticks >= TICK_WRAP:  # fmod(-eps) + TICK_WRAP can round up to the modulus
        ticks = 0.0
    return Timestamp(ticks)


def ts_diff(a: Timestamp, b: Timestamp) -> float:
    """Signed tick delta ``a - b`` on the wrapping counter.

    Valid while the true separation is under 2**39 ticks (about 8.6 s): in
    that regime wrap crossings cancel and ``ts_diff(a, b) == -ts_diff(b, a)``.
    """
    delta = math.fmod(a.ticks - b.ticks, TICK_WRAP)
    if delta >= HALF_WRAP:
        delta -= TICK_WRAP
    elif delta < -HALF_WRAP:
        delta += TICK_WRAP
    return delta
