"""Deterministic simulation of the positioning network.

Produces exactly what a live deployment would hand the engine: a stream of
timestamped ToA reports, where every timestamp was read from the receiving
anchor's own imperfect clock.  Transmissions follow the global schedule
(tags blink every ``blink_period``, CCP rounds start every ``ccp_period``
and cascade down the master levels), receptions happen one propagation
delay later, and all randomness comes from the scenario seed.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .clock import read_clock
from .constants import SPEED_OF_LIGHT
from .protocol import (
    KIND_BLINK_RX,
    KIND_CCP_RX,
    KIND_CCP_TX,
    SEQ_WRAP,
    ToaReport,
)
from .topology import NetworkTopology


class ScenarioError(ValueError):
    """The scenario description is invalid."""


class CollisionScheduleError(ScenarioError):
    """Two CCP transmissions in one round are too close together."""


# ---------------------------------------------------------------------------
# Tag motion


@dataclass(frozen=True)
class StaticTrajectory:
    position: tuple[float, float]

    def position_at(self, t: float) -> tuple[float, float]:
        return self.position


@dataclass(frozen=True)
class ConstantVelocityTrajectory:
    start: tuple[float, float]
    velocity: tuple[float, float]

    def position_at(self, t: float) -> tuple[float, float]:
        return (self.start[0] + self.velocity[0] * t, self.start[1] + self.velocity[1] * t)


@dataclass(frozen=True)
class WaypointTrajectory:
    """Piecewise-linear motion through (time, (x, y)) waypoints, clamped at
    both ends."""

    waypoints: tuple[tuple[float, tuple[float, float]], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ScenarioError("waypoint trajectory needs at least two points")
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("waypoint times must be strictly increasing")
        object.__setattr__(self, "_times", tuple(times))

    def position_at(self, t: float) -> tuple[float, float]:
        if t <= self._times[0]:
            return self.waypoints[0][1]
        if t >= self._times[-1]:
            return self.waypoints[-1][1]
        i = bisect_right(self._times, t) - 1
        t0, p0 = self.waypoints[i]
        t1, p1 = self.waypoints[i + 1]
        w = (t - t0) / (t1 - t0)
        return (p0[0] + w * (p1[0] - p0[0]), p0[1] + w * (p1[1] - p0[1]))


Trajectory = StaticTrajectory | ConstantVelocityTrajectory | WaypointTrajectory


@dataclass(frozen=True)
class TagSpec:
    id: str
    trajectory: Trajectory


# ---------------------------------------------------------------------------
# Scenario


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one reproducible run.

    ``reception_radius`` of None means unlimited range.  ``ccp_links`` and
    ``blink_links`` optionally pin reception down to explicit adjacency
    (master -> receiving anchors, tag -> receiving anchors), overriding the
    radius rule for that traffic.
    """

    topology: NetworkTopology
    tags: tuple[TagSpec, ...]
    duration: float
    blink_period: float = 0.1
    ccp_period: float = 0.15
    lag: float = 0.01
    seed: int = 0
    reception_radius: float | None = None
    ccp_links: Mapping[str, frozenset[str]] | None = None
    blink_links: Mapping[str, frozenset[str]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        if self.ccp_links is not None:
            object.__setattr__(
                self, "ccp_links", {k: frozenset(v) for k, v in dict(self.ccp_links).items()}
            )
        if self.blink_links is not None:
            object.__setattr__(
                self, "blink_links", {k: frozenset(v) for k, v in dict(self.blink_links).items()}
            )
        self.validate()

    def validate(self) -> None:
        self.topology.validate()
        for name in ("duration", "blink_period", "ccp_period", "lag"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ScenarioError(f"{name} must be > 0 and finite, got {value!r}")
        radius = self.reception_radius
        if radius is not None and not 0 < radius < math.inf:
            raise ScenarioError(f"reception_radius must be > 0 and finite when given, got {radius!r}")
        tag_ids = [t.id for t in self.tags]
        if len(set(tag_ids)) != len(tag_ids):
            raise ScenarioError("duplicate tag ids")
        anchor_ids = set(self.topology.ids())
        if set(tag_ids) & anchor_ids:
            raise ScenarioError("tag ids must not collide with anchor ids")

        slots = [self.topology.lag_slots.get(m, 0) for m in self.topology.masters()]
        max_slot = max(slots, default=0)
        if self.lag * (max_slot + 1) >= self.ccp_period:
            raise ScenarioError(
                f"lag schedule overruns the CCP round: lag * (max slot + 1) = "
                f"{self.lag * (max_slot + 1):.6f} s >= ccp_period {self.ccp_period} s"
            )
        for links, kind in ((self.ccp_links, "ccp_links"), (self.blink_links, "blink_links")):
            if links is None:
                continue
            for src, receivers in links.items():
                unknown = set(receivers) - anchor_ids
                if unknown:
                    raise ScenarioError(
                        f"{kind}[{src!r}] references unknown anchors: {', '.join(sorted(unknown))}"
                    )
        # Followers that cannot hear their own master would never synchronize.
        for follower, masters in self.topology.follow.items():
            for master in masters:
                if not self._receives_ccp(master, follower):
                    raise ScenarioError(
                        f"anchor {follower!r} follows {master!r} but cannot receive its CCPs"
                    )

    def _receives_ccp(self, master: str, anchor: str) -> bool:
        if anchor == master:
            return False
        if self.ccp_links is not None:
            return anchor in self.ccp_links.get(master, frozenset())
        if self.reception_radius is not None:
            return self.topology.baseline(master, anchor) <= self.reception_radius
        return True

    def _receives_blink(self, tag_id: str, anchor: str, tag_pos: tuple[float, float]) -> bool:
        if self.blink_links is not None:
            return anchor in self.blink_links.get(tag_id, frozenset())
        if self.reception_radius is not None:
            ax, ay = self.topology.anchor(anchor).xy()
            return math.hypot(ax - tag_pos[0], ay - tag_pos[1]) <= self.reception_radius
        return True


# ---------------------------------------------------------------------------
# Ground truth records


@dataclass(frozen=True)
class TruthBlink:
    tag_id: str
    seq: int
    time: float
    x: float
    y: float


@dataclass(frozen=True)
class TruthClock:
    anchor_id: str
    offset: float
    skew: float
    drift_rate: float
    jitter_std: float


@dataclass(frozen=True)
class SimResult:
    reports: tuple[ToaReport, ...]
    truth_blinks: tuple[TruthBlink, ...]
    truth_clocks: tuple[TruthClock, ...]


_TRUTH_RECORDS = {"blink": TruthBlink, "clock": TruthClock}
_TRUTH_FIELDS = {kind: [f.name for f in fields(cls)] for kind, cls in _TRUTH_RECORDS.items()}


def encode_truth(record: TruthBlink | TruthClock) -> str:
    """One ground-truth record as a compact JSON line: its kind, then its fields."""
    kind = "blink" if isinstance(record, TruthBlink) else "clock"
    return json.dumps({"kind": kind, **vars(record)}, separators=(",", ":"))


def decode_truth(line: str) -> TruthBlink | TruthClock:
    """Parse one truth line; a malformed line raises ``ValueError``."""
    raw = json.loads(line)
    if not isinstance(raw, dict) or raw.get("kind") not in ("blink", "clock"):
        raise ValueError(f"not a blink or clock truth record: {line[:80]!r}")
    try:
        values = [raw[name] for name in _TRUTH_FIELDS[raw["kind"]]]
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    return _TRUTH_RECORDS[raw["kind"]](*values)


# ---------------------------------------------------------------------------
# Simulation


def schedule_ccp_cascade(
    topo: NetworkTopology, round_start: float, lag: float = 0.01
) -> list[tuple[str, float]]:
    """True transmission times of every master's CCP for one round.

    The primary fires at ``round_start``; every lower-level master fires its
    own CCP one slot-multiple of ``lag`` after receiving its upper master's.
    Transmissions closer than ``lag / 2`` are a collision.
    """
    tx_times: dict[str, float] = {}
    ordered = sorted(topo.masters(), key=lambda m: (topo.master_level[m], m))
    for m in ordered:
        if topo.master_level[m] == 1:
            tx_times[m] = round_start
        else:
            upper = topo.upper_master(m)
            propagation = topo.baseline(upper, m) / SPEED_OF_LIGHT
            slot = topo.lag_slots.get(m, 0)
            tx_times[m] = tx_times[upper] + propagation + slot * lag
    schedule = sorted(tx_times.items(), key=lambda kv: (kv[1], kv[0]))
    for (m_a, t_a), (m_b, t_b) in zip(schedule, schedule[1:]):
        if t_b - t_a < lag / 2:
            raise CollisionScheduleError(
                f"CCP transmissions of {m_a!r} and {m_b!r} are {t_b - t_a:.6f} s apart "
                f"(need >= {lag / 2:.6f} s)"
            )
    return schedule


def run_scenario(scenario: Scenario) -> SimResult:
    """Simulate one scenario into reports plus ground truth.

    Identical scenarios (same seed included) produce identical output, byte
    for byte once encoded: events are generated in a fixed global order and
    all clock jitter is drawn from one seeded generator in that order.
    """
    topo = scenario.topology
    rng = np.random.default_rng(scenario.seed)
    clocks = {a.id: a.clock for a in topo.anchors}
    positions = topo.positions()

    # (true_event_time, anchor, kind, src, seq) for every report to emit.
    events: list[tuple[float, str, str, str, int]] = []
    truth_blinks: list[TruthBlink] = []

    k = 0
    while True:
        t = k * scenario.blink_period
        if t >= scenario.duration:
            break
        for tag in scenario.tags:
            pos = tag.trajectory.position_at(t)
            seq = k % SEQ_WRAP
            truth_blinks.append(TruthBlink(tag.id, seq, t, pos[0], pos[1]))
            for anchor_id in topo.ids():
                if not scenario._receives_blink(tag.id, anchor_id, pos):
                    continue
                ax, ay = positions[anchor_id]
                arrival = t + math.hypot(ax - pos[0], ay - pos[1]) / SPEED_OF_LIGHT
                events.append((arrival, anchor_id, KIND_BLINK_RX, tag.id, seq))
        k += 1

    j = 0
    while True:
        round_start = j * scenario.ccp_period
        if round_start >= scenario.duration:
            break
        seq = j % SEQ_WRAP
        for master, tx_time in schedule_ccp_cascade(topo, round_start, scenario.lag):
            events.append((tx_time, master, KIND_CCP_TX, master, seq))
            for anchor_id in topo.ids():
                if not scenario._receives_ccp(master, anchor_id):
                    continue
                arrival = tx_time + topo.baseline(master, anchor_id) / SPEED_OF_LIGHT
                events.append((arrival, anchor_id, KIND_CCP_RX, master, seq))
        j += 1

    events.sort()
    reports = tuple(
        ToaReport(anchor_id, kind, src, seq, read_clock(clocks[anchor_id], t, rng))
        for t, anchor_id, kind, src, seq in events
    )
    truth_clocks = tuple(
        TruthClock(a.id, a.clock.offset, a.clock.skew, a.clock.drift_rate, a.clock.jitter_std)
        for a in topo.anchors
    )
    return SimResult(reports, tuple(truth_blinks), truth_clocks)
