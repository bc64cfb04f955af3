"""Deterministic simulation of the positioning network.

Produces exactly what a live deployment would hand the engine: a stream of
timestamped ToA reports, where every timestamp was read from the receiving
anchor's own imperfect clock.  Transmissions follow the global schedule
(tags blink every ``blink_period``, CCP rounds start every ``ccp_period``
and cascade down the master levels), receptions happen one propagation
delay later, and all randomness comes from the scenario seed.

Ground truth is written as JSON lines too, one ``TruthBlink`` or
``TruthClock`` record per line (``encode_truth``), and read back as report
lines are: one ``json.loads`` per block and ``protocol``'s column checks
(``decode_truths``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .clock import ClockArrays, read_clock
from .constants import SPEED_OF_LIGHT
from .protocol import (
    BLINK_RX,
    CCP_RX,
    CCP_TX,
    SEQ_WRAP,
    ReportColumns,
    check_id,
    check_number,
    check_seq,
    json_columns,
    json_number,
    json_records,
    json_string,
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
        for name in ("duration", "blink_period", "ccp_period", "lag"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ScenarioError(f"{name} must be > 0 and finite, got {value!r}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed!r}")
        radius = self.reception_radius
        if radius is not None and not 0 < radius < math.inf:
            raise ScenarioError(f"reception_radius must be > 0 and finite when given, got {radius!r}")
        tag_ids = [t.id for t in self.tags]
        if len(set(tag_ids)) != len(tag_ids):
            raise ScenarioError("duplicate tag ids")
        known_anchors = set(self.topology.ids())
        if set(tag_ids) & known_anchors:
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
                unknown = set(receivers) - known_anchors
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


@dataclass(frozen=True, slots=True)
class TruthBlink:
    tag_id: str
    seq: int
    time: float
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class TruthClock:
    anchor_id: str
    offset: float
    skew: float
    drift_rate: float
    jitter_std: float


@dataclass(frozen=True)
class SimResult:
    reports: ReportColumns
    truth_blinks: tuple[TruthBlink, ...]
    truth_clocks: tuple[TruthClock, ...]


_TRUTH_RECORDS = {"blink": TruthBlink, "clock": TruthClock}
_TRUTH_FIELDS = {  # each kind's fields, in record order, and the check of each
    "blink": {"tag_id": check_id, "seq": check_seq,
              **dict.fromkeys(("time", "x", "y"), check_number)},
    "clock": {"anchor_id": check_id,
              **dict.fromkeys(("offset", "skew", "drift_rate", "jitter_std"), check_number)},
}


def encode_truth(record: TruthBlink | TruthClock) -> str:
    """One ground-truth record as a compact JSON line: its kind, then its
    fields, as ``json.dumps`` writes them."""
    if isinstance(record, TruthBlink):
        return (
            f'{{"kind":"blink","tag_id":{json_string(record.tag_id)},'
            f'"seq":{json_number(record.seq)},"time":{json_number(record.time)},'
            f'"x":{json_number(record.x)},"y":{json_number(record.y)}}}'
        )
    return (
        f'{{"kind":"clock","anchor_id":{json_string(record.anchor_id)},'
        f'"offset":{json_number(record.offset)},"skew":{json_number(record.skew)},'
        f'"drift_rate":{json_number(record.drift_rate)},'
        f'"jitter_std":{json_number(record.jitter_std)}}}'
    )


def decode_truths(lines: Sequence[str]) -> list[TruthBlink | TruthClock]:
    """Parse truth lines into records, in line order, with ``json_records``
    and each kind's ``json_columns``: ids must be plain ids, ``seq`` an int in
    [0, 2**32) and every other field a finite number; ``ValueError`` if not."""
    kinds, rows = json_records(lines, _TRUTH_FIELDS)
    records = {}  # each kind's records, in line order
    for kind, checks in _TRUTH_FIELDS.items():
        group = [row for row, k in zip(rows, kinds) if k == kind]
        records[kind] = map(_TRUTH_RECORDS[kind], *json_columns(group, checks))
    return [next(records[kind]) for kind in kinds]


def decode_truth(line: str) -> TruthBlink | TruthClock:
    """Parse one truth line; a malformed line raises ``ValueError``."""
    return decode_truths([line])[0]


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
    """Simulate one scenario into report columns plus ground truth.

    Identical scenarios (same seed included) produce identical output, byte
    for byte once encoded: events are generated in a fixed global order and
    all clock jitter is drawn from one seeded generator in that order.
    Events are built as columns and sorted by (true time, anchor id, kind,
    source id, seq); ids are coded in sorted order and kind codes follow
    the kinds' string order, so sorting the codes sorts the ids.
    """
    from array import array  # here, not at import: only a simulation pays for it

    topo = scenario.topology
    rng = np.random.default_rng(scenario.seed)
    anchor_ids = topo.ids()
    positions = [a.xy() for a in topo.anchors]
    ids = sorted({*anchor_ids, *(tag.id for tag in scenario.tags)})
    code = {value: i for i, value in enumerate(ids)}

    # One row per report to emit: true event time, the receiving anchor's
    # index in ``topo.anchors``, kind code, source id code and seq.
    times, receivers, kinds, srcs, seqs = (
        array("d"), array("q"), array("b"), array("q"), array("q"))
    truth_blinks: list[TruthBlink] = []

    def emit(time: float, receiver: int, kind: int, src: int, seq: int) -> None:
        times.append(time)
        receivers.append(receiver)
        kinds.append(kind)
        srcs.append(src)
        seqs.append(seq)

    k = 0
    while True:
        t = k * scenario.blink_period
        if t >= scenario.duration:
            break
        for tag in scenario.tags:
            pos = tag.trajectory.position_at(t)
            seq = k % SEQ_WRAP
            truth_blinks.append(TruthBlink(tag.id, seq, t, pos[0], pos[1]))
            for i, anchor_id in enumerate(anchor_ids):
                if scenario._receives_blink(tag.id, anchor_id, pos):
                    ax, ay = positions[i]
                    arrival = t + math.hypot(ax - pos[0], ay - pos[1]) / SPEED_OF_LIGHT
                    emit(arrival, i, BLINK_RX, code[tag.id], seq)
        k += 1

    j = 0
    while True:
        round_start = j * scenario.ccp_period
        if round_start >= scenario.duration:
            break
        seq = j % SEQ_WRAP
        for master, tx_time in schedule_ccp_cascade(topo, round_start, scenario.lag):
            emit(tx_time, anchor_ids.index(master), CCP_TX, code[master], seq)
            for i, anchor_id in enumerate(anchor_ids):
                if scenario._receives_ccp(master, anchor_id):
                    arrival = tx_time + topo.baseline(master, anchor_id) / SPEED_OF_LIGHT
                    emit(arrival, i, CCP_RX, code[master], seq)
        j += 1

    time, receiver, kind, src, seq = map(np.array, (times, receivers, kinds, srcs, seqs))
    anchor = np.array([code[anchor_id] for anchor_id in anchor_ids], np.int64)[receiver]
    order = np.lexsort((seq, src, kind, anchor, time))
    clocks = ClockArrays.gather([a.clock for a in topo.anchors], receiver[order])
    ticks = read_clock(clocks, time[order], rng)
    # Only the ids some report holds stay in the id table.
    used, codes = np.unique(np.concatenate((anchor[order], src[order])), return_inverse=True)
    anchor_code, src_code = np.split(codes.astype(np.int32), 2)
    reports = ReportColumns(tuple(ids[i] for i in used.tolist()), anchor_code,
                            kind[order].astype(np.int8), src_code, seq[order], ticks)
    truth_clocks = tuple(
        TruthClock(a.id, a.clock.offset, a.clock.skew, a.clock.drift_rate, a.clock.jitter_std)
        for a in topo.anchors
    )
    return SimResult(reports, tuple(truth_blinks), truth_clocks)
