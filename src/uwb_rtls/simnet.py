"""Deterministic simulation of the positioning network.

Produces exactly what a live deployment would hand the engine: a stream of
timestamped ToA reports, where every timestamp was read from the receiving
anchor's own imperfect clock.  Transmissions follow the global schedule
(tags blink every ``blink_period``, CCP rounds start every ``ccp_period``
and cascade down the master levels), receptions happen one propagation
delay later, and all randomness comes from the scenario seed.

Reports and ground-truth blinks are built as columns, one array pass per
kind of traffic; ``cli`` writes and reads them as text.  A scenario whose
positions or clock readings overflow to a non-finite value raises
``ScenarioError`` before anything is returned.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Mapping, Sequence

import numpy as np

from .clock import ClockArrays, read_clock
from .constants import SPEED_OF_LIGHT, row_blocks
from .protocol import BLINK_RX, CCP_RX, CCP_TX, SEQ_WRAP, ReportColumns, present_codes
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

    def positions(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full(t.shape, self.position[0], float), np.full(t.shape, self.position[1], float)


@dataclass(frozen=True)
class ConstantVelocityTrajectory:
    start: tuple[float, float]
    velocity: tuple[float, float]

    def positions(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.start[0] + self.velocity[0] * t, self.start[1] + self.velocity[1] * t


@dataclass(frozen=True)
class WaypointTrajectory:
    """Piecewise-linear motion through (time, (x, y)) waypoints, clamped at
    both ends."""

    waypoints: tuple[tuple[float, tuple[float, float]], ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ScenarioError("waypoint trajectory needs at least two points")
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError("waypoint times must be strictly increasing")

    def positions(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        times = np.array([w for w, _ in self.waypoints], float)
        points = np.array([p for _, p in self.waypoints], float)
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        xy = points[i] + ((t - times[i]) / (times[i + 1] - times[i]))[:, None] * (
            points[i + 1] - points[i])
        xy[t <= times[0]] = points[0]
        xy[t >= times[-1]] = points[-1]
        return xy[:, 0], xy[:, 1]


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
        for kind in ("ccp_links", "blink_links"):
            if (links := getattr(self, kind)) is not None:
                object.__setattr__(self, kind, {k: frozenset(v) for k, v in dict(links).items()})
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
        for kind in ("ccp_links", "blink_links"):
            for src, receivers in (getattr(self, kind) or {}).items():
                if unknown := set(receivers) - known_anchors:
                    raise ScenarioError(
                        f"{kind}[{src!r}] references unknown anchors: {', '.join(sorted(unknown))}")
        # Followers that cannot hear their own master would never synchronize.
        heard, _ = self._ccp_receptions()
        masters, anchor_ids = self.topology.masters(), self.topology.ids()
        for follower, master in ((f, m) for f, ms in self.topology.follow.items() for m in ms):
            if not heard[masters.index(master), anchor_ids.index(follower)]:
                raise ScenarioError(
                    f"anchor {follower!r} follows {master!r} but cannot receive its CCPs")

    def _receptions(self, x: np.ndarray, y: np.ndarray, senders: Sequence[str], sender: np.ndarray,
                    links: Mapping[str, frozenset[str]] | None) -> tuple[np.ndarray, np.ndarray]:
        """The range in metres from each point (x, y) to each anchor, and whether the
        anchor hears ``senders[sender[i]]`` send from point i: if ``links`` link them,
        else if within ``reception_radius``.  Ranges are ``math.hypot``'s (``np.hypot``
        may differ in the last bit), taken ``ROW_BLOCK`` points at a time so the
        Python floats in flight stay a block in number however long the run."""
        ax, ay = np.array([a.xy() for a in self.topology.anchors], float).T
        ranges = np.empty((len(x), len(ax)))
        for block in row_blocks(len(x)):
            dx, dy = (ax - x[block, None]).ravel(), (ay - y[block, None]).ravel()
            ranges[block] = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float,
                                        dx.size).reshape(-1, len(ax))
            if not (finite := np.isfinite(ranges[block]).all(axis=1)).all():
                i = block.start + int(np.argmin(finite))
                raise ScenarioError(f"{senders[sender[i]]!r} at ({float(x[i])!r}, {float(y[i])!r})"
                                    " is out of range: a range to an anchor is not finite")
        if links is None:
            return ranges, ranges <= (self.reception_radius or math.inf)
        linked = [[a in links.get(s, ()) for a in self.topology.ids()] for s in senders]
        return ranges, np.array(linked, bool).reshape(len(senders), len(ax))[sender]

    def _ccp_receptions(self) -> tuple[np.ndarray, np.ndarray]:
        """Which anchors hear each master's CCPs, (master, anchor) in ``topology.masters()``
        and ``topology.ids()`` order, no master itself, and the CCPs' flight times in s."""
        masters, anchor_ids = self.topology.masters(), self.topology.ids()
        x, y = np.array([self.topology.anchor(m).xy() for m in masters], float).T
        ranges, heard = self._receptions(x, y, masters, np.arange(len(x)), self.ccp_links)
        return heard & (np.array(masters)[:, None] != anchor_ids), ranges / SPEED_OF_LIGHT


# ---------------------------------------------------------------------------
# Ground truth records


@dataclass(frozen=True, eq=False)
class TruthBlinks:
    """Ground-truth blinks as columns, one row per blink: ``tag`` as int32 codes into
    ``ids``, the sorted tag ids, ``seq`` int64 in [0, 2**32), and the true ``time`` and
    the tag's ``x`` and ``y`` float64.  ``run_scenario`` and ``cli.read_truth`` make them."""

    ids: tuple[str, ...]
    tag: np.ndarray
    seq: np.ndarray
    time: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.seq)


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
    truth_blinks: TruthBlinks
    truth_clocks: tuple[TruthClock, ...]


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


def _steps(period: float, duration: float) -> np.ndarray:
    """The steps k = 0, 1, 2, ... whose time k * period is before ``duration``."""
    k = np.arange(int(duration / period) + 2)
    return k[k * period < duration]


@np.errstate(over="ignore", invalid="ignore")  # a value that overflows raises ScenarioError
def run_scenario(scenario: Scenario) -> SimResult:
    """Simulate one scenario into report columns plus ground truth.

    Identical scenarios (same seed included) give identical output: reports
    are sorted by (true time, anchor id, kind, source id, seq), a key no two
    share, and clock jitter is drawn from one seeded generator in that
    order.  Ids are coded in sorted order and kind codes follow the kinds'
    string order, so sorting the codes sorts the ids.  A range to an anchor
    (and so a position and a true time) or a clock reading that overflows
    raises ``ScenarioError`` in the pass that makes it.
    """
    topo = scenario.topology
    rng = np.random.default_rng(scenario.seed)
    anchor_ids, masters, tags = topo.ids(), topo.masters(), scenario.tags
    ids = sorted({*anchor_ids, *(tag.id for tag in tags)})
    code = {value: i for i, value in enumerate(ids)}

    # Blinks, time-major, tags in scenario order; each is heard by a mask row.
    k = _steps(scenario.blink_period, scenario.duration)
    t = k * scenario.blink_period
    xy = np.array([tag.trajectory.positions(t) for tag in tags], float)
    xy = xy.reshape(len(tags), 2, len(t))  # (tags, 2, times) with no tags too
    x, y = xy[:, 0].T.ravel(), xy[:, 1].T.ravel()
    tag_index = np.tile(np.arange(len(tags)), len(t))
    blink_time, blink_seq = np.repeat(t, len(tags)), np.repeat(k % SEQ_WRAP, len(tags))
    ranges, heard = scenario._receptions(x, y, [tag.id for tag in tags], tag_index,
                                         scenario.blink_links)
    blink, blink_rx = np.nonzero(heard)

    # CCP rounds: each master's transmission, and its flight to each anchor
    # that hears it.
    j = _steps(scenario.ccp_period, scenario.duration)
    ccp_seq = j % SEQ_WRAP
    tx = np.array([  # one cascade per round, each master's time read from it
        list(map(dict(schedule_ccp_cascade(topo, start, scenario.lag)).__getitem__, masters))
        for start in (j * scenario.ccp_period).tolist()], float).reshape(len(j), len(masters))
    heard, flight = scenario._ccp_receptions()
    sender, ccp_rx = np.nonzero(heard)
    tag_code = np.array([code[tag.id] for tag in tags], np.int32)
    anchor_codes = np.array([code[anchor_id] for anchor_id in anchor_ids], np.int32)
    master = np.array([anchor_ids.index(m) for m in masters], np.int32)  # in topo.anchors
    # Per report: true time, receiver index in ``topo.anchors``, kind, source code and seq.
    groups = (  # blink receptions, CCP transmissions and CCP receptions
        (blink_time[blink] + ranges[blink, blink_rx] / SPEED_OF_LIGHT, blink_rx.astype(np.int32),
         np.int8(BLINK_RX), tag_code[tag_index[blink]], blink_seq[blink]),
        (tx.ravel(), np.tile(master, len(j)), np.int8(CCP_TX),
         np.tile(anchor_codes[master], len(j)), np.repeat(ccp_seq, len(masters))),
        (tx[:, sender].ravel() + np.tile(flight[sender, ccp_rx], len(j)),
         np.tile(ccp_rx.astype(np.int32), len(j)), np.int8(CCP_RX),
         np.tile(anchor_codes[master[sender]], len(j)), np.repeat(ccp_seq, len(sender))),
    )
    time, receiver, kind, src, seq = (
        np.concatenate(column) for column in zip(*(np.broadcast_arrays(*g) for g in groups)))
    del groups, ranges, heard, blink, blink_rx
    anchor = anchor_codes[receiver]
    order = np.lexsort((seq, src, kind, anchor, time))
    # The clocks are read a block of the sorted order at a time; the jitter
    # draws keep that order, so the blocks read what one call would.
    models = [a.clock for a in topo.anchors]
    ticks = np.empty(len(order))
    for block in row_blocks(len(order)):
        rows = order[block]
        ticks[block] = read_clock(ClockArrays.gather(models, receiver[rows]), time[rows], rng)
        if not (finite := np.isfinite(ticks[block])).all():
            i = rows[np.argmin(finite)]
            raise ScenarioError(f"the clock of {anchor_ids[receiver[i]]!r} reads a non-finite "
                                f"value at true time {float(time[i])!r} s")
    # Only the ids some report holds stay in the id table.
    used, (anchor_code, src_code) = present_codes(len(ids), anchor, src)
    reports = ReportColumns(tuple(ids[i] for i in used.tolist()), anchor_code[order],
                            kind[order], src_code[order], seq[order], ticks)
    tag_ids = tuple(sorted(tag.id for tag in tags))
    truth_tag = np.array([tag_ids.index(tag.id) for tag in tags], np.int32)[tag_index]
    return SimResult(reports, TruthBlinks(tag_ids, truth_tag, blink_seq, blink_time, x, y),
                     tuple(TruthClock(a.id, *astuple(a.clock)) for a in topo.anchors))
