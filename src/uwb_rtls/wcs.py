"""Wireless clock synchronization.

Anchors never adjust their counters; the engine removes clock disagreement
after the fact using clock calibration packets (CCPs).  One clock's
readings of two consecutive CCPs span one nominal CCP interval of the
primary master's schedule, so that window gives the clock's rate (device
seconds per schedule second), and a tag blink timestamped on several
free-running counters can be mapped onto one common timescale.
Multi-master cascades compose these per-hop corrections along the follow
chain, so any two anchors in a connected topology can be differenced.

Readings are the anchors' raw tick counts, plain floats (see ``clock``);
a report whose reading lies outside [0, 2**40) is counted and skipped
before anything else looks at it.

Every clock is calibrated by one window rule.  A clock's reading of CCP
``s`` is an epoch if the same clock also read CCP ``s + 1`` and its rate
over that window lies within ``1 +/- k_band``; a window that fails is
counted and dropped.  A slave's epochs are its receptions of a master's
CCPs, and the CCP's flight time over the known baseline is added back; a
master's epochs are its own CCP transmissions.  A blink timestamp is placed
after the epoch nearest to it on the receiving anchor's own clock and
scaled by that epoch's rate.  The paper's scale coefficient K = ΔT/ΔR
between a master and a receiver is the ratio of their two rates over one
window: the master's ``Arrival.rate`` over the receiver's.

The output is one ``Arrival`` per receiving anchor per blink: the blink's
arrival on the common timescale, as an offset after a numbered CCP of the
primary master's schedule, with CCP propagation between anchors (a known
baseline over c) already removed.  A time difference between two anchors
(``arrival_tdoa``) is derived from two arrivals only where it is needed:
against the blink's time base for positioning, and per anchor pair over all
blinks for eval's stability streams.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .clock import HALF_WRAP, TICK_SECONDS, TICK_WRAP, ts_diff
from .constants import SPEED_OF_LIGHT
from .protocol import KIND_BLINK_RX, KIND_CCP_RX, KIND_CCP_TX, ToaReport
from .topology import NetworkTopology, ROLE_MASTER


@dataclass(frozen=True)
class WcsParams:
    """Sync and smoother settings, the ``wcs`` block of a config.

    ``k_band`` in (0, 1): a CCP window is an epoch only if the clock's rate
    over it lies within 1 +/- ``k_band`` (default: 100 ppm).
    ``stale_intervals`` > 0 and finite: an epoch more than this many CCP
    periods from a blink is stale.  ``process_var`` >= 0 and
    ``measurement_var`` > 0, both finite: eval's per-pair smoother.  A
    static pair's TDoA wanders slowly (clock residuals, s^2 added per
    step), while one measurement is good to about half a nanosecond (s^2).
    A value out of range, NaN included, raises ValueError naming it.
    """

    k_band: float = 1e-4
    stale_intervals: float = 2.0
    process_var: float = 1e-22
    measurement_var: float = (0.5e-9) ** 2

    def __post_init__(self) -> None:
        if not 0.0 < self.k_band < 1.0:
            raise ValueError(f"k_band must lie in (0, 1), got {self.k_band!r}")
        if not 0.0 < self.stale_intervals < math.inf:
            raise ValueError(
                f"stale_intervals must be > 0 and finite, got {self.stale_intervals!r}"
            )
        if not 0.0 <= self.process_var < math.inf:
            raise ValueError(f"process_var must be >= 0 and finite, got {self.process_var!r}")
        if not 0.0 < self.measurement_var < math.inf:
            raise ValueError(
                f"measurement_var must be positive and finite, got {self.measurement_var!r}"
            )


class Arrival(NamedTuple):
    """One blink's arrival at one anchor on the common timescale.

    The arrival is ``offset`` seconds after the ``ccp_seq``-th CCP of the
    primary master's schedule; ``rate`` is the anchor's clock rate (device
    seconds per schedule second) used for the correction.  Offset and seq
    stay apart: a difference of two arrivals subtracts the offsets and adds
    the seq difference times the CCP period, so long absolute times never
    enter the arithmetic.
    """

    offset: float
    ccp_seq: int
    rate: float


# Sync output: (tag_id, blink_seq) -> {receiving anchor: its Arrival}.
SyncedBlinks = dict[tuple[str, int], dict[str, Arrival]]


def arrival_tdoa(a: Arrival, b: Arrival, ccp_period: float) -> float:
    """Arrival ``a`` minus arrival ``b`` in seconds on the common timescale.

    Elementwise, with the same arithmetic, when the fields of ``a`` and
    ``b`` are numpy arrays (float offsets, integer seqs).
    """
    return (a.offset - b.offset) + (a.ccp_seq - b.ccp_seq) * ccp_period


# ---------------------------------------------------------------------------
# Scalar per-pair smoothing


def kalman_step(
    state: float, variance: float, measurement: float, process_var: float, measurement_var: float
) -> tuple[float, float]:
    """One predict/update step on bare floats, returning (state, variance).

    An infinite prior ``variance`` makes the step adopt the measurement
    outright.  Non-finite measurements are rejected and leave the filter
    unchanged.
    """
    if not math.isfinite(measurement):
        return state, variance
    variance = variance + process_var
    if math.isinf(variance):
        # Limit of gain -> 1: adopt the measurement, keep its own variance.
        return measurement, measurement_var
    gain = variance / (variance + measurement_var)
    return state + gain * (measurement - state), (1.0 - gain) * variance


# ---------------------------------------------------------------------------
# Full-report synchronization across a (possibly multi-master) topology


class _EpochTrack:
    """One clock's CCP epochs against one master's schedule, in seq order.

    Each entry is (seq, the clock's reading of CCP ``seq``, the clock's rate
    over the window from CCP ``seq`` to ``seq + 1``); ``_epoch_track``
    builds every track, a master's own and a slave's alike, with the one
    window rule.  ``delay`` is the CCP's flight time from the master to the
    anchor; on a master's own track it is zero.

    Tick comparisons are only trustworthy within half a counter wrap, so
    every lookup starts at the epoch the nominal schedule puts next to the
    blink (the first one at or after ``seq_hint``) and walks from there to
    the nearest by tick distance.  No state carries over between lookups: a
    tag that was out of range for longer than half a wrap is looked up the
    same way as one that never left.
    """

    def __init__(
        self, master: str, delay: float, entries: list[tuple[int, float, float]]
    ) -> None:
        self.master = master
        self.delay = delay
        self.entries = entries
        self.seqs = [seq for seq, _, _ in entries]

    def at(self, seq: int) -> tuple[int, float, float] | None:
        """The entry of CCP ``seq``, or None if that reading is no epoch."""
        i = bisect.bisect_left(self.seqs, seq)
        if i < len(self.seqs) and self.seqs[i] == seq:
            return self.entries[i]
        return None

    def nearest(self, stamp: float, seq_hint: int) -> tuple[int, float, float]:
        entries = self.entries
        i = min(bisect.bisect_left(self.seqs, seq_hint), len(entries) - 1)
        best = abs(ts_diff(stamp, entries[i][1]))
        moved = True
        while moved:
            moved = False
            if i + 1 < len(entries):
                ahead = abs(ts_diff(stamp, entries[i + 1][1]))
                if ahead <= best:
                    i, best, moved = i + 1, ahead, True
                    continue
            if i > 0:
                behind = abs(ts_diff(stamp, entries[i - 1][1]))
                if behind < best:
                    i, best, moved = i - 1, behind, True
        return entries[i]


def _epoch_track(
    master: str,
    delay: float,
    readings: Mapping[int, float],
    ccp_period: float,
    k_band: float,
    diag: dict,
) -> _EpochTrack | None:
    """The epochs among one clock's readings of ``master``'s CCPs, by seq.

    The reading of CCP s is an epoch if the clock also read CCP s + 1 and
    its rate over that window (device seconds per nominal CCP period) lies
    within 1 +/- ``k_band``; with ``k_band`` < 1, a stuck or backwards clock
    (rate <= 0) fails too.  Failed windows are counted in
    ``rejected_windows``; None if no epoch is left.
    """
    entries = []
    for seq in sorted(readings):
        following = readings.get(seq + 1)
        if following is None:
            continue
        rate = ts_diff(following, readings[seq]) * TICK_SECONDS / ccp_period
        if abs(rate - 1.0) <= k_band:
            entries.append((seq, readings[seq], rate))
        else:
            diag["rejected_windows"] = diag.get("rejected_windows", 0) + 1
    return _EpochTrack(master, delay, entries) if entries else None


def multi_master_sync(
    reports: Iterable[ToaReport],
    topo: NetworkTopology,
    *,
    ccp_period: float,
    blink_period: float = 0.1,
    params: WcsParams = WcsParams(),
    diagnostics: dict | None = None,
) -> SyncedBlinks:
    """Correct every blink in a report stream onto the common timescale.

    Works for single-master and cascaded multi-master topologies alike, and
    for masters and slaves alike: each receiving anchor's blink timestamp is
    mapped through the CCP epoch nearest to it on the anchor's own clock
    (a slave's reception of a master's CCP, or a master's own transmission),
    scaled by the anchor's clock rate over the window that starts there,
    and lower-level masters are chained to the primary through their own CCP
    receive/transmit pairs.  The result maps each blink, as (tag_id,
    blink_seq) in sorted order, to one ``Arrival`` per synchronized
    receiver, in anchor-id order.  Anchors without an epoch, or whose
    nearest one is more than ``params.stale_intervals`` CCP periods from the
    blink or scheduled more than half a counter wrap from it, are skipped and
    counted in ``diagnostics``, as is any report whose ticks lie outside
    [0, 2**40) (``ticks_out_of_range``); a blink left with fewer than two
    synchronized receivers carries no time difference and is left out and
    counted (``blinks_without_tdoa``).  ``blink_period`` (> 0) is only a
    search hint pairing blinks with nearby CCP rounds; correction itself
    never assumes when tags transmit.

    Results depend only on the multiset of reports, not their order.
    """
    if not blink_period > 0:
        raise ValueError(f"blink_period must be > 0, got {blink_period!r}")
    diag = diagnostics if diagnostics is not None else {}

    def count(key: str) -> None:
        diag[key] = diag.get(key, 0) + 1

    # One pass files each reading under its kind; where a reading repeats,
    # the smallest tick value wins so results stay order-independent.
    roles = {a.id: a.role for a in topo.anchors}
    ccp_tx: dict[str, dict[int, float]] = {}
    ccp_rx: dict[tuple[str, str], dict[int, float]] = {}
    blink_rx: dict[tuple[str, int], dict[str, float]] = {}
    n_reports = 0
    for r in reports:
        n_reports += 1
        anchor_id, src_id, ticks = r.anchor_id, r.src_id, r.ticks
        if not 0 <= ticks < TICK_WRAP:
            count("ticks_out_of_range")
            continue
        role = roles.get(anchor_id)
        if role is None:
            count("unknown_anchor_reports")
            continue
        if r.kind == KIND_CCP_TX:
            if role != ROLE_MASTER or src_id != anchor_id:
                count("ccp_tx_from_non_master")
                continue
            held, key = ccp_tx.setdefault(anchor_id, {}), r.seq
        elif r.kind == KIND_CCP_RX:
            if roles.get(src_id) != ROLE_MASTER:
                count("ccp_rx_unknown_master")
                continue
            held, key = ccp_rx.setdefault((anchor_id, src_id), {}), r.seq
        else:
            held, key = blink_rx.setdefault((src_id, r.seq), {}), anchor_id
        stamp = held.get(key)
        if stamp is not None:
            count("duplicate_reports")
            if stamp <= ticks:
                continue
        held[key] = ticks
    diag["reports"] = diag.get("reports", 0) + n_reports

    # Each anchor's epoch tracks, one per master it follows, in master-id
    # order.  A master follows itself through its own CCP transmissions,
    # with no flight time.
    tracks: dict[str, list[_EpochTrack]] = {}
    for anchor_id in topo.ids():
        if roles[anchor_id] == ROLE_MASTER:
            sources = [(anchor_id, 0.0, ccp_tx.get(anchor_id, {}))]
        else:
            sources = [
                (master, topo.baseline(master, anchor_id) / SPEED_OF_LIGHT,
                 ccp_rx.get((anchor_id, master), {}))
                for master in sorted(topo.follow.get(anchor_id, frozenset()))
            ]
        tracks[anchor_id] = [
            track for source in sources
            if (track := _epoch_track(*source, ccp_period, params.k_band, diag)) is not None
        ]

    # Offset of each master's seq-s CCP transmission from the primary's, on
    # the common timescale.  Chained through the master's own epoch s and
    # its reception of its upper master's CCP s; the chain bottoms out at
    # the primary (0.0).
    primary = topo.primary_master()
    delta_cache: dict[tuple[str, int], float | None] = {}

    def cascade_delta(master: str, seq: int) -> float | None:
        if master == primary:
            return 0.0
        key = (master, seq)
        if key in delta_cache:
            return delta_cache[key]
        result = None
        upper_set = topo.follow.get(master, frozenset())
        own = tracks[master][0].at(seq) if tracks[master] else None
        if len(upper_set) == 1 and own is not None:
            (upper,) = upper_set
            upper_rx = ccp_rx.get((master, upper), {}).get(seq)
            up = cascade_delta(upper, seq)
            if upper_rx is not None and up is not None:
                _, own_tx, rate = own
                turnaround = ts_diff(own_tx, upper_rx) * TICK_SECONDS / rate
                result = turnaround + topo.baseline(upper, master) / SPEED_OF_LIGHT + up
        delta_cache[key] = result
        return result

    stale_limit = params.stale_intervals * ccp_period
    schedule_limit = HALF_WRAP * TICK_SECONDS  # tick distances alias beyond this

    def anchor_offset(anchor_id: str, stamp: float, seq_hint: int) -> Arrival | None:
        """The anchor's corrected arrival, or None when it cannot be synced.

        The first track whose nearest epoch is fresh and placed on the
        primary's timescale wins.  An epoch is stale if its reading lies
        more than ``stale_intervals`` CCP periods from the blink's, or its
        seq more than half a counter wrap of schedule from the blink's hint.
        """
        saw_fresh = False
        for track in tracks[anchor_id]:
            seq, epoch, rate = track.nearest(stamp, seq_hint)
            gap = ts_diff(stamp, epoch) * TICK_SECONDS
            if abs(gap) > stale_limit or abs(seq - seq_hint) * ccp_period > schedule_limit:
                continue
            saw_fresh = True
            base = cascade_delta(track.master, seq)
            if base is None:
                continue
            return Arrival(gap / rate + track.delay + base, seq, rate)
        count("stale_blinks" if tracks[anchor_id] and not saw_fresh else "unsynchronized_blinks")
        return None

    synced: SyncedBlinks = {}
    for (tag_id, seq) in sorted(blink_rx):
        arrivals = blink_rx[(tag_id, seq)]
        seq_hint = int(seq * blink_period / ccp_period)
        corrected: dict[str, Arrival] = {}
        for anchor_id in sorted(arrivals):
            got = anchor_offset(anchor_id, arrivals[anchor_id], seq_hint)
            if got is not None:
                corrected[anchor_id] = got
        if len(corrected) >= 2:
            synced[(tag_id, seq)] = corrected
        else:
            count("blinks_without_tdoa")
    return synced
