"""Wireless clock synchronization.

Anchors never adjust their counters; the engine removes clock disagreement
after the fact using clock calibration packets (CCPs).  A pair of consecutive
CCPs seen on both the master's transmit side and a receiver's side gives the
scale coefficient

    K = (T_s1 - T_s2) / (R_s1 - R_s2)

the ratio of the two clock rates over one CCP interval.  Because the CCP
round schedule is periodic with a known nominal interval, the same window
also calibrates each clock against that schedule, which is what lets a tag
blink timestamped on several free-running counters be mapped onto one common
timescale.  Multi-master cascades compose these per-hop corrections along
the follow chain, so any two anchors in a connected topology can be
differenced.

Masters and slaves are corrected the same way.  A blink timestamp is placed
after the CCP epoch nearest to it on the receiving anchor's own clock and
scaled by that clock's rate over the window that starts there.  A slave's
epochs are its receptions of a master's CCPs, and the CCP's flight time over
the known baseline is added back; a master's epochs are its own CCP
transmissions.  ``CcpPairWindow`` and ``scale_coefficient`` are the paper's
K view of a slave's window, and every such window is checked through them
when it is built.

The output is one ``Arrival`` per receiving anchor per blink: the blink's
arrival on the common timescale, as an offset after a numbered CCP of the
primary master's schedule, with CCP propagation between anchors (a known
baseline over c) already removed.  A time difference between two anchors
(``arrival_tdoa``) is derived from two arrivals only where it is needed:
against the blink's time base for positioning, per anchor pair over all
blinks for eval's stability streams, and for every anchor pair in
``synced_pairs`` when the pair view is asked for.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .clock import TICK_SECONDS, Timestamp, ts_diff
from .constants import SPEED_OF_LIGHT
from .protocol import KIND_BLINK_RX, KIND_CCP_RX, KIND_CCP_TX, ToaReport
from .topology import NetworkTopology, ROLE_MASTER

log = logging.getLogger(__name__)

# Reject windows implying more than 100 ppm of relative rate error.
DEFAULT_K_BAND = 1e-4
# Windows farther than this many CCP intervals from the blink are stale.
DEFAULT_STALE_INTERVALS = 2.0

# Scalar smoother defaults: a static pair's TDoA wanders slowly (clock
# residuals), while a single measurement is good to about half a nanosecond.
DEFAULT_PROCESS_VAR = 1e-22  # s^2 added per step
DEFAULT_MEASUREMENT_VAR = (0.5e-9) ** 2  # s^2


class SyncError(RuntimeError):
    """Raised when raw timestamps cannot be placed on the common timescale."""


class DegenerateWindowError(SyncError):
    """CCP window with repeated or non-advancing timestamps."""


class DriftAnomalyError(SyncError):
    """Window implies a clock rate outside the sanity band."""


@dataclass(frozen=True)
class CcpPairWindow:
    """Timestamps of two consecutive CCPs (sequence ``seq`` and ``seq + 1``):
    the master's transmit readings and one receiver's arrival readings."""

    master_id: str
    sa_id: str
    seq: int
    t_s1: Timestamp
    t_s2: Timestamp
    r_s1: Timestamp
    r_s2: Timestamp


class SyncedTdoa(NamedTuple):
    """Corrected arrival-time difference of one blink between two anchors.

    ``tdoa_sync`` is (arrival at ``anchor_a``) minus (arrival at
    ``anchor_b``) in seconds on the common timescale; ``k_used`` is the
    rate ratio applied between the two anchors' clocks.
    """

    anchor_a: str
    anchor_b: str
    tag_id: str
    blink_seq: int
    tdoa_sync: float
    k_used: float

    def signed(self, first: str, second: str) -> float:
        """The TDoA oriented as (first minus second)."""
        if (first, second) == (self.anchor_a, self.anchor_b):
            return self.tdoa_sync
        if (first, second) == (self.anchor_b, self.anchor_a):
            return -self.tdoa_sync
        raise KeyError(f"pair ({first}, {second}) not covered by this measurement")


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


def synced_pairs(
    blinks: Mapping[tuple[str, int], Mapping[str, Arrival]], ccp_period: float
) -> Iterator[SyncedTdoa]:
    """Every unordered anchor pair of every blink, as ``SyncedTdoa``.

    Blinks come in (tag_id, blink_seq) order and pairs (a, b) with a < b in
    anchor-id order, so the stream is deterministic for a given input.
    """
    for tag_id, blink_seq in sorted(blinks):
        arrivals = blinks[(tag_id, blink_seq)]
        ids = sorted(arrivals)
        for i, a in enumerate(ids):
            arr_a = arrivals[a]
            rate_a = arr_a.rate
            for b in ids[i + 1 :]:
                arr_b = arrivals[b]
                yield SyncedTdoa(
                    a, b, tag_id, blink_seq,
                    arrival_tdoa(arr_a, arr_b, ccp_period), arr_b.rate / rate_a,
                )


def scale_coefficient(window: CcpPairWindow, k_band: float = DEFAULT_K_BAND) -> float:
    """Clock-rate ratio master/receiver measured over one CCP window.

    Both tick differences are taken first-minus-second, so numerator and
    denominator are negative for consecutive CCPs and K comes out positive,
    within ``1 +/- k_band`` for healthy crystals.
    """
    num = ts_diff(window.t_s1, window.t_s2)
    den = ts_diff(window.r_s1, window.r_s2)
    if den == 0.0:
        raise DegenerateWindowError(
            f"window {window.master_id}->{window.sa_id} seq {window.seq}: "
            "receiver timestamps do not advance"
        )
    if num >= 0.0 or den >= 0.0:
        raise DegenerateWindowError(
            f"window {window.master_id}->{window.sa_id} seq {window.seq}: "
            "timestamps are not consecutive"
        )
    k = num / den
    if abs(k - 1.0) > k_band:
        raise DriftAnomalyError(
            f"window {window.master_id}->{window.sa_id} seq {window.seq}: "
            f"K = {k!r} outside 1 +/- {k_band}"
        )
    return k


def _clock_rate(first: Timestamp, second: Timestamp, ccp_period: float) -> float:
    """Device seconds per schedule second between one clock's readings of two
    consecutive CCPs."""
    return ts_diff(second, first) * TICK_SECONDS / ccp_period


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
    """One anchor's CCP epochs against one master it follows, in seq order.

    Each entry is (seq, the anchor's reading of that CCP, the anchor's clock
    rate over the window that starts there, or None without a valid one).
    ``delay`` is the CCP's flight time from the master to the anchor; on a
    master's track against itself it is zero.

    Tick comparisons are only trustworthy within half a counter wrap, so
    every lookup starts at the epoch the nominal schedule puts next to the
    blink (the first one at or after ``seq_hint``) and walks from there to
    the nearest by tick distance.  No state carries over between lookups: a
    tag that was out of range for longer than half a wrap is looked up the
    same way as one that never left.
    """

    def __init__(
        self, master: str, delay: float, entries: list[tuple[int, Timestamp, float | None]]
    ) -> None:
        self.master = master
        self.delay = delay
        self.entries = entries
        self.seqs = [seq for seq, _, _ in entries]

    def nearest(self, stamp: Timestamp, seq_hint: int) -> tuple[int, Timestamp, float | None]:
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


def _dedupe(reports: Iterable[ToaReport], diag: dict) -> dict:
    """Index reports by (anchor, kind, src, seq), keeping the smallest tick
    value when duplicates conflict so results stay order-independent."""
    index: dict[tuple, Timestamp] = {}
    count = 0
    for r in reports:
        count += 1
        key = (r.anchor_id, r.kind, r.src_id, r.seq)
        held = index.get(key)
        if held is None or r.timestamp.ticks < held.ticks:
            if held is not None:
                diag["duplicate_reports"] = diag.get("duplicate_reports", 0) + 1
            index[key] = r.timestamp
        elif held is not None:
            diag["duplicate_reports"] = diag.get("duplicate_reports", 0) + 1
    diag["reports"] = diag.get("reports", 0) + count
    return index


def multi_master_sync(
    reports: Iterable[ToaReport],
    topo: NetworkTopology,
    *,
    ccp_period: float,
    blink_period: float = 0.1,
    k_band: float = DEFAULT_K_BAND,
    stale_intervals: float = DEFAULT_STALE_INTERVALS,
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
    receiver, in anchor-id order.  Anchors without a usable window, or whose
    nearest one is more than ``stale_intervals`` CCP periods from the blink,
    are skipped and counted in ``diagnostics``; a blink left with fewer than
    two synchronized receivers carries no time difference and is left out.
    ``blink_period`` (> 0) is only a search hint pairing blinks with nearby
    CCP rounds; correction itself never assumes when tags transmit.

    Results depend only on the multiset of reports, not their order.
    """
    if not blink_period > 0:
        raise ValueError(f"blink_period must be > 0, got {blink_period!r}")
    diag = diagnostics if diagnostics is not None else {}
    topo.validate()

    roles = {a.id: a.role for a in topo.anchors}
    known = set(topo.ids())
    index = _dedupe(reports, diag)

    ccp_tx: dict[str, dict[int, Timestamp]] = {}
    ccp_rx: dict[tuple[str, str], dict[int, Timestamp]] = {}
    blink_rx: dict[tuple[str, int], dict[str, Timestamp]] = {}
    for (anchor_id, kind, src_id, seq), stamp in index.items():
        if anchor_id not in known:
            diag["unknown_anchor_reports"] = diag.get("unknown_anchor_reports", 0) + 1
            continue
        if kind == KIND_CCP_TX:
            if roles.get(anchor_id) != ROLE_MASTER or src_id != anchor_id:
                diag["ccp_tx_from_non_master"] = diag.get("ccp_tx_from_non_master", 0) + 1
                continue
            ccp_tx.setdefault(anchor_id, {})[seq] = stamp
        elif kind == KIND_CCP_RX:
            if src_id not in known or roles.get(src_id) != ROLE_MASTER:
                diag["ccp_rx_unknown_master"] = diag.get("ccp_rx_unknown_master", 0) + 1
                continue
            ccp_rx.setdefault((anchor_id, src_id), {})[seq] = stamp
        else:
            blink_rx.setdefault((src_id, seq), {})[anchor_id] = stamp

    # CCP windows per (receiver, master): consecutive sequence numbers only.
    windows: dict[tuple[str, str], list[CcpPairWindow]] = {}
    for (rx_anchor, master), arrivals in ccp_rx.items():
        tx = ccp_tx.get(master, {})
        built = []
        for seq in sorted(arrivals):
            if seq + 1 in arrivals and seq in tx and seq + 1 in tx:
                w = CcpPairWindow(
                    master_id=master,
                    sa_id=rx_anchor,
                    seq=seq,
                    t_s1=tx[seq],
                    t_s2=tx[seq + 1],
                    r_s1=arrivals[seq],
                    r_s2=arrivals[seq + 1],
                )
                try:
                    scale_coefficient(w, k_band)
                except SyncError:
                    diag["rejected_windows"] = diag.get("rejected_windows", 0) + 1
                    continue
                built.append(w)
        if built:
            windows[(rx_anchor, master)] = built

    # Master transmit-side rates, per seq s over the master's own stamps of
    # CCPs s and s + 1.
    tx_rates: dict[str, dict[int, float]] = {}
    for master, stamps in ccp_tx.items():
        rates = {}
        for s in sorted(stamps):
            if s + 1 in stamps:
                rate = _clock_rate(stamps[s], stamps[s + 1], ccp_period)
                if rate <= 0.0 or abs(rate - 1.0) > k_band:
                    diag["rejected_windows"] = diag.get("rejected_windows", 0) + 1
                    continue
                rates[s] = rate
        tx_rates[master] = rates

    def master_rate(master: str, seq: int) -> float | None:
        rates = tx_rates.get(master, {})
        return rates.get(seq, rates.get(seq - 1))

    # Offset of each master's seq-s CCP transmission from the primary's, on
    # the common timescale.  Chained through the master's own reception of
    # its upper master's CCP; the chain bottoms out at the primary (0.0).
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
        if len(upper_set) == 1:
            (upper,) = upper_set
            own_tx = ccp_tx.get(master, {}).get(seq)
            upper_rx = ccp_rx.get((master, upper), {}).get(seq)
            rate = master_rate(master, seq)
            up = cascade_delta(upper, seq)
            if own_tx is not None and upper_rx is not None and rate is not None and up is not None:
                turnaround = ts_diff(own_tx, upper_rx) * TICK_SECONDS / rate
                result = turnaround + topo.baseline(upper, master) / SPEED_OF_LIGHT + up
        delta_cache[key] = result
        return result

    # Each anchor's epoch tracks, one per master it follows, in master-id
    # order.  A slave's epochs are its receptions of the master's CCPs that
    # open a valid window; a master follows itself through its own CCP
    # transmissions, with no flight time.
    tracks: dict[str, list[_EpochTrack]] = {}
    for anchor_id in topo.ids():
        if roles[anchor_id] == ROLE_MASTER:
            stamps = ccp_tx.get(anchor_id, {})
            own = [(s, stamps[s], master_rate(anchor_id, s)) for s in sorted(stamps)]
            tracks[anchor_id] = [_EpochTrack(anchor_id, 0.0, own)] if own else []
        else:
            tracks[anchor_id] = [
                _EpochTrack(
                    master,
                    topo.baseline(master, anchor_id) / SPEED_OF_LIGHT,
                    [(w.seq, w.r_s1, _clock_rate(w.r_s1, w.r_s2, ccp_period)) for w in ws],
                )
                for master in sorted(topo.follow.get(anchor_id, frozenset()))
                if (ws := windows.get((anchor_id, master)))
            ]

    stale_limit = stale_intervals * ccp_period

    def anchor_offset(anchor_id: str, stamp: Timestamp, seq_hint: int) -> Arrival | None:
        """The anchor's corrected arrival, or None when it cannot be synced.

        The first track whose nearest epoch is fresh and placed on the
        primary's timescale wins.
        """
        saw_fresh = False
        for track in tracks[anchor_id]:
            seq, epoch, rate = track.nearest(stamp, seq_hint)
            gap = ts_diff(stamp, epoch) * TICK_SECONDS
            if abs(gap) > stale_limit:
                continue
            saw_fresh = True
            base = cascade_delta(track.master, seq)
            if rate is None or base is None:
                continue
            return Arrival(gap / rate + track.delay + base, seq, rate)
        key = "stale_blinks" if tracks[anchor_id] and not saw_fresh else "unsynchronized_blinks"
        diag[key] = diag.get(key, 0) + 1
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
    return synced
