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
window: the master's ``rate`` over the receiver's.

The sync works on whole columns (``protocol.ReportColumns``): sorting,
grouping and ``np.searchsorted`` do the lookups, with the floating-point
operations of one report at a time, in the same order.  The output is one
``ArrivalTable``: each blink's arrival at each receiver on the common
timescale, CCP propagation between anchors (a known baseline over c)
already removed.  Time differences (``arrival_tdoa``) are taken only where
they are needed: for positioning, and for eval's stability streams.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clock import HALF_WRAP, TICK_SECONDS, TICK_WRAP, ts_diff
from .constants import ROW_BLOCK, SPEED_OF_LIGHT
from .protocol import BLINK_RX, CCP_RX, CCP_TX, ReportColumns, present_codes
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


@dataclass(frozen=True, eq=False)
class ArrivalTable:
    """The sync output: one row per synchronized arrival of a blink, sorted
    by (tag_id, blink_seq, anchor_id); ``tag`` and ``anchor`` are int32
    codes into ``ids``, the sorted ids of both.  The arrival is ``offset``
    seconds after the ``ccp_seq``-th CCP of the primary's schedule, with
    ``rate`` the anchor's clock rate (device seconds per schedule second)
    used for it; offset and seq stay apart, so long absolute times never
    enter the arithmetic.  Seqs are int64, offset and rate float64."""

    ids: tuple[str, ...]
    tag: np.ndarray
    blink_seq: np.ndarray
    anchor: np.ndarray
    offset: np.ndarray
    ccp_seq: np.ndarray
    rate: np.ndarray

    def __len__(self) -> int:
        return len(self.offset)

    def blinks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each blink's first row, and its number of rows."""
        starts = np.flatnonzero(run_starts(self.tag, self.blink_seq))
        return starts, np.diff(starts, append=len(self))


def arrival_tdoa(table: ArrivalTable, rows, others, ccp_period: float):
    """The arrival in row ``rows`` of ``table`` minus the one in row
    ``others``, in seconds; elementwise for index arrays."""
    return ((table.offset[rows] - table.offset[others])
            + (table.ccp_seq[rows] - table.ccp_seq[others]) * ccp_period)


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """True at the first row of each run of rows with equal keys."""
    starts = np.ones(len(keys[0]), dtype=bool)
    starts[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    return starts


def _lookup(keys: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``values`` where the sorted ``keys`` hold ``at``; NaN where they do not."""
    i = np.searchsorted(keys, at)
    hit = i < len(keys)
    hit[hit] = keys[i[hit]] == at[hit]
    out = np.full(len(at), np.nan)
    out[hit] = values[i[hit]]
    return out


def _nearest(stamp, at, lo, hi, epoch_ticks) -> np.ndarray:
    """Per row, the index of the epoch in ``epoch_ticks[lo:hi]`` nearest to
    ``stamp``.  Tick distances alias beyond half a wrap, so the walk starts
    at ``at``, the epoch the schedule puts next to the blink, and goes ahead
    while that is no farther, else back while that is nearer."""
    i = at.copy()
    best = np.abs(ts_diff(stamp, epoch_ticks[i]))
    walking = np.arange(len(i))
    while walking.size:
        now, near = i[walking], best[walking]
        ahead = np.abs(ts_diff(stamp[walking], epoch_ticks[np.minimum(now + 1, hi[walking] - 1)]))
        forward = (now + 1 < hi[walking]) & (ahead <= near)
        behind = np.abs(ts_diff(stamp[walking], epoch_ticks[np.maximum(now - 1, lo[walking])]))
        back = ~forward & (now > lo[walking]) & (behind < near)
        i[walking] = now + forward - back
        best[walking] = np.where(forward, ahead, np.where(back, behind, near))
        walking = walking[forward | back]
    return i


def multi_master_sync(
    reports: ReportColumns,
    topo: NetworkTopology,
    *,
    ccp_period: float,
    blink_period: float = 0.1,
    params: WcsParams = WcsParams(),
    diagnostics: dict | None = None,
) -> ArrivalTable:
    """Correct every blink in a report stream onto the common timescale.

    Each receiving anchor's blink timestamp, a master's and a slave's alike,
    is mapped through the CCP epoch nearest to it on its own clock and
    scaled by its rate over that window; lower-level masters are chained to
    the primary through their own CCP receive/transmit pairs.  A slave that
    follows several masters takes the first track, in master-id order,
    whose nearest epoch is fresh and on the primary's timescale.

    Counted in ``diagnostics`` and skipped, in this order: reports with
    ticks outside [0, 2**40) (``ticks_out_of_range``), from an anchor not
    in ``topo`` (``unknown_anchor_reports``), CCP transmissions not by a
    master about itself (``ccp_tx_from_non_master``) and CCP receptions
    from a non-master (``ccp_rx_unknown_master``); repeats of a reading,
    the smallest tick winning (``duplicate_reports``); a receiver with no
    epoch (``unsynchronized_blinks``) or whose nearest is more than
    ``params.stale_intervals`` CCP periods or half a counter wrap of
    schedule away (``stale_blinks``); and a blink left with fewer than two
    arrivals (``blinks_without_tdoa``).  Both periods must be > 0 and
    finite; ``blink_period`` is only a search hint.  Results depend only on
    the multiset of reports.

    A blink's placement depends only on its own stamp and hint and on the
    epoch tracks, so blinks are placed ``ROW_BLOCK`` rows at a time, and the
    output's id table is compacted by presence (``protocol.present_codes``):
    no temporary of the placement is longer than a block.
    """
    for name, period in (("ccp_period", ccp_period), ("blink_period", blink_period)):
        if not 0 < period < math.inf:
            raise ValueError(f"{name} must be > 0 and finite, got {period!r}")
    diag = diagnostics if diagnostics is not None else {}

    def count(key: str, n) -> None:
        if n:
            diag[key] = diag.get(key, 0) + int(n)

    ids, n_ids = reports.ids, len(reports.ids)
    code = {value: i for i, value in enumerate(ids)}
    roles = {a.id: a.role for a in topo.anchors}
    known = np.array([value in roles for value in ids], dtype=bool)
    master = np.array([roles.get(value) == ROLE_MASTER for value in ids], dtype=bool)
    anchor, kind, src, ticks = reports.anchor, reports.kind, reports.src, reports.ticks
    keep = np.ones(len(reports), dtype=bool)
    for key, bad in (
        ("ticks_out_of_range", ~((ticks >= 0) & (ticks < TICK_WRAP))),
        ("unknown_anchor_reports", ~known[anchor]),
        ("ccp_tx_from_non_master", (kind == CCP_TX) & (~master[anchor] | (src != anchor))),
        ("ccp_rx_unknown_master", (kind == CCP_RX) & ~master[src]),
    ):
        bad &= keep
        count(key, np.count_nonzero(bad))
        keep &= ~bad

    # One stable sort by (anchor, source, kind, seq, ticks): the first row
    # of a repeated reading holds its smallest tick value.
    rows = np.flatnonzero(keep)
    rows = rows[np.lexsort((ticks[rows], reports.seq[rows], kind[rows], src[rows], anchor[rows]))]
    first = run_starts(*(column[rows] for column in (anchor, src, kind, reports.seq)))
    count("duplicate_reports", len(rows) - np.count_nonzero(first))
    rows = rows[first]
    anchor, src, kind, seq, ticks = (c[rows] for c in (anchor, src, kind, reports.seq, ticks))
    diag["reports"] = diag.get("reports", 0) + len(reports)

    # Epoch tracks: a master's own CCP transmissions, and a slave's
    # receptions of the CCPs of each master it follows.  Rows are in
    # (anchor, master, kind, seq) order, so the tracks come in (anchor,
    # master) order, each one's readings a run in seq order.
    pair = anchor.astype(np.int64) * n_ids + src
    followed = [code[a] * n_ids + code[m] for a in topo.slaves() if a in code
                for m in topo.follow.get(a, ()) if m in code]
    reading = np.flatnonzero((kind == CCP_TX) | ((kind == CCP_RX) & np.isin(pair, followed)))
    track_key = pair[reading]
    window = (track_key[1:] == track_key[:-1]) & (seq[reading[1:]] == seq[reading[:-1]] + 1)
    window_rate = ts_diff(ticks[reading[1:]], ticks[reading[:-1]]) * TICK_SECONDS / ccp_period
    good = window & (np.abs(window_rate - 1.0) <= params.k_band)
    count("rejected_windows", np.count_nonzero(window & ~good))
    epoch = reading[:-1][good]
    epoch_seq, epoch_ticks, epoch_rate = seq[epoch], ticks[epoch], window_rate[good]
    new_track = run_starts(track_key[:-1][good])
    epoch_track = np.cumsum(new_track) - 1
    track_lo = np.flatnonzero(new_track)
    track_hi = np.append(track_lo[1:], len(epoch))
    track_anchor, track_master = np.divmod(track_key[:-1][good][new_track], n_ids)
    track_delay = np.array([
        0.0 if a == m else topo.baseline(ids[m], ids[a]) / SPEED_OF_LIGHT
        for a, m in zip(track_anchor.tolist(), track_master.tolist())
    ])
    tracks_of = np.bincount(track_anchor, minlength=n_ids)
    first_track = np.searchsorted(track_anchor, np.arange(n_ids))

    # Offset of each master's seq-s CCP transmission from the primary's on
    # the common timescale, at each of its own epochs s: its turnaround from
    # its reception of its upper master's CCP s, plus their baseline, plus
    # the upper master's offset at s.  NaN where the chain breaks.
    primary = topo.primary_master()
    cascade: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def cascade_delta(m: int, at_seq: np.ndarray) -> np.ndarray:
        if ids[m] == primary:
            return np.zeros(len(at_seq))
        return _lookup(*cascade.get(m, (np.zeros(0, np.int64), np.zeros(0))), at_seq)

    for name in sorted(topo.masters(), key=lambda m: (topo.master_level[m], m)):
        upper_set = topo.follow.get(name, frozenset())
        m, u = code.get(name), code.get(min(upper_set, default=""))
        if name == primary or len(upper_set) != 1 or None in (m, u) or not tracks_of[m]:
            continue
        own = slice(track_lo[first_track[m]], track_hi[first_track[m]])
        heard = (kind == CCP_RX) & (anchor == m) & (src == u)
        upper_rx = _lookup(seq[heard], ticks[heard], epoch_seq[own])
        turnaround = ts_diff(epoch_ticks[own], upper_rx) * TICK_SECONDS / epoch_rate[own]
        cascade[m] = (epoch_seq[own], turnaround + topo.baseline(ids[u], name) / SPEED_OF_LIGHT
                      + cascade_delta(u, epoch_seq[own]))
    epoch_base = np.full(len(epoch), np.nan)
    for m in np.unique(track_master).tolist():
        of_m = track_master[epoch_track] == m
        epoch_base[of_m] = cascade_delta(m, epoch_seq[of_m])

    # Blink receptions in (tag, blink_seq, anchor) order, each tried on its
    # anchor's tracks in turn until one places it.
    rows = np.flatnonzero(kind == BLINK_RX)
    rows = rows[np.lexsort((anchor[rows], seq[rows], src[rows]))]
    tag, blink_seq, receiver, stamp = src[rows], seq[rows], anchor[rows], ticks[rows]
    seq_hint = (blink_seq * blink_period / ccp_period).astype(np.int64)
    hint_key = np.minimum(seq_hint, 2**32)  # past every seq: the track's last epoch
    epoch_key = epoch_track * 2**33 + epoch_seq
    stale_limit = params.stale_intervals * ccp_period
    schedule_limit = HALF_WRAP * TICK_SECONDS  # tick distances alias beyond this
    offset, ccp_seq, rate = np.zeros(len(rows)), np.zeros(len(rows), np.int64), np.zeros(len(rows))
    placed, saw_fresh = np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
    for start, j in itertools.product(range(0, len(rows), ROW_BLOCK),
                                      range(int(tracks_of.max(initial=0)))):
        block = slice(start, start + ROW_BLOCK)
        row = start + np.flatnonzero(~placed[block] & (tracks_of[receiver[block]] > j))
        t = first_track[receiver[row]] + j
        at = np.minimum(np.searchsorted(epoch_key, t * 2**33 + hint_key[row]), track_hi[t] - 1)
        e = _nearest(stamp[row], at, track_lo[t], track_hi[t], epoch_ticks)
        gap = ts_diff(stamp[row], epoch_ticks[e]) * TICK_SECONDS
        fresh = ~((np.abs(gap) > stale_limit)
                  | (np.abs(epoch_seq[e] - seq_hint[row]) * ccp_period > schedule_limit))
        saw_fresh[row] |= fresh
        ok = fresh & ~np.isnan(epoch_base[e])
        row, e = row[ok], e[ok]
        offset[row] = gap[ok] / epoch_rate[e] + track_delay[t[ok]] + epoch_base[e]
        ccp_seq[row], rate[row], placed[row] = epoch_seq[e], epoch_rate[e], True
    stale = ~placed & (tracks_of[receiver] > 0) & ~saw_fresh
    count("stale_blinks", np.count_nonzero(stale))
    count("unsynchronized_blinks", np.count_nonzero(~placed & ~stale))

    starts = np.flatnonzero(run_starts(tag, blink_seq))
    sizes = np.diff(starts, append=len(tag))
    synced = np.add.reduceat(np.append(placed, False).astype(np.int64), starts) >= 2
    count("blinks_without_tdoa", len(starts) - np.count_nonzero(synced))
    row = np.flatnonzero(placed & np.repeat(synced, sizes))
    used, (tag_code, anchor_code) = present_codes(n_ids, tag[row], receiver[row])
    return ArrivalTable(tuple(ids[i] for i in used.tolist()), tag_code, blink_seq[row],
                        anchor_code, offset[row], ccp_seq[row], rate[row])
