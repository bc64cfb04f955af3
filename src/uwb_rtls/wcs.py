"""Wireless clock synchronization: calibrate the anchor clocks, then place blinks.

Anchors never adjust their counters; the engine removes clock disagreement
after the fact using clock calibration packets (CCPs).  Readings are raw
tick counts in [0, 2**40) (see ``clock``).  ``multi_master_sync`` drops
bad reports, then makes two calls, each of which keeps one row per reading
on the sort it makes anyway.  ``calibrate`` builds a ``SyncState`` from
the CCP rows by one window rule: a clock's reading of CCP ``s`` is an
epoch if the clock also read CCP ``s + 1`` and its rate (device seconds
per schedule second) over that window lies within ``1 +/- k_band``.  A
slave's epochs are its receptions of a master's CCPs, their flight time
over the known baseline added back; a master's are its own transmissions.
Each epoch carries its master's offset from the primary, summed down the
master cascade; an epoch whose cascade link is broken is dropped.
``place`` maps a blink stamp through the epoch nearest to it on the
receiving anchor's own clock, scaled by that epoch's rate.  The paper's
scale coefficient K = ΔT/ΔR between a master and a receiver is the ratio
of their two rates over one window: the master's ``rate`` over the
receiver's.  Both work on whole columns, with the floating-point
operations of one report at a time, in the same order.  The output is one
``ArrivalTable``: each blink's arrival at each receiver on the primary's
timescale; TDoAs (``arrival_tdoa``) are taken only where they are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import HALF_WRAP, TICK_SECONDS, TICK_WRAP, ts_diff
from .constants import SPEED_OF_LIGHT, row_blocks, tally
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


def run_starts(*keys: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """True at the first row of each run of rows with equal keys, each key
    taken at the rows ``order`` if given, one key at a time."""
    starts = np.zeros(len(keys[0]) if order is None else len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        key = key if order is None else key[order]
        starts[1:] |= key[1:] != key[:-1]
    return starts


def find_sorted(keys: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``at`` sorts into the sorted ``keys``, and whether
    ``keys`` hold it there: ``np.isin`` with the indexes, but without the
    ``np.unique`` call whose ``np.ma.is_masked`` imports numpy.ma."""
    i = np.searchsorted(keys, at)
    hit = i < len(keys)
    hit[hit] = keys[i[hit]] == at[hit]
    return i, hit


def _lookup(keys: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``values`` where the sorted ``keys`` hold ``at``; NaN where they do not."""
    i, hit = find_sorted(keys, at)
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


def multi_master_sync(reports: ReportColumns, topo: NetworkTopology, *, ccp_period: float,
                      blink_period: float = 0.1, params: WcsParams = WcsParams(),
                      diagnostics: dict | None = None) -> ArrivalTable:
    """Every blink of a report stream on the common timescale:
    ``place(calibrate(...), ...)`` over the reports left once these are
    counted in ``diagnostics`` and dropped, in this order: ticks outside
    [0, 2**40) (``ticks_out_of_range``), an anchor not in ``topo``
    (``unknown_anchor_reports``), a CCP transmission not by a master about
    itself (``ccp_tx_from_non_master``), a CCP reception from a non-master
    (``ccp_rx_unknown_master``); the reports go on as they are when none
    is.  ``calibrate`` and ``place`` then count repeats of a reading
    (``duplicate_reports``), the smallest tick winning.  Both periods must
    be > 0 and finite; ``blink_period`` is a search hint.  Only the
    multiset matters."""
    for name, period in (("ccp_period", ccp_period), ("blink_period", blink_period)):
        if not 0 < period < math.inf:
            raise ValueError(f"{name} must be > 0 and finite, got {period!r}")
    diag = diagnostics if diagnostics is not None else {}
    roles = {a.id: a.role for a in topo.anchors}
    known = np.array([value in roles for value in reports.ids], dtype=bool)
    master = np.array([roles.get(value) == ROLE_MASTER for value in reports.ids], dtype=bool)
    anchor, kind, src, seq, ticks = columns = (
        reports.anchor, reports.kind, reports.src, reports.seq, reports.ticks)
    keep = np.ones(len(reports), dtype=bool)
    for key, bad in (
        ("ticks_out_of_range", ~((ticks >= 0) & (ticks < TICK_WRAP))),
        ("unknown_anchor_reports", ~known[anchor]),
        ("ccp_tx_from_non_master", (kind == CCP_TX) & (~master[anchor] | (src != anchor))),
        ("ccp_rx_unknown_master", (kind == CCP_RX) & ~master[src]),
    ):
        bad &= keep
        tally(diag, key, np.count_nonzero(bad))
        keep &= ~bad

    diag["reports"] = diag.get("reports", 0) + len(reports)
    if not keep.all():
        reports = ReportColumns(reports.ids, *(column[keep] for column in columns))
    return place(calibrate(reports, topo, ccp_period=ccp_period, params=params, diagnostics=diag),
                 reports, blink_period=blink_period, params=params, diagnostics=diag)


def _readings(rows: np.ndarray, columns: tuple, diagnostics: dict | None) -> list[np.ndarray]:
    """``columns`` at the ``rows`` mask, sorted by each column in turn, ticks
    last, with one row per reading: a reading read again (``duplicate_reports``)
    keeps its smallest tick."""
    rows = np.flatnonzero(rows)
    rows = rows[np.lexsort([column[rows] for column in columns[::-1]])]
    first = run_starts(*columns[:-1], order=rows)
    tally(diagnostics, "duplicate_reports", len(rows) - np.count_nonzero(first))
    rows = rows[first]
    return [column[rows] for column in columns]


@dataclass(frozen=True, eq=False)
class SyncState:
    """Every anchor clock's calibration: only the epochs that can place a
    blink, track by track in (anchor, master) order, each track's by seq."""

    ids: tuple[str, ...]  # the report id table that anchor codes index
    ccp_period: float
    epoch_key: np.ndarray  # track * 2**33 + seq, sorted
    epoch_seq: np.ndarray  # the CCP the epoch's clock read, int64
    epoch_ticks: np.ndarray  # its reading of that CCP
    epoch_rate: np.ndarray  # its rate over the window to the next CCP
    epoch_base: np.ndarray  # its master's sending of that CCP after the primary's, s
    track_lo: np.ndarray  # track t holds epochs track_lo[t]:track_hi[t]
    track_hi: np.ndarray
    track_delay: np.ndarray  # CCP flight time from the track's master, s
    tracks_of: np.ndarray  # per anchor code: its number of tracks ...
    first_track: np.ndarray  # ... from this one on


def calibrate(reports: ReportColumns, topo: NetworkTopology, *, ccp_period: float,
              params: WcsParams = WcsParams(), diagnostics: dict | None = None) -> SyncState:
    """The epoch tracks of the CCP rows of ``reports``, in any order, each
    reading once (``_readings``): a master's own transmissions, and a slave's
    receptions of each followed master's CCPs.  Windows out of the rate
    band are counted (``rejected_windows``).  A lower master's base at CCP
    s is its turnaround from its reception of its upper master's CCP s,
    plus their baseline, plus the upper master's base at s.  An epoch whose
    base is NaN, the cascade link broken, is dropped: it can place no blink."""
    ids, n_ids = reports.ids, len(reports.ids)
    code = {value: i for i, value in enumerate(ids)}
    # CCP readings by (anchor, kind, source, seq): epochs come track by track, by seq.
    anchor, kind, src, seq, ticks = _readings(reports.kind != BLINK_RX, (
        reports.anchor, reports.kind, reports.src, reports.seq, reports.ticks), diagnostics)
    pair = anchor.astype(np.int64) * n_ids + src
    followed = np.array(sorted(code[a] * n_ids + code[m] for a in topo.slaves() if a in code
                               for m in topo.follow.get(a, ()) if m in code), np.int64)
    _, follows = find_sorted(followed, pair)
    reading = np.flatnonzero((kind == CCP_TX) | ((kind == CCP_RX) & follows))
    track_key = pair[reading]
    window = (track_key[1:] == track_key[:-1]) & (seq[reading[1:]] == seq[reading[:-1]] + 1)
    window_rate = ts_diff(ticks[reading[1:]], ticks[reading[:-1]]) * TICK_SECONDS / ccp_period
    good = window & (np.abs(window_rate - 1.0) <= params.k_band)
    tally(diagnostics, "rejected_windows", np.count_nonzero(window & ~good))
    epoch, epoch_pair, epoch_rate = reading[:-1][good], track_key[:-1][good], window_rate[good]
    epoch_seq, epoch_ticks, epoch_master = seq[epoch], ticks[epoch], epoch_pair % n_ids

    # Masters in level order: an upper master's own epochs hold its base first.
    primary = topo.primary_master()
    base = np.where(epoch_master == code.get(primary, -1), 0.0, np.nan)
    for name in sorted(topo.masters(), key=lambda m: (topo.master_level[m], m)):
        m, u = code.get(name), code.get(topo.upper_master(name))
        if None in (m, u):
            continue
        own, upper = epoch_pair == m * (n_ids + 1), epoch_pair == u * (n_ids + 1)
        at = epoch_seq[own]
        heard = (kind == CCP_RX) & (anchor == m) & (src == u)
        turnaround = ts_diff(epoch_ticks[own], _lookup(seq[heard], ticks[heard], at))
        own_base = (turnaround * TICK_SECONDS / epoch_rate[own]
                    + topo.baseline(ids[u], name) / SPEED_OF_LIGHT
                    + (0.0 if ids[u] == primary else _lookup(epoch_seq[upper], base[upper], at)))
        base[epoch_master == m] = _lookup(at, own_base, epoch_seq[epoch_master == m])

    usable = ~np.isnan(base)
    epoch_pair, epoch_seq, epoch_ticks, epoch_rate, base = (
        column[usable] for column in (epoch_pair, epoch_seq, epoch_ticks, epoch_rate, base))
    new_track = run_starts(epoch_pair)
    track_lo = np.flatnonzero(new_track)
    track_anchor, track_master = np.divmod(epoch_pair[new_track], n_ids)
    track_delay = np.array([0.0 if a == m else topo.baseline(ids[m], ids[a]) / SPEED_OF_LIGHT
                            for a, m in zip(track_anchor.tolist(), track_master.tolist())])
    return SyncState(ids, ccp_period, (np.cumsum(new_track) - 1) * 2**33 + epoch_seq, epoch_seq,
                     epoch_ticks, epoch_rate, base, track_lo, np.append(track_lo[1:], len(base)),
                     track_delay, np.bincount(track_anchor, minlength=n_ids),
                     np.searchsorted(track_anchor, np.arange(n_ids)))


def _rows_with_tdoa(tag, blink_seq, placed, diagnostics) -> np.ndarray:
    """The placed rows of the blinks, runs of equal (``tag``, ``blink_seq``),
    with two placed rows or more; the other blinks are counted
    (``blinks_without_tdoa``)."""
    starts = np.flatnonzero(run_starts(tag, blink_seq))
    sizes = np.diff(starts, append=len(tag))
    synced = np.add.reduceat(np.append(placed, False), starts, dtype=np.int64) >= 2
    tally(diagnostics, "blinks_without_tdoa", len(starts) - np.count_nonzero(synced))
    return np.flatnonzero(placed & np.repeat(synced, sizes))


def place(state: SyncState, reports: ReportColumns, *, blink_period: float = 0.1,
          params: WcsParams = WcsParams(), diagnostics: dict | None = None) -> ArrivalTable:
    """The blink receptions of ``reports`` (over ``state.ids``, each reading
    once: ``_readings``) on the common timescale, each through the epoch
    nearest its stamp on the first of its receiver's tracks, in master-id
    order, where that epoch is fresh: within ``params.stale_intervals``
    CCP periods of the stamp and half a counter wrap of the schedule.
    Counted in ``diagnostics``: a reception with no usable epoch on any
    track (``unsynchronized_blinks``), one whose tracks are all stale
    (``stale_blinks``), and a blink left with fewer than two arrivals
    (``blinks_without_tdoa``).  A placement depends only on its own stamp
    and hint and on ``state``, so rows go ``ROW_BLOCK`` at a time and any
    split of the blinks places each part the same.  The output's id table
    is compacted by presence (``protocol.present_codes``)."""
    if reports.ids != state.ids:
        raise ValueError("place takes reports over the id table of their calibration")
    s = state
    tag, blink_seq, receiver, stamp = _readings(
        reports.kind == BLINK_RX, (reports.src, reports.seq, reports.anchor, reports.ticks),
        diagnostics)
    schedule_limit = HALF_WRAP * TICK_SECONDS  # tick distances alias beyond this
    offset, ccp_seq, rate = np.zeros(len(tag)), np.zeros(len(tag), np.int64), np.zeros(len(tag))
    placed = np.zeros(len(tag), dtype=bool)
    for block in row_blocks(len(tag)):
        seq_hint = (blink_seq[block] * blink_period / s.ccp_period).astype(np.int64)
        hint_key = np.minimum(seq_hint, 2**32)  # past every seq: the track's last epoch
        for j in range(int(s.tracks_of.max(initial=0))):
            pending = np.flatnonzero(~placed[block] & (s.tracks_of[receiver[block]] > j))
            row = block.start + pending
            t = s.first_track[receiver[row]] + j
            at = np.minimum(np.searchsorted(s.epoch_key, t * 2**33 + hint_key[pending]),
                            s.track_hi[t] - 1)
            e = _nearest(stamp[row], at, s.track_lo[t], s.track_hi[t], s.epoch_ticks)
            gap = ts_diff(stamp[row], s.epoch_ticks[e]) * TICK_SECONDS
            fresh = ~((np.abs(gap) > params.stale_intervals * s.ccp_period)
                      | (np.abs(s.epoch_seq[e] - seq_hint[pending]) * s.ccp_period
                         > schedule_limit))
            row, e = row[fresh], e[fresh]
            offset[row] = gap[fresh] / s.epoch_rate[e] + s.track_delay[t[fresh]] + s.epoch_base[e]
            ccp_seq[row], rate[row], placed[row] = s.epoch_seq[e], s.epoch_rate[e], True
    del stamp
    unsynchronized = s.tracks_of[receiver] == 0
    tally(diagnostics, "stale_blinks", np.count_nonzero(~placed & ~unsynchronized))
    tally(diagnostics, "unsynchronized_blinks", np.count_nonzero(unsynchronized))

    row = _rows_with_tdoa(tag, blink_seq, placed, diagnostics)
    # Each output column replaces its working column, so the two sets are never both held.
    used, (tag, receiver) = present_codes(len(s.ids), tag[row], receiver[row])
    blink_seq = blink_seq[row]
    offset = offset[row]
    ccp_seq = ccp_seq[row]
    rate = rate[row]
    return ArrivalTable(tuple(s.ids[i] for i in used.tolist()), tag, blink_seq, receiver, offset,
                        ccp_seq, rate)
