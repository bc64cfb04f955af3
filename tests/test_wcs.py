"""Clock synchronization: the CCP window rule, TDoA correction, smoothing.

The oracles here are closed-form: timestamps are generated from explicit
clock laws with read_clock, and the expected TDoA is pure geometry
((d_a - d_b) / c), so any systematic error in the correction shows up
directly.  Every correction goes through the stream corrector,
``multi_master_sync``, the one sync path, and comes out as rows of one
arrival table.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from uwb_rtls.clock import TICK_SECONDS, ClockModel, IDEAL_CLOCK, read_clock, ts_diff
from uwb_rtls.config import parse_config
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.metrics import _smoother_gains, smoothed_tdoa_streams
from uwb_rtls.protocol import KIND_BLINK_RX, KIND_CCP_RX, KIND_CCP_TX
from uwb_rtls.simnet import Scenario, StaticTrajectory, TagSpec, run_scenario
from uwb_rtls.topology import AnchorConfig, NetworkTopology
from uwb_rtls.wcs import WcsParams, arrival_tdoa, calibrate, multi_master_sync, place

from conftest import (
    RECT_POSITIONS,
    arrival_table,
    blink_rows,
    build_rect_topology,
    hall_config,
    report_columns,
    report_rows,
    same_columns,
)

CCP_PERIOD = 0.15
# Ticks of one nominal CCP interval.
CCP_TICKS = CCP_PERIOD / TICK_SECONDS


class Window(NamedTuple):
    """MA1's transmit readings and SA2's receive readings of CCPs ``seq``
    and ``seq + 1``."""

    seq: int
    t_s1: float
    t_s2: float
    r_s1: float
    r_s2: float


def make_window(
    master_clock: ClockModel,
    slave_clock: ClockModel,
    *,
    epoch_time: float,
    baseline_m: float,
    seq: int = 1,
    ccp_period: float = CCP_PERIOD,
) -> Window:
    """Window over CCPs ``seq`` (at epoch_time) and ``seq + 1``."""
    prop = baseline_m / SPEED_OF_LIGHT
    return Window(
        seq=seq,
        t_s1=read_clock(master_clock, epoch_time),
        t_s2=read_clock(master_clock, epoch_time + ccp_period),
        r_s1=read_clock(slave_clock, epoch_time + prop),
        r_s2=read_clock(slave_clock, epoch_time + ccp_period + prop),
    )


def _sync_window(w: Window, ma_blink: float, sa_blink: float, *,
                 tag_id="T1", blink_seq=2, params=WcsParams()):
    """Stream-sync one blink heard by MA1 and SA2 through one CCP window.

    The reports are MA1's transmissions of CCPs ``w.seq`` and ``w.seq + 1``,
    SA2's receptions of them, and the two anchors' receptions of the blink.
    Returns the sync output and its diagnostics.
    """
    reports = report_columns([
        ("MA1", KIND_CCP_TX, "MA1", w.seq, w.t_s1),
        ("MA1", KIND_CCP_TX, "MA1", w.seq + 1, w.t_s2),
        ("SA2", KIND_CCP_RX, "MA1", w.seq, w.r_s1),
        ("SA2", KIND_CCP_RX, "MA1", w.seq + 1, w.r_s2),
        ("MA1", KIND_BLINK_RX, tag_id, blink_seq, ma_blink),
        ("SA2", KIND_BLINK_RX, tag_id, blink_seq, sa_blink),
    ])
    diag: dict = {}
    blinks = multi_master_sync(reports, build_rect_topology(), ccp_period=CCP_PERIOD,
                               params=params, diagnostics=diag)
    return blinks, diag


def _sync_one_blink(
    tag_xy,
    master_clock,
    slave_clock,
    *,
    epoch_time=0.15,
    blink_time=0.2,
    tag_id="T1",
    blink_seq=None,
    params=WcsParams(),
):
    """``_sync_window`` over CCPs 1 and 2, sent at ``epoch_time`` and one
    CCP period later, and a blink sent from ``tag_xy`` at ``blink_time``,
    all read from the given clock laws.  Returns the sync output, its
    diagnostics, the window of those CCP stamps and the geometric
    SA2-minus-MA1 TDoA.
    """
    ma_pos, sa_pos = RECT_POSITIONS["MA1"], RECT_POSITIONS["SA2"]
    w = make_window(master_clock, slave_clock, epoch_time=epoch_time,
                    baseline_m=math.dist(ma_pos, sa_pos))
    if blink_seq is None:
        blink_seq = round(blink_time / 0.1)  # the default blink period
    ma_blink, sa_blink = (
        read_clock(clock, blink_time + math.dist(tag_xy, pos) / SPEED_OF_LIGHT)
        for clock, pos in ((master_clock, ma_pos), (slave_clock, sa_pos))
    )
    blinks, diag = _sync_window(w, ma_blink, sa_blink, tag_id=tag_id, blink_seq=blink_seq,
                                params=params)
    want = (math.dist(tag_xy, sa_pos) - math.dist(tag_xy, ma_pos)) / SPEED_OF_LIGHT
    return blinks, diag, w, want


def _tdoa(blinks, first: str, second: str) -> float:
    """The one synced blink's arrival at ``first`` minus its arrival at ``second``."""
    (rows,) = blink_rows(blinks).values()
    return float(arrival_tdoa(blinks, rows[first], rows[second], CCP_PERIOD))


def _rate_ratio(blinks) -> float:
    """SA2's rate over MA1's for the one synced blink: the inverse of the
    paper's K = ΔT/ΔR over the same window."""
    (rows,) = blink_rows(blinks).values()
    return float(blinks.rate[rows["SA2"]] / blinks.rate[rows["MA1"]])


def _pairs(blinks):
    """(blink_seq, a, b, arrival at a minus arrival at b) for every anchor
    pair a < b of every synced blink, blinks in (tag_id, blink_seq) order."""
    for (_, blink_seq), rows in blink_rows(blinks).items():
        for a, b in itertools.combinations(rows, 2):
            yield blink_seq, a, b, float(arrival_tdoa(blinks, rows[a], rows[b], CCP_PERIOD))


# ---------------------------------------------------------------------------
# The CCP window rule: a clock's rate over two consecutive CCPs, and the
# paper's K as the ratio of two arrivals' rates


def _healthy_window() -> Window:
    """Both clocks read CCPs 1 and 2 exactly one nominal interval apart."""
    return Window(1, 1e6, 1e6 + CCP_TICKS, 7e6, 7e6 + CCP_TICKS)


def _sync_stamped(w: Window):
    """``_sync_window`` with the blink read 1e6 ticks after each clock's
    first CCP reading."""
    return _sync_window(w, 2e6, 8e6)


def test_identical_clocks_give_k_one():
    # Readings the same number of ticks apart on both clocks: the two window
    # rates are the same float, so their ratio is exactly 1.
    blinks, diag = _sync_stamped(_healthy_window())
    assert _rate_ratio(blinks) == 1.0
    assert "rejected_windows" not in diag
    # Two clocks with one law, over a real baseline: the readings differ by
    # the propagation delay and the ratio is 1 only to rounding.
    clock = ClockModel(offset=0.002, skew=1.5e-5)
    blinks, _, _, want = _sync_one_blink((1.7, 2.9), clock, clock)
    assert _rate_ratio(blinks) == pytest.approx(1.0, rel=1e-12)
    assert abs(_tdoa(blinks, "SA2", "MA1") - want) < 1e-12


def test_receiver_10ppm_fast_gives_k_inverse():
    # The receiver counts 1 + 1e-5 device seconds per true second, so the
    # same true interval spans more receiver ticks: the paper's K is
    # 1 / (1 + 1e-5), and SA2's rate over MA1's is its inverse.
    blinks, _, _, want = _sync_one_blink((2.0, 1.0), IDEAL_CLOCK, ClockModel(skew=1e-5))
    assert [list(rows) for rows in blink_rows(blinks).values()] == [["MA1", "SA2"]]
    assert _rate_ratio(blinks) == pytest.approx(1.0 + 1e-5, rel=1e-12)
    assert abs(_tdoa(blinks, "SA2", "MA1") - want) < 1e-12


def _assert_window_rejected(w: Window, anchor: str) -> None:
    """``anchor``'s window is rejected and counted, so its blink reception
    cannot be synced and the blink, left with one arrival, is dropped.  With
    that window healthy again the same blink syncs."""
    blinks, diag = _sync_stamped(w)
    assert diag["rejected_windows"] == 1
    assert diag["unsynchronized_blinks"] == 1
    assert len(blinks) == 0
    healthy = _healthy_window()
    if anchor == "MA1":
        w = w._replace(t_s1=healthy.t_s1, t_s2=healthy.t_s2)
    else:
        w = w._replace(r_s1=healthy.r_s1, r_s2=healthy.r_s2)
    blinks, diag = _sync_stamped(w)
    assert "rejected_windows" not in diag
    assert list(blink_rows(blinks)[("T1", 2)]) == ["MA1", "SA2"]


def test_stuck_receiver_is_degenerate():
    # A clock that reads the same tick for two consecutive CCPs has rate 0,
    # on a slave's receptions and on a master's own transmissions alike.
    w = _healthy_window()
    _assert_window_rejected(w._replace(r_s2=w.r_s1), "SA2")
    _assert_window_rejected(w._replace(t_s2=w.t_s1), "MA1")


def test_non_consecutive_timestamps_are_degenerate():
    # The later CCP recorded an earlier tick value without an actual wrap:
    # the rate is negative.
    w = _healthy_window()
    _assert_window_rejected(w._replace(r_s1=w.r_s2, r_s2=w.r_s1), "SA2")
    _assert_window_rejected(w._replace(t_s1=w.t_s2, t_s2=w.t_s1), "MA1")


def test_k_outside_band_is_a_drift_anomaly():
    # 300 ppm apparent rate error, three times the allowed band.
    w = _healthy_window()
    _assert_window_rejected(w._replace(r_s2=7e6 + CCP_TICKS * (1 + 3e-4)), "SA2")
    _assert_window_rejected(w._replace(t_s2=1e6 + CCP_TICKS * (1 + 3e-4)), "MA1")


def test_k_spans_the_counter_wrap():
    # Window placed so the receiver's counter wraps between the two CCPs.
    wrap_time = 2**40 * TICK_SECONDS
    blinks, diag, w, want = _sync_one_blink(
        (2.0, 1.0), IDEAL_CLOCK, IDEAL_CLOCK,
        epoch_time=wrap_time - 0.07, blink_time=wrap_time - 0.02, blink_seq=1)
    assert w.r_s2 < w.r_s1  # wrapped
    assert "rejected_windows" not in diag
    rows = blink_rows(blinks)[("T1", 1)]
    assert blinks.rate[rows["SA2"]] == pytest.approx(1.0, rel=1e-12)
    assert blinks.rate[rows["MA1"]] == pytest.approx(1.0, rel=1e-12)
    assert abs(_tdoa(blinks, "SA2", "MA1") - want) < 1e-12


# ---------------------------------------------------------------------------
# One blink through one CCP window


def _synced_for_tag(tag_xy, master_clock, slave_clock, **kwargs):
    """The stream's SA2-minus-MA1 TDoA of the one blink, and its geometric truth."""
    blinks, _, _, want = _sync_one_blink(tag_xy, master_clock, slave_clock, **kwargs)
    return _tdoa(blinks, "SA2", "MA1"), want


def test_equidistant_tag_syncs_to_zero():
    tdoa, want = _synced_for_tag((3.0, 2.0), IDEAL_CLOCK, IDEAL_CLOCK)
    assert want == 0.0
    assert abs(tdoa) < 1e-15


def test_range_difference_of_0_2998_m_is_one_nanosecond():
    # Tag on the MA1-SA2 segment, 0.2998 m farther from the slave:
    # d_sa - d_ma = 6 - 2x = 0.2998 at x = 2.8501.
    tdoa, want = _synced_for_tag((2.8501, 0.0), IDEAL_CLOCK, IDEAL_CLOCK)
    assert want == pytest.approx(1.000025e-9, rel=1e-6)
    assert tdoa == pytest.approx(want, abs=1e-14)
    assert tdoa == pytest.approx(1.0e-9, rel=1e-4)


def test_offsets_and_skews_cancel_to_sub_picosecond():
    master = ClockModel(offset=0.0071, skew=37e-6)
    slave = ClockModel(offset=-0.0043, skew=-29e-6)
    blinks, _, _, want = _sync_one_blink((1.7, 2.9), master, slave)
    assert abs(_tdoa(blinks, "SA2", "MA1") - want) < 1e-12
    # The raw timestamps alone are useless: the offsets differ by 11.4 ms.
    assert abs(want) < 1e-8
    # SA2's rate over MA1's (the inverse of the paper's K over the same
    # window) is the ratio of the two clock laws.
    assert _rate_ratio(blinks) == pytest.approx((1.0 - 29e-6) / (1.0 + 37e-6), rel=1e-14)


def test_blink_before_the_window_epoch_is_fine():
    tdoa, want = _synced_for_tag((2.0, 1.0), IDEAL_CLOCK, ClockModel(skew=4e-5),
                                 epoch_time=0.15, blink_time=0.1)
    assert abs(tdoa - want) < 1e-12


def test_orientation_and_metadata():
    slave = ClockModel(offset=0.001, skew=1e-5)
    # On the MA1-SA2 segment, 5 m from the master and 1 m from the slave.
    blinks, _, _, _ = _sync_one_blink((5.0, 0.0), IDEAL_CLOCK, slave,
                                      epoch_time=0.15, blink_time=0.2,
                                      tag_id="T9", blink_seq=4)
    assert {key: list(rows) for key, rows in blink_rows(blinks).items()} == {
        ("T9", 4): ["MA1", "SA2"]}
    # Blink is 4 m closer to the slave: it arrives earlier there.
    assert _tdoa(blinks, "SA2", "MA1") == pytest.approx(-4.0 / SPEED_OF_LIGHT, abs=1e-12)
    assert _tdoa(blinks, "SA2", "MA1") == -_tdoa(blinks, "MA1", "SA2")


def test_stale_window_rejected():
    # The only epoch of each anchor, its reading of the CCP sent at 0.15 s,
    # is over two CCP intervals (0.3 s) from the blink at 0.8 s.
    blinks, diag, _, _ = _sync_one_blink((2.0, 1.0), IDEAL_CLOCK, IDEAL_CLOCK,
                                         epoch_time=0.15, blink_time=0.8)
    assert diag["stale_blinks"] == 2
    assert len(blinks) == 0


def test_drifting_clock_needs_a_nearby_window():
    """A frequency ramp is linearized per window, so the window must sit
    next to the blink: error scales with the blink-to-window distance."""
    slave = ClockModel(offset=-0.002, skew=-1e-5, drift_rate=1e-10)
    near, want = _synced_for_tag((1.0, 3.0), IDEAL_CLOCK, slave,
                                 epoch_time=0.15, blink_time=0.2)
    near_err = abs(near - want)
    assert near_err < 1e-12

    stale, _ = _synced_for_tag((1.0, 3.0), IDEAL_CLOCK, slave,
                               epoch_time=0.15, blink_time=3.2,
                               params=WcsParams(stale_intervals=25.0))
    assert abs(stale - want) > 10 * near_err


# ---------------------------------------------------------------------------
# Per-pair smoothing, with the settings ``WcsParams`` holds

DEFAULTS = WcsParams()


def _smooth(measurements) -> list[float]:
    """The smoothed stream of one anchor pair whose TDoAs are ``measurements``."""
    blinks = arrival_table({("T1", i): {"MA1": (float(m), 0, 1.0), "SA2": (0.0, 0, 1.0)}
                            for i, m in enumerate(measurements)})
    return dict(smoothed_tdoa_streams(blinks, CCP_PERIOD, DEFAULTS))["MA1|SA2"]


def test_first_update_adopts_the_measurement():
    assert _smooth([3.3e-9]) == [3.3e-9]
    assert _smoother_gains(1, DEFAULTS) == [1.0]


def test_constant_input_is_a_fixed_point():
    assert _smooth([2.0e-9] * 10) == [2.0e-9] * 10
    # The variance after a step is its gain times the measurement variance,
    # so gains below 1 mean a variance below one measurement's.
    gains = _smoother_gains(10, DEFAULTS)
    assert gains[0] == 1.0 and all(1.0 > g > h for g, h in zip(gains[1:], gains[2:]))


def test_non_finite_measurement_is_skipped():
    with_gaps = _smooth([1.0e-9, float("nan"), float("inf"), 2.0e-9])
    assert with_gaps == _smooth([1.0e-9] * 3 + [2.0e-9])[:1] * 3 + _smooth([1.0e-9, 2.0e-9])[1:]


def test_smoother_attenuates_white_noise_tenfold():
    # Steady state for q = 1e-22, r = 2.5e-19: predicted variance
    # a = (q + sqrt(q^2 + 4 q r)) / 2 gives gain g = a / (a + r) = 0.0198,
    # so the output std on white input noise is sqrt(g / (2 - g)) = 0.100
    # of the input std.  141 ps in -> about 14 ps out.
    rng = np.random.default_rng(1234)
    truth = 5.0e-9
    sigma_in = math.sqrt(2.0) * 1e-10
    out = _smooth(truth + rng.normal(0.0, sigma_in, size=5000))
    settled = np.asarray(out[500:])
    assert abs(float(settled.mean()) - truth) < 5e-12
    assert 5e-12 < float(settled.std()) < 3e-11


# ---------------------------------------------------------------------------
# Stream-level correction


def _rect_reports(duration=2.0, tag_xy=(2.0, 1.5)):
    topo = build_rect_topology()
    scenario = Scenario(
        topology=topo,
        tags=(TagSpec("T1", StaticTrajectory(tag_xy)),),
        duration=duration,
        seed=9,
    )
    return topo, run_scenario(scenario).reports


def _geometric_tdoa(tag_xy, anchor_a, anchor_b):
    """Arrival at ``anchor_a`` minus arrival at ``anchor_b`` from geometry alone."""
    return (
        math.dist(tag_xy, RECT_POSITIONS[anchor_a]) - math.dist(tag_xy, RECT_POSITIONS[anchor_b])
    ) / SPEED_OF_LIGHT


def test_stream_sync_emits_every_pair_and_cycles_close():
    topo, reports = _rect_reports()
    blinks = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    # One arrival per synchronized receiver, in anchor-id order.
    rows = blink_rows(blinks)[("T1", 7)]
    assert list(rows) == ["MA1", "SA2", "SA3", "SA4"]
    one_blink = [(a, b) for seq, a, b, _ in _pairs(blinks) if seq == 7]
    assert len(one_blink) == 6  # all unordered pairs of 4 anchors
    ab = arrival_tdoa(blinks, rows["MA1"], rows["SA2"], CCP_PERIOD)
    bc = arrival_tdoa(blinks, rows["SA2"], rows["SA3"], CCP_PERIOD)
    ac = arrival_tdoa(blinks, rows["MA1"], rows["SA3"], CCP_PERIOD)
    assert ab + bc == pytest.approx(ac, abs=1e-15)


def test_stream_sync_is_order_independent():
    topo, reports = _rect_reports()
    forward = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    backward = multi_master_sync(report_columns(reversed(report_rows(reports))), topo,
                                 ccp_period=CCP_PERIOD)
    assert same_columns(forward, backward)


def test_duplicate_reports_are_counted_and_harmless():
    topo, reports = _rect_reports()
    diag: dict = {}
    base = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    rows = report_rows(reports)
    doubled = multi_master_sync(report_columns(rows + [rows[5]]), topo,
                                ccp_period=CCP_PERIOD, diagnostics=diag)
    assert same_columns(doubled, base)
    assert diag["duplicate_reports"] == 1


def test_conflicting_duplicate_keeps_the_smallest_reading():
    topo, reports = _rect_reports()
    base = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    rows = report_rows(reports)
    r = next(r for r in rows if r[1] == KIND_BLINK_RX)
    late = (*r[:4], r[4] + 1e4)
    for stream in ([late] + rows, rows + [late]):
        diag: dict = {}
        got = multi_master_sync(report_columns(stream), topo, ccp_period=CCP_PERIOD,
                                diagnostics=diag)
        assert same_columns(got, base)
        assert diag["duplicate_reports"] == 1


def test_readings_outside_the_counter_range_are_counted_and_skipped():
    topo, reports = _rect_reports()
    base = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    rows = report_rows(reports)
    r = next(r for r in rows if r[1] == KIND_BLINK_RX)
    bad = [(*r[:4], ticks) for ticks in (math.nan, -1.0, float(2**40))]
    diag: dict = {}
    got = multi_master_sync(report_columns(rows + bad), topo, ccp_period=CCP_PERIOD,
                            diagnostics=diag)
    assert same_columns(got, base)
    assert diag["ticks_out_of_range"] == 3
    assert "duplicate_reports" not in diag


def test_anchor_without_ccp_coverage_is_skipped_and_counted():
    topo, reports = _rect_reports()
    pruned = [r for r in report_rows(reports) if r[:2] != ("SA4", "ccp_rx")]
    diag: dict = {}
    blinks = multi_master_sync(report_columns(pruned), topo, ccp_period=CCP_PERIOD,
                               diagnostics=diag)
    assert all("SA4" not in rows for rows in blink_rows(blinks).values())
    assert diag["unsynchronized_blinks"] > 0
    # Remaining three anchors still produce their three pairs per blink.
    assert {(a, b) for seq, a, b, _ in _pairs(blinks) if seq == 3} == {
        ("MA1", "SA2"), ("MA1", "SA3"), ("SA2", "SA3"),
    }


def test_zero_noise_stream_sync_is_geometric_truth():
    topo, reports = _rect_reports(duration=3.0, tag_xy=(4.1, 0.7))
    synced = list(_pairs(multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)))
    assert synced
    for _, a, b, tdoa in synced:
        assert abs(tdoa - _geometric_tdoa((4.1, 0.7), a, b)) < 1e-12


def test_anchor_back_after_half_a_wrap_away_is_exact():
    """SA2 hears no blink for 9.5 s, over half a counter wrap (8.6 s), late in
    a run longer than one wrap (17.2 s).  Its blinks after that must go
    through the CCP epoch next to them, not one a wrap earlier whose tick
    reading is just as near."""
    topo, reports = _rect_reports(duration=20.0, tag_xy=(4.1, 0.7))
    away = range(80, 175)  # blinks sent from 8.0 s to 17.4 s
    kept = [r for r in report_rows(reports)
            if not (r[:2] == ("SA2", KIND_BLINK_RX) and r[3] in away)]
    diag: dict = {}
    blinks = multi_master_sync(report_columns(kept), topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    assert "stale_blinks" not in diag
    back = [(a, b, tdoa) for seq, a, b, tdoa in _pairs(blinks)
            if "SA2" in (a, b) and seq >= away.stop]
    assert len(back) == 3 * (200 - away.stop)  # three pairs per blink through SA2
    for a, b, tdoa in back:
        assert abs(tdoa - _geometric_tdoa((4.1, 0.7), a, b)) < 1e-12


def test_anchor_without_epochs_for_over_half_a_wrap_is_stale_not_aliased():
    """SA2 loses every CCP after seq 60 (9 s) but keeps hearing blinks to
    20 s.  Past half a wrap of schedule, the nearest-looking epoch is one
    wrap early: those blinks must be counted stale, and every pair through
    SA2 that is kept must match geometry."""
    topo, reports = _rect_reports(duration=20.0, tag_xy=(4.1, 0.7))
    kept = [r for r in report_rows(reports)
            if not (r[:2] == ("SA2", KIND_CCP_RX) and r[3] > 60)]
    diag: dict = {}
    blinks = multi_master_sync(report_columns(kept), topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    through_sa2 = [(a, b, tdoa) for _, a, b, tdoa in _pairs(blinks) if "SA2" in (a, b)]
    assert len(through_sa2) == 276
    for a, b, tdoa in through_sa2:
        assert abs(tdoa - _geometric_tdoa((4.1, 0.7), a, b)) < 1e-12
    # Three pairs per synced SA2 blink; each of its other blinks is stale.
    assert diag["stale_blinks"] == 200 - len(through_sa2) // 3


def test_slaves_sync_through_lost_master_transmit_reports():
    """MA1's ccp_tx reports of CCPs 20-40 are lost.  A slave's epochs are
    its own receptions of the CCPs, so SA2-SA4 still sync every blink in the
    gap; only MA1, which has no epoch there, is counted stale."""
    topo, reports = _rect_reports(duration=8.0, tag_xy=(4.1, 0.7))
    rows = report_rows(reports)
    kept = [r for r in rows if not (r[1] == KIND_CCP_TX and 20 <= r[3] <= 40)]
    diag: dict = {}
    blinks = multi_master_sync(report_columns(kept), topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    rows = blink_rows(blinks)
    assert len(rows) == len({(src, seq) for _, kind, src, seq, _ in report_rows(reports)
                             if kind == KIND_BLINK_RX})
    gap = {seq: anchors for (_, seq), anchors in rows.items() if "MA1" not in anchors}
    assert len(gap) == diag["stale_blinks"] > 0
    assert all(list(anchors) == ["SA2", "SA3", "SA4"] for anchors in gap.values())
    for _, a, b, tdoa in (pair for pair in _pairs(blinks) if pair[0] in gap):
        assert abs(tdoa - _geometric_tdoa((4.1, 0.7), a, b)) < 1e-12


@pytest.mark.parametrize("value", [0.0, -0.15, math.nan, math.inf])
@pytest.mark.parametrize("name", ["ccp_period", "blink_period"])
def test_periods_must_be_positive_and_finite(name, value):
    topo, reports = _rect_reports(duration=0.5)
    periods = {"ccp_period": CCP_PERIOD, "blink_period": 0.1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be > 0 and finite, got {value!r}$"):
        multi_master_sync(reports, topo, **periods)


@pytest.mark.parametrize("key, value", [
    ("k_band", 0.0), ("k_band", -1e-4), ("k_band", 1.0), ("k_band", 2.0), ("k_band", math.nan),
    ("stale_intervals", 0.0), ("stale_intervals", -1.0), ("stale_intervals", math.nan),
    ("stale_intervals", math.inf),
])
def test_window_params_must_be_in_range(key, value):
    with pytest.raises(ValueError, match=key):
        WcsParams(**{key: value})


# ---------------------------------------------------------------------------
# The array sync: faults, nearest-epoch walks and track choice


def test_a_blink_no_receiver_can_place_is_counted_without_tdoa():
    # Both anchors' windows are rejected: the blink keeps no arrival at all.
    w = _healthy_window()
    blinks, diag = _sync_stamped(w._replace(r_s2=w.r_s1, t_s2=w.t_s1))
    assert len(blinks) == 0
    assert diag["unsynchronized_blinks"] == 2
    assert diag["blinks_without_tdoa"] == 1


def _rect_faults(rows: list[tuple]) -> dict[str, list[tuple]]:
    """The rect run's report rows with each fault of the tests above, by name."""
    r = next(r for r in rows if r[1] == KIND_BLINK_RX)
    late = (*r[:4], r[4] + 1e4)
    return {"repeat": rows + [rows[5]], "late repeat first": [late] + rows,
            "late repeat last": rows + [late],
            "out of range": rows + [(*r[:4], ticks) for ticks in (math.nan, -1.0, float(2**40))],
            "no SA4 ccp_rx": [row for row in rows if row[:2] != ("SA4", KIND_CCP_RX)]}


@pytest.mark.parametrize("fault, want", [
    ("repeat", {"reports": 137, "duplicate_reports": 1}),
    ("late repeat first", {"reports": 137, "duplicate_reports": 1}),
    ("late repeat last", {"reports": 137, "duplicate_reports": 1}),
    ("out of range", {"reports": 139, "ticks_out_of_range": 3}),
    ("no SA4 ccp_rx", {"reports": 122, "unsynchronized_blinks": 20}),
])
def test_fault_diagnostics_are_those_of_one_whole_run_dedupe(fault, want):
    # Pinned from the sync that dropped repeats on one sort of every report
    # before calibrating: calibrate and place, each dropping them on its own
    # sort, count the same.
    topo, reports = _rect_reports()
    diag: dict = {}
    multi_master_sync(report_columns(_rect_faults(report_rows(reports))[fault]), topo,
                      ccp_period=CCP_PERIOD, diagnostics=diag)
    assert diag == want


def _sync_state_bytes(state) -> dict:
    return {name: getattr(state, name).tobytes() for name in state.__dataclass_fields__
            if name not in ("ids", "ccp_period")}


def test_calibrate_and_place_keep_the_smallest_in_range_tick_of_each_reading():
    # A ccp_tx, a ccp_rx and a blink_rx reading read again at larger ticks,
    # the two CCP readings once more at a smaller tick, and the blink one
    # at a smaller tick out of [0, 2**40), which the sync's prelude drops.
    topo, reports = _rect_reports()
    rows = report_rows(reports)
    picks = [next(r for r in rows[20:] if r[1] == kind)
             for kind in (KIND_CCP_TX, KIND_CCP_RX, KIND_BLINK_RX)]
    again = [(*r[:4], r[4] + step) for r in picks for step in (7.0, 3e4)]
    again += [(*picks[0][:4], picks[0][4] - 2.0), (*picks[1][:4], picks[1][4] - 1.0),
              (*picks[2][:4], -1.0)]
    stream = again[::2] + rows + again[1::2]
    in_range = [r for r in stream if 0 <= r[4] < 2**40]
    best: dict = {}  # the oracle: per reading, its smallest in-range tick
    for r in in_range:
        if r[:4] not in best or r[4] < best[r[:4]][4]:
            best[r[:4]] = r
    assert {best[r[:4]][4] for r in picks} == {picks[0][4] - 2.0, picks[1][4] - 1.0, picks[2][4]}
    oracle = report_columns(list(best.values()))

    def repeats(kinds):
        return sum(r[1] in kinds for r in in_range) - sum(r[1] in kinds for r in best.values())

    assert repeats((KIND_CCP_TX, KIND_CCP_RX)) == 6 and repeats((KIND_BLINK_RX,)) == 2

    diag: dict = {}
    state = calibrate(report_columns(in_range), topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    want = calibrate(oracle, topo, ccp_period=CCP_PERIOD)
    assert _sync_state_bytes(state) == _sync_state_bytes(want)
    assert diag == {"duplicate_reports": repeats((KIND_CCP_TX, KIND_CCP_RX))}
    diag = {}
    table = place(state, report_columns(in_range), diagnostics=diag)
    assert same_columns(table, place(want, oracle))
    assert diag == {"duplicate_reports": repeats((KIND_BLINK_RX,))}
    diag = {}
    table = multi_master_sync(report_columns(stream), topo, ccp_period=CCP_PERIOD,
                              diagnostics=diag)
    assert same_columns(table, multi_master_sync(oracle, topo, ccp_period=CCP_PERIOD))
    assert diag == {"reports": len(stream), "ticks_out_of_range": 1,
                    "duplicate_reports": len(in_range) - len(best)}


def _hall_sync(reports, **kwargs):
    cfg = parse_config(hall_config())
    diag: dict = {}
    blinks = multi_master_sync(reports, cfg.scenario.topology, diagnostics=diag,
                               ccp_period=cfg.scenario.ccp_period, **kwargs)
    return blinks, diag


def test_faulty_hall_stream_gives_the_clean_table(hall_run):
    # Shuffled, every 7th report repeated at a larger tick, and three copies
    # pushed out of [0, 2**40): each fault is counted under its key, and
    # the table is the clean run's, bit for bit.
    records = report_rows(hall_run.reports)
    clean, clean_diag = _hall_sync(hall_run.reports)
    repeats = [(*r[:4], r[4] + 0.5) for r in records[::7] if r[4] + 0.5 < 2**40]
    r = records[100]
    pushed = [(*r[:4], ticks) for ticks in (math.nan, -1.0, float(2**40))]
    faulty = records + repeats + pushed
    random.Random(19).shuffle(faulty)
    blinks, diag = _hall_sync(report_columns(faulty))
    assert same_columns(blinks, clean)
    assert len(blinks) > 10_000 and set(clean_diag) == {"reports"}
    assert diag == {"reports": len(faulty), "duplicate_reports": len(repeats),
                    "ticks_out_of_range": 3}


def _readings(reports, anchor: str, kind: str, src: str) -> dict[int, float]:
    return {seq: ticks for *key, seq, ticks in report_rows(reports)
            if key == [anchor, kind, src]}


def test_nearest_epoch_walk_takes_several_steps_across_a_counter_wrap():
    # SA2's counter wraps 1 s into the run.  With a blink period of 0.05 s
    # given to the sync, a blink's hint lands four CCPs before its nearest
    # epoch, and the walk from there crosses the wrap; it ends where the
    # true hint starts, so the table is the same bit for bit.
    wrap_seconds = 2**40 * TICK_SECONDS
    topo = build_rect_topology(clocks={"SA2": ClockModel(offset=wrap_seconds - 1.0)})
    tags = (TagSpec("T1", StaticTrajectory((4.1, 0.7))),)
    reports = run_scenario(Scenario(topology=topo, tags=tags, duration=2.0, seed=9)).reports
    exact = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    early = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD, blink_period=0.05)
    assert same_columns(early, exact)
    sa2 = _readings(reports, "SA2", KIND_CCP_RX, "MA1")
    walked = 0
    for (_, seq), rows in blink_rows(exact).items():
        hint, epoch = int(seq * 0.05 / CCP_PERIOD), int(exact.ccp_seq[rows["SA2"]])
        walked += epoch - hint >= 3 and sa2[hint] > sa2[epoch]  # the counter wrapped between
    assert walked >= 3
    for _, a, b, tdoa in _pairs(exact):
        assert abs(tdoa - _geometric_tdoa((4.1, 0.7), a, b)) < 1e-12


def test_seq_hint_past_the_last_epoch_walks_back():
    # Over 2 s the last epoch is CCP 12.  With a blink period of 0.4 s given
    # to the sync, every blink from seq 5 on is hinted past it: the walk
    # starts at the last epoch and goes back to the nearest one.
    topo, reports = _rect_reports(duration=2.0, tag_xy=(4.1, 0.7))
    exact = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    late = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD, blink_period=0.4)
    assert same_columns(late, exact)
    assert int(exact.ccp_seq.max()) == 12
    past = [seq for (_, seq) in blink_rows(exact) if int(seq * 0.4 / CCP_PERIOD) > 12]
    assert len(past) == 15


def test_bridging_slave_takes_its_first_fresh_track_in_master_id_order(hall_run):
    # A slave that follows several masters is placed through the first of
    # their tracks, in master-id order, whose nearest epoch is fresh: its
    # rate is that track's window rate, bit for bit.  Without the first
    # master's CCPs for 60 rounds, the blinks in the gap take the second.
    topo = parse_config(hall_config()).scenario.topology
    slave = min(s for s in topo.slaves() if len(topo.follow[s]) >= 2)
    first, second = sorted(topo.follow[slave])[:2]
    gap = range(40, 100)
    kept = report_columns([r for r in report_rows(hall_run.reports)
                           if not (r[0] == slave and r[2] == first and r[3] in gap)])

    def masters_used(blinks, reports):
        readings = {m: _readings(reports, slave, KIND_CCP_RX, m) for m in (first, second)}
        used = {}
        for (_, seq), rows in blink_rows(blinks).items():
            if slave in rows:
                i = rows[slave]
                s = int(blinks.ccp_seq[i])
                used[seq] = [m for m, r in readings.items() if s + 1 in r and s in r and float(
                    blinks.rate[i]) == ts_diff(r[s + 1], r[s]) * TICK_SECONDS / CCP_PERIOD]
        return used

    clean = masters_used(_hall_sync(hall_run.reports)[0], hall_run.reports)
    assert clean and all(m[:1] == [first] for m in clean.values())
    gapped = masters_used(_hall_sync(kept)[0], kept)
    in_gap = {seq: m for seq, m in gapped.items() if 45 * 1.5 <= seq <= 95 * 1.5}
    assert in_gap and all(m == [second] for m in in_gap.values())
    assert all(gapped[seq][:1] == [first] for seq in gapped if seq < 35 * 1.5 or seq > 105 * 1.5)


# ---------------------------------------------------------------------------
# A three-level master cascade, whole and with one link broken

CASCADE_POSITIONS = {"MA1": (0.0, 0.0), "MB1": (10.0, 0.0), "MC1": (20.0, 0.0),
                     "SA1": (0.0, 8.0), "SB1": (10.0, 8.0), "SC1": (20.0, 8.0)}
CASCADE_TAG = (12.0, 3.0)


def _cascade_reports():
    """MA1 (level 1) <- MB1 (level 2) <- MC1 (level 3), each with one slave,
    every clock with its own offset and skew and no jitter; one static tag
    for 3 s, heard by all six anchors."""
    clocks = {"MA1": ClockModel(offset=0.0012, skew=8e-6),
              "MB1": ClockModel(offset=3.7, skew=-1.9e-5),
              "MC1": ClockModel(offset=11.25, skew=2.6e-5),
              "SA1": ClockModel(offset=-0.0034, skew=-1.2e-5),
              "SB1": ClockModel(offset=6.1, skew=3.1e-5),
              "SC1": ClockModel(offset=15.9, skew=-2.7e-5)}
    follow = {"MB1": "MA1", "MC1": "MB1", "SA1": "MA1", "SB1": "MB1", "SC1": "MC1"}
    topo = NetworkTopology(
        anchors=tuple(AnchorConfig(id=a, role="master" if a[0] == "M" else "slave",
                                   position=pos, clock=clocks[a])
                      for a, pos in CASCADE_POSITIONS.items()),
        follow={a: frozenset({m}) for a, m in follow.items()},
        master_level={"MA1": 1, "MB1": 2, "MC1": 3}, lag_slots={"MB1": 1, "MC1": 1})
    tags = (TagSpec("T1", StaticTrajectory(CASCADE_TAG)),)
    return topo, run_scenario(Scenario(topology=topo, tags=tags, duration=3.0, seed=9)).reports


def _assert_cascade_geometric(blinks) -> None:
    pairs = list(_pairs(blinks))
    assert len(pairs) == 15 * 30  # every pair of six anchors, every blink
    for _, a, b, tdoa in pairs:
        want = (math.dist(CASCADE_TAG, CASCADE_POSITIONS[a])
                - math.dist(CASCADE_TAG, CASCADE_POSITIONS[b])) / SPEED_OF_LIGHT
        assert abs(tdoa - want) < 1e-12


def test_three_level_cascade_is_geometric_truth():
    # MC1 and SC1 reach the primary's timescale only through MB1's offset,
    # itself folded onto MA1's: any level left out shows as milliseconds.
    topo, reports = _cascade_reports()
    diag: dict = {}
    blinks = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    assert set(diag) == {"reports"}
    _assert_cascade_geometric(blinks)


def test_broken_cascade_link_loses_one_epoch_not_the_blinks_near_it():
    # MB1 misses MA1's CCP 5, so no anchor under MB1 has a usable epoch at
    # CCP 5.  Those epochs are dropped: the blinks nearest CCP 5 go through
    # CCP 4 or 6 instead, every one of them placed and exact.
    topo, reports = _cascade_reports()
    kept = [r for r in report_rows(reports) if r[:4] != ("MB1", KIND_CCP_RX, "MA1", 5)]
    assert len(kept) == len(reports) - 1
    diag: dict = {}
    blinks = multi_master_sync(report_columns(kept), topo, ccp_period=CCP_PERIOD,
                               diagnostics=diag)
    assert set(diag) == {"reports"}
    assert len(blinks) == 6 * 30 and np.isfinite(blinks.offset).all()
    _assert_cascade_geometric(blinks)
    below = np.isin(blinks.anchor, [blinks.ids.index(a) for a in ("MB1", "MC1", "SB1", "SC1")])
    assert 5 not in blinks.ccp_seq[below] and 5 in blinks.ccp_seq[~below]


def test_place_takes_reports_over_the_id_table_of_their_calibration():
    topo, reports = _cascade_reports()
    state = calibrate(reports, topo, ccp_period=CCP_PERIOD)
    assert len(place(state, reports)) == 6 * 30
    without_sc1 = report_columns([r for r in report_rows(reports) if r[0] != "SC1"])
    with pytest.raises(ValueError, match="id table"):
        place(state, without_sc1)
