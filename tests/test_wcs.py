"""Clock synchronization: scale coefficients, TDoA correction, smoothing.

The oracles here are closed-form: timestamps are generated from explicit
clock laws with read_clock, and the expected TDoA is pure geometry
((d_a - d_b) / c), so any systematic error in the correction shows up
directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwb_rtls.clock import ClockModel, IDEAL_CLOCK, Timestamp, read_clock, ts_diff
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.simnet import Scenario, StaticTrajectory, TagSpec, run_scenario
from uwb_rtls.wcs import (
    CcpPairWindow,
    DEFAULT_MEASUREMENT_VAR,
    DegenerateWindowError,
    DriftAnomalyError,
    StaleSyncError,
    SyncedTdoa,
    TdoaKalman,
    kalman_smooth,
    multi_master_sync,
    scale_coefficient,
    sync_tdoa,
    synced_pairs,
)

from conftest import RECT_CLOCKS, RECT_POSITIONS, build_rect_topology

CCP_PERIOD = 0.15


def make_window(
    master_clock: ClockModel,
    slave_clock: ClockModel,
    *,
    epoch_time: float,
    baseline_m: float,
    seq: int = 1,
    ccp_period: float = CCP_PERIOD,
) -> CcpPairWindow:
    """Window over CCPs ``seq`` (at epoch_time) and ``seq + 1``."""
    prop = baseline_m / SPEED_OF_LIGHT
    return CcpPairWindow(
        master_id="MA1",
        sa_id="SA2",
        seq=seq,
        t_s1=read_clock(master_clock, epoch_time),
        t_s2=read_clock(master_clock, epoch_time + ccp_period),
        r_s1=read_clock(slave_clock, epoch_time + prop),
        r_s2=read_clock(slave_clock, epoch_time + ccp_period + prop),
    )


# ---------------------------------------------------------------------------
# Scale coefficient


def test_identical_clocks_give_k_one():
    clock = ClockModel(offset=0.002, skew=1.5e-5)
    # Co-located pair: identical sampling instants, so the tick differences
    # are bit-identical and K is exactly 1.
    assert scale_coefficient(make_window(clock, clock, epoch_time=1.0, baseline_m=0.0)) == 1.0
    # With a real baseline the readings differ by the propagation delay and
    # K is 1 only to rounding.
    w = make_window(clock, clock, epoch_time=1.0, baseline_m=6.0)
    assert scale_coefficient(w) == pytest.approx(1.0, rel=1e-12)


def test_receiver_10ppm_fast_gives_k_inverse():
    # The receiver counts 1 + 1e-5 device seconds per true second, so the
    # same true interval spans more receiver ticks: K = 1 / (1 + 1e-5).
    w = make_window(IDEAL_CLOCK, ClockModel(skew=1e-5), epoch_time=1.0, baseline_m=6.0)
    k = scale_coefficient(w)
    assert k == pytest.approx(1.0 / (1.0 + 1e-5), rel=1e-12)
    assert k < 1.0


def test_stuck_receiver_is_degenerate():
    w = CcpPairWindow("MA1", "SA2", 0, Timestamp(100.0), Timestamp(9700.0),
                      Timestamp(500.0), Timestamp(500.0))
    with pytest.raises(DegenerateWindowError):
        scale_coefficient(w)


def test_non_consecutive_timestamps_are_degenerate():
    # Later CCP recorded an earlier tick value without an actual wrap.
    w = CcpPairWindow("MA1", "SA2", 0, Timestamp(9700.0), Timestamp(100.0),
                      Timestamp(500.0), Timestamp(10100.0))
    with pytest.raises(DegenerateWindowError):
        scale_coefficient(w)


def test_k_outside_band_is_a_drift_anomaly():
    # 300 ppm apparent rate difference, three times the allowed band.
    w = CcpPairWindow("MA1", "SA2", 0, Timestamp(1000.0), Timestamp(2000.0),
                      Timestamp(1000.0), Timestamp(2000.3))
    with pytest.raises(DriftAnomalyError):
        scale_coefficient(w)


def test_k_spans_the_counter_wrap():
    # Window placed so the receiver's counter wraps between the two CCPs.
    wrap_time = 2**40 * (1.0 / (128 * 499.2e6))
    w = make_window(IDEAL_CLOCK, IDEAL_CLOCK, epoch_time=wrap_time - 0.07, baseline_m=6.0)
    assert w.r_s2.ticks < w.r_s1.ticks  # wrapped
    assert scale_coefficient(w) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Single-pair TDoA correction


def _synced_for_tag(tag_xy, master_clock, slave_clock, *, epoch_time=0.15, blink_time=0.2):
    ma_pos, sa_pos = RECT_POSITIONS["MA1"], RECT_POSITIONS["SA2"]
    baseline = math.dist(ma_pos, sa_pos)
    d_ma = math.dist(tag_xy, ma_pos)
    d_sa = math.dist(tag_xy, sa_pos)
    w = make_window(master_clock, slave_clock, epoch_time=epoch_time, baseline_m=baseline)
    raw_sa = read_clock(slave_clock, blink_time + d_sa / SPEED_OF_LIGHT)
    raw_ma = read_clock(master_clock, blink_time + d_ma / SPEED_OF_LIGHT)
    s = sync_tdoa(raw_sa, raw_ma, w, baseline_m=baseline, ccp_period=CCP_PERIOD)
    return s, (d_sa - d_ma) / SPEED_OF_LIGHT


def test_equidistant_tag_syncs_to_zero():
    s, want = _synced_for_tag((3.0, 2.0), IDEAL_CLOCK, IDEAL_CLOCK)
    assert want == 0.0
    assert abs(s.tdoa_sync) < 1e-15


def test_range_difference_of_0_2998_m_is_one_nanosecond():
    # Tag on the MA1-SA2 segment, 0.2998 m farther from the slave:
    # d_sa - d_ma = 6 - 2x = 0.2998 at x = 2.8501.
    s, want = _synced_for_tag((2.8501, 0.0), IDEAL_CLOCK, IDEAL_CLOCK)
    assert want == pytest.approx(1.000025e-9, rel=1e-6)
    assert s.tdoa_sync == pytest.approx(want, abs=1e-14)
    assert s.tdoa_sync == pytest.approx(1.0e-9, rel=1e-4)


def test_offsets_and_skews_cancel_to_sub_picosecond():
    master = ClockModel(offset=0.0071, skew=37e-6)
    slave = ClockModel(offset=-0.0043, skew=-29e-6)
    s, want = _synced_for_tag((1.7, 2.9), master, slave)
    assert abs(s.tdoa_sync - want) < 1e-12
    # The raw timestamps alone are useless: the offsets differ by 11.4 ms.
    assert abs(want) < 1e-8


def test_blink_before_the_window_epoch_is_fine():
    s, want = _synced_for_tag((2.0, 1.0), IDEAL_CLOCK, ClockModel(skew=4e-5),
                              epoch_time=0.15, blink_time=0.1)
    assert abs(s.tdoa_sync - want) < 1e-12


def test_orientation_and_metadata():
    slave = ClockModel(offset=0.001, skew=1e-5)
    ma_pos, sa_pos = RECT_POSITIONS["MA1"], RECT_POSITIONS["SA2"]
    baseline = math.dist(ma_pos, sa_pos)
    w = make_window(IDEAL_CLOCK, slave, epoch_time=0.15, baseline_m=baseline)
    raw_sa = read_clock(slave, 0.2 + 1.0 / SPEED_OF_LIGHT)
    raw_ma = read_clock(IDEAL_CLOCK, 0.2 + 5.0 / SPEED_OF_LIGHT)
    s = sync_tdoa(raw_sa, raw_ma, w, baseline_m=baseline, ccp_period=CCP_PERIOD,
                  tag_id="T9", blink_seq=4)
    assert (s.anchor_a, s.anchor_b) == ("SA2", "MA1")
    assert (s.tag_id, s.blink_seq) == ("T9", 4)
    # Blink is 4 m closer to the slave: it arrives earlier there.
    assert s.tdoa_sync == pytest.approx(-4.0 / SPEED_OF_LIGHT, abs=1e-12)
    assert s.signed("SA2", "MA1") == s.tdoa_sync
    assert s.signed("MA1", "SA2") == -s.tdoa_sync
    with pytest.raises(KeyError):
        s.signed("MA1", "SA9")


def test_stale_window_rejected():
    with pytest.raises(StaleSyncError):
        _synced_for_tag((2.0, 1.0), IDEAL_CLOCK, IDEAL_CLOCK,
                        epoch_time=0.15, blink_time=0.8)


def test_drifting_clock_needs_a_nearby_window():
    """A frequency ramp is linearized per window, so the window must sit
    next to the blink: error scales with the blink-to-window distance."""
    slave = ClockModel(offset=-0.002, skew=-1e-5, drift_rate=1e-10)
    near, want = _synced_for_tag((1.0, 3.0), IDEAL_CLOCK, slave,
                                 epoch_time=0.15, blink_time=0.2)
    near_err = abs(near.tdoa_sync - want)
    assert near_err < 1e-12

    ma_pos, sa_pos = RECT_POSITIONS["MA1"], RECT_POSITIONS["SA2"]
    baseline = math.dist(ma_pos, sa_pos)
    d_ma = math.dist((1.0, 3.0), ma_pos)
    d_sa = math.dist((1.0, 3.0), sa_pos)
    old_window = make_window(IDEAL_CLOCK, slave, epoch_time=0.15, baseline_m=baseline)
    raw_sa = read_clock(slave, 3.2 + d_sa / SPEED_OF_LIGHT)
    raw_ma = read_clock(IDEAL_CLOCK, 3.2 + d_ma / SPEED_OF_LIGHT)
    stale = sync_tdoa(raw_sa, raw_ma, old_window, baseline_m=baseline,
                      ccp_period=CCP_PERIOD, stale_intervals=25.0)
    assert abs(stale.tdoa_sync - want) > 10 * near_err


# ---------------------------------------------------------------------------
# Scalar smoothing


def test_first_update_adopts_the_measurement():
    f = kalman_smooth(TdoaKalman(), 3.3e-9)
    assert f.state == 3.3e-9
    assert f.variance == DEFAULT_MEASUREMENT_VAR


def test_constant_input_is_a_fixed_point():
    f = TdoaKalman()
    for _ in range(10):
        f = kalman_smooth(f, 2.0e-9)
    assert f.state == 2.0e-9
    assert f.variance < DEFAULT_MEASUREMENT_VAR


def test_non_finite_measurement_is_skipped():
    f = kalman_smooth(TdoaKalman(), 1.0e-9)
    assert kalman_smooth(f, float("nan")) == f
    assert kalman_smooth(f, float("inf")) == f


def test_smoother_attenuates_white_noise_tenfold():
    # Steady state for q = 1e-22, r = 2.5e-19: predicted variance
    # a = (q + sqrt(q^2 + 4 q r)) / 2 gives gain g = a / (a + r) = 0.0198,
    # so the output std on white input noise is sqrt(g / (2 - g)) = 0.100
    # of the input std.  141 ps in -> about 14 ps out.
    rng = np.random.default_rng(1234)
    truth = 5.0e-9
    sigma_in = math.sqrt(2.0) * 1e-10
    f = TdoaKalman()
    out = []
    for z in truth + rng.normal(0.0, sigma_in, size=5000):
        f = kalman_smooth(f, float(z))
        out.append(f.state)
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


def test_stream_sync_matches_single_pair_sync_bitwise():
    """The stream corrector on a single-master net must agree exactly with
    the one-window primitive fed the same timestamps."""
    topo, reports = _rect_reports()
    synced = synced_pairs(multi_master_sync(reports, topo, ccp_period=CCP_PERIOD), CCP_PERIOD)
    by_key = {(s.anchor_a, s.anchor_b, s.blink_seq): s for s in synced}

    # Blink seq 1 fires at 0.100 s; its nearest CCP epoch is seq 1 at 0.150 s.
    tag_xy = (2.0, 1.5)
    ma_clock, sa_clock = RECT_CLOCKS["MA1"], RECT_CLOCKS["SA2"]
    baseline = 6.0
    w = make_window(ma_clock, sa_clock, epoch_time=0.15, baseline_m=baseline, seq=1)
    raw_sa = read_clock(sa_clock, 0.1 + math.dist(tag_xy, RECT_POSITIONS["SA2"]) / SPEED_OF_LIGHT)
    raw_ma = read_clock(ma_clock, 0.1 + math.dist(tag_xy, RECT_POSITIONS["MA1"]) / SPEED_OF_LIGHT)
    single = sync_tdoa(raw_sa, raw_ma, w, baseline_m=baseline, ccp_period=CCP_PERIOD,
                       tag_id="T1", blink_seq=1)

    stream = by_key[("MA1", "SA2", 1)]
    assert stream.signed("SA2", "MA1") == single.tdoa_sync
    assert stream.k_used == pytest.approx(1.0 / single.k_used, rel=1e-14)


def test_stream_sync_emits_every_pair_and_cycles_close():
    topo, reports = _rect_reports()
    blinks = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    # One arrival per synchronized receiver, in anchor-id order.
    assert list(blinks[("T1", 7)]) == ["MA1", "SA2", "SA3", "SA4"]
    synced = list(synced_pairs(blinks, CCP_PERIOD))
    one_blink = [s for s in synced if s.blink_seq == 7]
    assert len(one_blink) == 6  # all unordered pairs of 4 anchors
    by_pair = {(s.anchor_a, s.anchor_b): s for s in one_blink}
    ab = by_pair[("MA1", "SA2")].signed("MA1", "SA2")
    bc = by_pair[("SA2", "SA3")].signed("SA2", "SA3")
    ac = by_pair[("MA1", "SA3")].signed("MA1", "SA3")
    assert ab + bc == pytest.approx(ac, abs=1e-15)


def test_stream_sync_is_order_independent():
    topo, reports = _rect_reports()
    forward = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    backward = multi_master_sync(list(reversed(reports)), topo, ccp_period=CCP_PERIOD)
    assert list(forward.items()) == list(backward.items())
    assert list(synced_pairs(forward, CCP_PERIOD)) == list(synced_pairs(backward, CCP_PERIOD))


def test_duplicate_reports_are_counted_and_harmless():
    topo, reports = _rect_reports()
    diag: dict = {}
    base = multi_master_sync(reports, topo, ccp_period=CCP_PERIOD)
    doubled = multi_master_sync(list(reports) + [reports[5]], topo,
                                ccp_period=CCP_PERIOD, diagnostics=diag)
    assert list(doubled.items()) == list(base.items())
    assert diag["duplicate_reports"] == 1


def test_anchor_without_ccp_coverage_is_skipped_and_counted():
    topo, reports = _rect_reports()
    pruned = [r for r in reports if not (r.anchor_id == "SA4" and r.kind == "ccp_rx")]
    diag: dict = {}
    blinks = multi_master_sync(pruned, topo, ccp_period=CCP_PERIOD, diagnostics=diag)
    assert all("SA4" not in arrivals for arrivals in blinks.values())
    synced = list(synced_pairs(blinks, CCP_PERIOD))
    assert all("SA4" not in (s.anchor_a, s.anchor_b) for s in synced)
    assert diag["unsynchronized_blinks"] > 0
    # Remaining three anchors still produce their three pairs per blink.
    assert {(s.anchor_a, s.anchor_b) for s in synced if s.blink_seq == 3} == {
        ("MA1", "SA2"), ("MA1", "SA3"), ("SA2", "SA3"),
    }


def test_zero_noise_stream_sync_is_geometric_truth():
    topo, reports = _rect_reports(duration=3.0, tag_xy=(4.1, 0.7))
    synced = list(synced_pairs(multi_master_sync(reports, topo, ccp_period=CCP_PERIOD),
                               CCP_PERIOD))
    assert synced
    for s in synced:
        want = (
            math.dist((4.1, 0.7), RECT_POSITIONS[s.anchor_a])
            - math.dist((4.1, 0.7), RECT_POSITIONS[s.anchor_b])
        ) / SPEED_OF_LIGHT
        assert abs(s.tdoa_sync - want) < 1e-12
