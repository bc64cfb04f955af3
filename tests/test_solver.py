"""Position estimation: EKF pieces, least squares, and tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.solver import (
    GEOMETRY_BLOCK,
    AmbiguityError,
    EkfState,
    _measurement_arrays,
    _objective_grid,
    TrackerConfig,
    ekf_predict,
    ekf_update,
    ls_solve,
    make_tracker_state,
    measurement_covariance,
    process_noise,
    range_diffs,
    sum_over_anchors,
    track,
    transition_matrix,
)
from uwb_rtls.timebase import TdoaSet

RECT = {"MA1": (0.0, 0.0), "SA2": (6.0, 0.0), "SA3": (6.0, 4.0), "SA4": (0.0, 4.0)}


def tdoa_set(tag_xy, anchors=RECT, ref="MA1", seq=0, jitter=None):
    """Range differences (meters) for a tag at ``tag_xy``; optional additive
    per-measurement noise array."""
    d = {a: math.dist(tag_xy, p) for a, p in anchors.items()}
    names = sorted(a for a in anchors if a != ref)
    meas = []
    for i, a in enumerate(names):
        v = d[a] - d[ref]
        if jitter is not None:
            v += jitter[i]
        meas.append((a, v))
    return TdoaSet(tag_id="T1", blink_seq=seq, reference_anchor=ref, measurements=tuple(meas))


# ---------------------------------------------------------------------------
# Model matrices


def test_transition_matrix_shape_and_coupling():
    f = transition_matrix(0.01)
    want = np.eye(4)
    want[0, 2] = want[1, 3] = 0.01
    assert np.array_equal(f, want)


def test_process_noise_is_discrete_white_acceleration():
    dt, sa = 0.1, 2.0
    q = process_noise(dt, sa)
    assert q[0, 0] == pytest.approx(sa**2 * dt**4 / 4)
    assert q[0, 2] == pytest.approx(sa**2 * dt**3 / 2)
    assert q[2, 2] == pytest.approx(sa**2 * dt**2)
    assert q[0, 1] == 0.0
    assert np.array_equal(q, q.T)
    # Exactly PSD in theory (rank-2 outer product); allow rounding at zero.
    assert np.all(np.linalg.eigvalsh(q) > -1e-12 * q.max())


def test_measurement_covariance_shares_reference_noise():
    r = measurement_covariance(3, 1e-10)
    unit = (SPEED_OF_LIGHT * 1e-10) ** 2
    assert r[0, 0] == pytest.approx(2 * unit)
    assert r[0, 1] == pytest.approx(unit)
    assert np.array_equal(r, r.T)


def test_predict_from_zero_covariance_gains_q():
    state = EkfState(x=np.zeros(4), P=np.zeros((4, 4)), Q=process_noise(0.1), dt=0.1)
    out = ekf_predict(state)
    assert np.allclose(out.P, state.Q)
    assert np.array_equal(out.P, out.P.T)


def test_predict_moves_with_velocity():
    x = np.array([1.0, 2.0, 0.5, -0.25])
    state = EkfState(x=x, P=np.eye(4), Q=process_noise(0.1), dt=0.1)
    out = ekf_predict(state)
    assert out.x == pytest.approx([1.05, 1.975, 0.5, -0.25])


def test_update_with_perfect_measurement_keeps_position():
    truth = (2.5, 1.5)
    state = make_tracker_state(truth, dt=0.1)
    trace_before = float(np.trace(state.P))
    out, fix = ekf_update(state, tdoa_set(truth), RECT)
    assert (fix.x, fix.y) == pytest.approx(truth, abs=1e-12)
    assert float(np.trace(out.P)) < trace_before
    assert fix.residual_norm == pytest.approx(0.0, abs=1e-12)


def test_update_pulls_toward_the_measurement():
    state = make_tracker_state((3.2, 2.2), dt=0.1)
    _, fix = ekf_update(state, tdoa_set((3.0, 2.0)), RECT)
    before = math.dist((3.2, 2.2), (3.0, 2.0))
    after = math.dist((fix.x, fix.y), (3.0, 2.0))
    assert after < before


def test_tag_on_reference_anchor_skips_update():
    state = make_tracker_state(RECT["MA1"], dt=0.1)
    out, fix = ekf_update(state, tdoa_set((0.5, 0.5)), RECT)
    assert np.array_equal(out.x, state.x)
    assert math.isnan(fix.residual_norm)


XY = np.array([RECT[a] for a in ["MA1", "SA2", "SA3", "SA4"]])


def geometry(pos):
    """Range differences (M,) and gradient rows (M, 2) at one point."""
    h, grad, _ = range_diffs(pos[:1], pos[1:], XY, gradient=True)
    return h[:, 0], grad[:, :, 0].T


def test_tag_on_another_anchor_drops_only_that_row():
    state = make_tracker_state(RECT["SA3"], dt=0.1)
    meas = tdoa_set(RECT["SA3"])
    rest = TdoaSet(tag_id="T1", blink_seq=0, reference_anchor="MA1",
                   measurements=tuple(m for m in meas.measurements if m[0] != "SA3"))
    out, fix = ekf_update(state, meas, RECT)
    want, want_fix = ekf_update(state, rest, RECT)
    assert np.array_equal(out.x, want.x) and np.array_equal(out.P, want.P)
    assert fix == want_fix
    assert float(np.trace(out.P)) < float(np.trace(state.P))


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    eps = 1e-6
    for _ in range(100):
        pos = rng.uniform((-2.0, -2.0), (8.0, 6.0))
        if min(math.dist(pos, p) for p in RECT.values()) < 0.05:
            continue
        h, rows = geometry(pos)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = eps
            hp, _ = geometry(pos + step)
            hm, _ = geometry(pos - step)
            numeric = (hp - hm) / (2 * eps)
            scale = np.maximum(np.abs(rows[:, axis]), 1.0)
            assert np.all(np.abs(rows[:, axis] - numeric) / scale <= 1e-6)


# ---------------------------------------------------------------------------
# Least squares

def test_sum_over_anchors_is_the_same_for_one_point_and_a_block():
    a = np.random.default_rng(5).random((35, 64))
    block = sum_over_anchors(a)
    for n in range(a.shape[1]):
        assert sum_over_anchors(a[:, n : n + 1].copy())[0] == block[n]


RING = {f"R{i:02d}": (10.0 * math.cos(i / 2.0), 7.0 * math.sin(i / 2.0)) for i in range(12)}


@pytest.mark.parametrize("anchors,ref", [(RECT, "MA1"), (RING, "R03")])
@pytest.mark.parametrize("nx,ny,last_block", [(81, 61, 845), (17, 241, 1)])
def test_grid_objective_is_the_sequential_per_anchor_sum_across_blocks(
    anchors, ref, nx, ny, last_block
):
    assert nx * ny > GEOMETRY_BLOCK and nx * ny % GEOMETRY_BLOCK == last_block
    xy, diffs = _measurement_arrays(tdoa_set((2.0, 1.5), anchors, ref), anchors)
    xs = np.arange(nx) * 0.1 - 1.0
    ys = np.arange(ny) * 0.025 - 1.0
    # The single-pass reference: one full-grid residual per anchor, in order.
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    d_ref = np.hypot(gx - xy[0, 0], gy - xy[0, 1])
    want = np.zeros_like(gx)
    for p_i, d in zip(xy[1:], diffs):
        r = np.hypot(gx - p_i[0], gy - p_i[1]) - d_ref - d
        want += r * r
    assert np.array_equal(_objective_grid(xs, ys, xy, diffs), want)



def test_ls_recovers_truth_on_clean_data():
    for truth in [(2.0, 1.5), (0.5, 3.5), (5.9, 0.1), (3.0, 2.0)]:
        est = ls_solve(tdoa_set(truth), RECT)
        assert math.dist(est, truth) <= 1e-4


def test_ls_with_init_refines_locally():
    truth = (4.2, 2.8)
    est = ls_solve(tdoa_set(truth), RECT, init=(4.0, 3.0))
    assert math.dist(est, truth) <= 1e-6


def test_ls_needs_three_measurements():
    short = TdoaSet(tag_id="T1", blink_seq=0, reference_anchor="MA1",
                    measurements=(("SA2", 1.0), ("SA3", -1.0)))
    with pytest.raises(ValueError):
        ls_solve(short, RECT)


def test_collinear_anchors_are_ambiguous():
    # All anchors on the x axis cannot tell y from -y.
    line = {"A1": (0.0, 0.0), "A2": (3.0, 0.0), "A3": (6.0, 0.0), "A4": (9.0, 0.0)}
    truth = (4.0, 2.0)
    with pytest.raises(AmbiguityError) as e:
        ls_solve(tdoa_set(truth, anchors=line, ref="A1"), line)
    ys = sorted(c[1] for c in e.value.candidates)
    assert ys[0] == pytest.approx(-2.0, abs=1e-3)
    assert ys[-1] == pytest.approx(2.0, abs=1e-3)


def test_ls_translation_equivariance():
    truth = (2.2, 1.1)
    shift = (10.0, -20.0)
    moved = {a: (p[0] + shift[0], p[1] + shift[1]) for a, p in RECT.items()}
    base = ls_solve(tdoa_set(truth), RECT)
    displacednew = ls_solve(
        tdoa_set((truth[0] + shift[0], truth[1] + shift[1]), anchors=moved), moved
    )
    assert displacednew[0] - shift[0] == pytest.approx(base[0], abs=1e-6)
    assert displacednew[1] - shift[1] == pytest.approx(base[1], abs=1e-6)


# ---------------------------------------------------------------------------
# Tracking


def test_track_converges_on_static_clean_data():
    truth = (2.0, 1.5)
    sets = [tdoa_set(truth, seq=i) for i in range(50)]
    fixes = track(sets, RECT)
    assert len(fixes) == 50
    last = fixes[-1]
    assert math.dist((last.x, last.y), truth) <= 1e-3
    assert abs(last.vx) < 1e-2 and abs(last.vy) < 1e-2
    assert fixes[0].pos_std > last.pos_std


def test_track_without_process_noise_settles_on_ls_solution():
    # With sigma_accel = 0 the filter averages toward the static optimum,
    # which on clean data is the least-squares point itself.
    truth = (4.4, 1.2)
    sets = [tdoa_set(truth, seq=i) for i in range(200)]
    cfg = TrackerConfig(sigma_accel=0.0)
    last = track(sets, RECT, cfg)[-1]
    ls = ls_solve(tdoa_set(truth), RECT)
    assert math.dist((last.x, last.y), ls) <= 1e-3


def test_track_resets_after_a_long_gap():
    sets = [tdoa_set((2.0, 1.5), seq=i) for i in range(20)]
    sets += [tdoa_set((5.0, 3.0), seq=40 + i) for i in range(20)]
    fixes = track(sets, RECT)
    assert len(fixes) == 40
    # First fix after the gap is a fresh cold start at the new position.
    post_gap = fixes[20]
    assert (post_gap.x, post_gap.y) == pytest.approx((5.0, 3.0), abs=1e-3)
    assert (post_gap.vx, post_gap.vy) == (0.0, 0.0)
    assert post_gap.residual_norm == 0.0


def test_track_rides_through_a_short_gap():
    sets = [tdoa_set((2.0, 1.5), seq=i) for i in range(10)]
    sets += [tdoa_set((2.0, 1.5), seq=15 + i) for i in range(10)]
    fixes = track(sets, RECT)
    assert len(fixes) == 20
    assert fixes[10].residual_norm > 0.0 or fixes[10].pos_std < fixes[0].pos_std


def test_track_skips_unsolvable_cold_start():
    line = {"A1": (0.0, 0.0), "A2": (3.0, 0.0), "A3": (6.0, 0.0), "A4": (9.0, 0.0)}
    ambiguous = [tdoa_set((4.0, 2.0), anchors=line, ref="A1", seq=i) for i in range(3)]
    assert track(ambiguous, line) == []


def test_track_follows_a_moving_tag():
    # 1 m/s along x, fixes every 0.1 s.
    sets = [tdoa_set((1.0 + 0.1 * i, 2.0), seq=i) for i in range(60)]
    fixes = track(sets, RECT)
    last = fixes[-1]
    assert (last.x, last.y) == pytest.approx((6.9, 2.0), abs=0.05)
    assert last.vx == pytest.approx(1.0, abs=0.1)
    assert last.vy == pytest.approx(0.0, abs=0.1)
