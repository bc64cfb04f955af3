"""Position estimation: EKF pieces, least squares, and tracking."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwb_rtls import solver
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.solver import (
    DEFAULT_SIGMA_T,
    AmbiguityError,
    _refine,
    _seeds,
    TrackerConfig,
    ekf_predict,
    ekf_update,
    ls_solve,
    process_noise,
    ranges,
    sum_over_anchors,
    track,
    transition_matrix,
)

from conftest import TdoaSet, fix_table, fixes_of, layout, same_columns, tracker_rows

RECT = {"MA1": (0.0, 0.0), "SA2": (6.0, 0.0), "SA3": (6.0, 4.0), "SA4": (0.0, 4.0)}


def tdoa_set(tag_xy, anchors=RECT, ref="MA1", seq=0, jitter=None, tag="T1"):
    """Arrivals (meters) for a tag at ``tag_xy``, counted from the arrival at
    ``ref``; optional additive noise array, one value per other anchor in id
    order."""
    d = {a: math.dist(tag_xy, p) for a, p in anchors.items()}
    names = sorted(a for a in anchors if a != ref)
    rows = []
    for i, a in enumerate(names):
        v = d[a] - d[ref]
        if jitter is not None:
            v += jitter[i]
        rows.append((a, v))
    return with_reference(tag, seq, ref, rows)


def with_reference(tag, seq, ref, rows):
    """The set of arrival ``rows`` (anchor, meters) plus ``ref``'s row at
    0.0, in anchor-id order."""
    return TdoaSet(tag_id=tag, blink_seq=seq, arrivals=tuple(sorted([*rows, (ref, 0.0)])))


def fresh_state(position):
    """Filter state at rest at ``position`` with the tracker's default prior,
    as a batch of one: x (1, 4) and P (1, 4, 4)."""
    cfg = TrackerConfig()
    x = np.array([[position[0], position[1], 0.0, 0.0]])
    p = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
    return x, p[None]


def update(x, p, sets, anchors=RECT):
    """``ekf_update`` of the states x (B, 4), p (B, 4, 4) on one set each,
    laid out as the tracker lays out an epoch: states, innovation norms."""
    rows = tracker_rows(sets, anchors)
    return ekf_update(x, p, *rows.layout(np.arange(len(sets))), DEFAULT_SIGMA_T)


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


def test_predict_from_zero_covariance_gains_q():
    q = process_noise(0.1)
    _, p = ekf_predict(np.zeros((1, 4)), np.zeros((1, 4, 4)), transition_matrix(0.1), q)
    assert np.allclose(p[0], q)
    assert np.array_equal(p[0], p[0].T)


def test_predict_moves_with_velocity():
    x = np.array([[1.0, 2.0, 0.5, -0.25]])
    out, _ = ekf_predict(x, np.eye(4)[None], transition_matrix(0.1), process_noise(0.1))
    assert out[0] == pytest.approx([1.05, 1.975, 0.5, -0.25])


@pytest.mark.parametrize("m", [3, 5, 21])
def test_closed_form_update_matches_the_textbook_update(m):
    # The textbook EKF update with the full m x m measurement covariance
    # R = v (I + 1 1^T): range differences share the reference's noise.
    # The 25 draws go through one batched update, each on its own layout.
    rng = np.random.default_rng(m)
    v = (SPEED_OF_LIGHT * DEFAULT_SIGMA_T) ** 2
    xs, ps, batch, layouts, wants = [], [], [], {}, []
    for n in range(25):
        anchors = {f"D{n}A{i:02d}": tuple(rng.uniform(-10.0, 10.0, 2)) for i in range(m + 1)}
        tag = rng.uniform(-5.0, 5.0, 2)
        meas = tdoa_set(tag, anchors, ref=f"D{n}A00", jitter=rng.normal(0.0, 0.05, m))
        root = rng.normal(size=(4, 4))
        p = 0.1 * root @ root.T + np.diag([1e-3, 1e-3, 1e-2, 1e-2])
        x = np.concatenate([tag + rng.normal(0.0, 0.2, 2), rng.normal(0.0, 1.0, 2)])

        # Range differences against row 0, the set's reference D{n}A00.
        xy, z = layout(meas, anchors)
        d, grad, _ = ranges(x[:1], x[1:2], xy)
        h = d[1:, 0] - d[0, 0]
        jac = np.zeros((m, 4))
        jac[:, :2] = (grad[:, 1:, 0] - grad[:, :1, 0]).T
        r = v * (np.eye(m) + np.ones((m, m)))
        s = jac @ p @ jac.T + r
        gain = np.linalg.solve(s, jac @ p).T
        want_x = x + gain @ ((z[1:] - z[0]) - h)
        want_p = (np.eye(4) - gain @ jac) @ p
        want_p = 0.5 * (want_p + want_p.T)
        xs.append(x)
        ps.append(p)
        batch.append(meas)
        layouts.update(anchors)
        wants.append((want_x, want_p))

    got_x, got_p, _ = update(np.array(xs), np.array(ps), batch, layouts)
    for got_xn, got_pn, (want_x, want_p) in zip(got_x, got_p, wants):
        assert np.max(np.abs(got_xn - want_x)) <= 1e-9
        assert np.max(np.abs(got_pn - want_p)) <= 1e-12 * np.max(np.abs(want_p))


def test_update_with_perfect_measurement_keeps_position():
    truth = (2.5, 1.5)
    x, p = fresh_state(truth)
    trace_before = float(np.trace(p[0]))
    out_x, out_p, (residual,) = update(x, p, [tdoa_set(truth)])
    assert tuple(out_x[0, :2]) == pytest.approx(truth, abs=1e-12)
    assert float(np.trace(out_p[0])) < trace_before
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_update_pulls_toward_the_measurement():
    x, p = fresh_state((3.2, 2.2))
    out_x, _, _ = update(x, p, [tdoa_set((3.0, 2.0))])
    before = math.dist((3.2, 2.2), (3.0, 2.0))
    after = math.dist(out_x[0, :2], (3.0, 2.0))
    assert after < before


def test_tag_on_the_first_receiver_drops_only_that_row():
    # The update is the one without the first receiver's row, bit for bit.
    x, p = fresh_state(RECT["MA1"])
    meas = tdoa_set((0.5, 0.5))
    rest = TdoaSet(tag_id="T1", blink_seq=0, arrivals=meas.arrivals[1:])
    out_x, out_p, residual = update(x, p, [meas])
    want_x, want_p, want_residual = update(x, p, [rest])
    assert np.array_equal(out_x, want_x) and np.array_equal(out_p, want_p)
    assert np.array_equal(residual, want_residual)
    assert float(np.trace(out_p[0])) < float(np.trace(p[0]))


XY = np.array([RECT[a] for a in ["MA1", "SA2", "SA3", "SA4"]])


def geometry(pos):
    """Ranges (M,) and gradient rows (M, 2) at one point."""
    d, grad, _ = ranges(pos[:1], pos[1:], XY)
    return d[:, 0], grad[:, :, 0].T


def test_tag_on_another_anchor_drops_only_that_row():
    x, p = fresh_state(RECT["SA3"])
    meas = tdoa_set(RECT["SA3"])
    rest = TdoaSet(tag_id="T1", blink_seq=0,
                   arrivals=tuple(row for row in meas.arrivals if row[0] != "SA3"))
    out_x, out_p, residual = update(x, p, [meas])
    want_x, want_p, want_residual = update(x, p, [rest])
    assert np.array_equal(out_x, want_x) and np.array_equal(out_p, want_p)
    assert np.array_equal(residual, want_residual)
    assert float(np.trace(out_p[0])) < float(np.trace(p[0]))


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


def test_ls_recovers_truth_on_clean_data():
    for truth in [(2.0, 1.5), (0.5, 3.5), (5.9, 0.1), (3.0, 2.0)]:
        est = ls_solve(*layout(tdoa_set(truth), RECT))
        assert math.dist(est, truth) <= 1e-4


def test_ls_with_init_refines_locally():
    truth = (4.2, 2.8)
    est = ls_solve(*layout(tdoa_set(truth), RECT), init=(4.0, 3.0))
    assert math.dist(est, truth) <= 1e-6


def test_ls_needs_three_measurements():
    short = TdoaSet(tag_id="T1", blink_seq=0,
                    arrivals=(("MA1", 0.0), ("SA2", 1.0), ("SA3", -1.0)))
    with pytest.raises(ValueError):
        ls_solve(*layout(short, RECT))


def test_collinear_anchors_are_ambiguous():
    # All anchors on the x axis cannot tell y from -y.
    line = {"A1": (0.0, 0.0), "A2": (3.0, 0.0), "A3": (6.0, 0.0), "A4": (9.0, 0.0)}
    truth = (4.0, 2.0)
    with pytest.raises(AmbiguityError) as e:
        ls_solve(*layout(tdoa_set(truth, anchors=line, ref="A1"), line))
    ys = sorted(c[1] for c in e.value.candidates)
    assert ys[0] == pytest.approx(-2.0, abs=1e-3)
    assert ys[-1] == pytest.approx(2.0, abs=1e-3)


def test_ls_translation_equivariance():
    truth = (2.2, 1.1)
    shift = (10.0, -20.0)
    moved = {a: (p[0] + shift[0], p[1] + shift[1]) for a, p in RECT.items()}
    base = ls_solve(*layout(tdoa_set(truth), RECT))
    displacednew = ls_solve(
        *layout(tdoa_set((truth[0] + shift[0], truth[1] + shift[1]), anchors=moved), moved)
    )
    assert displacednew[0] - shift[0] == pytest.approx(base[0], abs=1e-6)
    assert displacednew[1] - shift[1] == pytest.approx(base[1], abs=1e-6)


# ---------------------------------------------------------------------------
# Cold start: refined seeds of the linearized set

FLEET = {f"F{i}": p for i, p in enumerate(
    [(0.0, 0.0), (12.0, 0.0), (24.0, 0.0), (24.0, 16.0), (12.0, 16.0), (0.0, 16.0)])}
HALL = {f"H{x:02d}{y:02d}": (float(x), float(y)) for x in range(0, 41, 8) for y in range(0, 41, 8)}


def padded_box(xy):
    """The anchors' bounding box padded by a quarter of its diagonal, at
    least 1 m: where a cold start may answer."""
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    pad = max(1.0, 0.25 * float(np.hypot(*(hi - lo))))
    return lo - pad, hi + pad


def random_cold_start(rng, kind, noise):
    """A seeded arrival set: anchors of one layout (a random hall subset
    within 24 m of a point), the reference drawn among them, a tag anywhere
    in their box padded by 30 % each side, Gaussian noise on every
    difference against the reference; with ``noise`` "beyond", one
    difference past its baseline, and with "garbage" every difference drawn
    anywhere within its baseline."""
    if kind == "hall":
        centre = rng.uniform(0.0, 40.0, 2)
        near = [a for a, p in HALL.items() if math.dist(p, centre) <= 24.0]
        anchors = {a: HALL[a] for a in rng.permutation(near)[: rng.integers(4, len(near) + 1)]}
    else:
        anchors = {"rect": RECT, "fleet": FLEET}[kind]
    xy = np.array(list(anchors.values()))
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    tag = rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo))
    ref = list(anchors)[rng.integers(len(anchors))]
    sigma = noise if isinstance(noise, float) else 0.0
    meas = tdoa_set(tag, anchors, ref=ref, jitter=rng.normal(0.0, sigma, len(anchors) - 1))
    rows = [row for row in meas.arrivals if row[0] != ref]
    if noise == "garbage":
        rows = [(a, rng.uniform(-1.0, 1.0) * math.dist(anchors[a], anchors[ref]))
                for a, _ in rows]
        meas = with_reference(meas.tag_id, meas.blink_seq, ref, rows)
    elif noise == "beyond":
        i = rng.integers(len(rows))
        anchor, d = rows[i]
        rows[i] = (anchor, math.copysign(math.dist(anchors[anchor], anchors[ref]), d)
                   + math.copysign(rng.uniform(0.01, 1.0), d))
        meas = with_reference(meas.tag_id, meas.blink_seq, ref, rows)
    return meas, anchors, tag


@pytest.mark.parametrize("kind, count", [("rect", 150), ("fleet", 150), ("hall", 60)])
def test_cold_starts_are_exact_bounded_and_no_worse_than_a_grid(kind, count):
    # Every noise-free tag is fixed, also outside the anchors' box; no
    # answer lies outside the padded box; and no point of a 0.1 m grid over
    # that box has a lower centred objective than a fix at up to 0.3 m of
    # noise.
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n in range(count):
        noise = (0.0, 0.03, 0.1, 0.3, "beyond", "garbage")[n % 6]
        meas, anchors, tag = random_cold_start(rng, kind, noise)
        xy, z = layout(meas, anchors)
        try:
            pos = ls_solve(xy, z)
        except AmbiguityError:
            assert noise != 0.0, (kind, tag)
            continue
        if noise == 0.0:
            assert math.dist(pos, tag) <= 1e-6, (kind, tag)
        lo, hi = padded_box(xy)
        assert np.all(lo <= pos) and np.all(pos <= hi), (kind, noise, tag, pos)
        if isinstance(noise, float) and noise > 0.0:
            xs, ys = (np.arange(lo[k], hi[k] + 0.05, 0.1) for k in range(2))
            r = ranges(np.repeat(xs, ys.size), np.tile(ys, xs.size), xy)[0] - z[:, None]
            r -= r.mean(axis=0)
            fixed = ranges(pos[:1], pos[1:], xy)[0][:, 0] - z
            fixed -= fixed.mean()
            assert np.min(sum_over_anchors(r * r)) >= fixed @ fixed, (kind, noise, tag)


def test_a_batch_of_cold_starts_is_each_blink_alone_bit_for_bit():
    # Ragged blinks of every layout and noise kind, fixed or ambiguous,
    # started in one batch: each answer is the one ls_solve gives alone.
    rng = np.random.default_rng(8)
    sets, anchors = [], {}
    for n in range(36):
        meas, layout_anchors, _ = random_cold_start(
            rng, ("rect", "fleet", "hall")[n % 3], (0.0, 0.03, "beyond", "garbage")[n % 4])
        sets.append(meas._replace(tag_id=f"T{n:02d}"))
        anchors.update(layout_anchors)
    starts = solver._cold_starts(tracker_rows(sets, anchors), np.arange(len(sets)))
    assert any(isinstance(start, AmbiguityError) for start in starts)
    for meas, start in zip(sets, starts):
        try:
            alone = ls_solve(*layout(meas, anchors))
        except AmbiguityError as exc:
            assert repr(exc.candidates) == repr(start.candidates)
        else:
            assert repr(alone.tolist()) == repr(start.tolist())


def test_nearly_collinear_anchors_are_still_ambiguous():
    # The tag's mirror image across the near-line fits as well: a rival.
    line = {"A1": (0.0, 0.0), "A2": (3.0, 1e-6), "A3": (6.0, 1e-6), "A4": (9.0, 1e-6)}
    meas = tdoa_set((4.0, 2.0), anchors=line, ref="A1")
    with pytest.raises(AmbiguityError) as e:
        ls_solve(*layout(meas, line))
    ys = sorted(c[1] for c in e.value.candidates)
    assert ys[0] == pytest.approx(-2.0, abs=1e-3)
    assert ys[-1] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("offsets", [(0, 1e-6, -1e-6, 1e-6), (0, 1e-6, 1e-6, 1e-6), (0, 0, 1e-6, 0)])
def test_nearly_collinear_anchors_give_no_far_away_fix(offsets):
    # Refining outward from such a layout can reach far-field points with a
    # small objective, 1.5e6 m away; none of them is a fix.
    line = {f"A{i}": (3.0 * i, dy) for i, dy in enumerate(offsets)}
    with pytest.raises(AmbiguityError):
        ls_solve(*layout(tdoa_set((2.0, 3.0), anchors=line, ref="A0"), line))


@pytest.mark.parametrize("case, want", [
    ("beyond the baseline", (17.996182823376568, 0.2932806833469171)),
    ("outside the hull", (7.639650124088017, 2.0976661100383036)),
])
def test_inconsistent_or_outlying_sets_keep_their_fixes(case, want):
    if case == "beyond the baseline":
        # A tag near the F0-F1 baseline's extension, |d| = 11.995 m against
        # the 12 m baseline; 2 cm of noise takes it past the bound.
        anchors = FLEET
        meas = tdoa_set((18.0, 0.3), FLEET, ref="F0", jitter=np.array([-0.02, 0, 0, 0, 0]))
    else:
        anchors = RECT
        meas = tdoa_set((7.5, 2.0), jitter=np.array([0.1, -0.1, 0.1]))
    assert np.max(np.abs(ls_solve(*layout(meas, anchors)) - want)) <= 1e-6


# The first cold start of tag T002 in the benchmark's hall workload, seed 2:
# its arrivals (m) on the hall's 8 m grid, counted from the one at H1608.
HALL_T002 = with_reference("T002", 0, "H1608", zip(
    ["H1616", "H3216", "H1632", "H3232", "H0008", "H0808", "H2408", "H0016", "H0816",
     "H2416", "H0024", "H0824", "H1624", "H2424", "H3224", "H0032", "H0832", "H2432",
     "H0040", "H0840", "H1640", "H2440"],
    [-7.644024884702935, 3.6974096663963727, -13.220396969907554, 1.316890163955919,
     2.6456090224044604, -0.21497006705510885, 3.2396048789451863, -3.6680565720051472,
     -7.927860644462754, -2.9325352850738136, -7.846386045385041, -14.978100161272634,
     -14.192845816448497, -6.845945790035417, 1.0156719309629747, -7.335484440846839,
     -13.868572621892978, -6.399609283548914, -2.504961574086071, -6.508348947575878,
     -6.266180722052887, -1.8506211388126765],
))


def test_refinement_stops_at_its_first_short_step(monkeypatch):
    # A Gauss-Newton step at the minimum that rounding makes no better must
    # end the refinement, not walk the damping up to its cap.
    xy, z = layout(HALL_T002, HALL)
    calls = []
    inner = solver._normal_equations
    monkeypatch.setattr(solver, "_normal_equations", lambda *a: calls.append(1) or inner(*a))
    seed = xy[0] + _seeds(xy, z)[0]
    pos, _ = _refine(seed[:, None], xy[:, :, None], z[:, None], np.ones((len(z), 1), bool))
    assert len(calls) <= 6
    assert math.dist(pos[:, 0], (11.489145522786256, 27.246556339655342)) <= 1e-6


def test_a_refinement_that_starts_on_an_anchor_reaches_the_truth():
    # At its own anchor a row has no gradient: it is dropped there, as the
    # filter's update drops it, and comes back once the point moves off.
    truth = (4.2, 2.8)
    xy, z = layout(tdoa_set(truth), RECT)
    assert math.dist(ls_solve(xy, z, init=xy[0]), truth) <= 1e-6


# ---------------------------------------------------------------------------
# Tracking


def test_track_converges_on_static_clean_data():
    truth = (2.0, 1.5)
    sets = [tdoa_set(truth, seq=i) for i in range(50)]
    fixes = track(tracker_rows(sets, RECT), 0.1)
    assert len(fixes) == 50
    assert math.dist((fixes.x[-1], fixes.y[-1]), truth) <= 1e-3
    assert abs(fixes.vx[-1]) < 1e-2 and abs(fixes.vy[-1]) < 1e-2
    assert fixes.pos_std[0] > fixes.pos_std[-1]


def test_track_without_process_noise_settles_on_ls_solution():
    # With sigma_accel = 0 the filter averages toward the static optimum,
    # which on clean data is the least-squares point itself.
    truth = (4.4, 1.2)
    sets = [tdoa_set(truth, seq=i) for i in range(200)]
    cfg = TrackerConfig(sigma_accel=0.0)
    fixes = track(tracker_rows(sets, RECT), 0.1, cfg)
    ls = ls_solve(*layout(tdoa_set(truth), RECT))
    assert math.dist((fixes.x[-1], fixes.y[-1]), ls) <= 1e-3


def test_track_resets_after_a_long_gap():
    sets = [tdoa_set((2.0, 1.5), seq=i) for i in range(20)]
    sets += [tdoa_set((5.0, 3.0), seq=40 + i) for i in range(20)]
    fixes = track(tracker_rows(sets, RECT), 0.1)
    assert len(fixes) == 40
    # First fix after the gap is a fresh cold start at the new position.
    assert fixes.blink_seq[20] == 40
    assert (fixes.x[20], fixes.y[20]) == pytest.approx((5.0, 3.0), abs=1e-3)
    assert (fixes.vx[20], fixes.vy[20]) == (0.0, 0.0)
    assert fixes.residual_norm[20] == 0.0


def test_track_rides_through_a_short_gap():
    sets = [tdoa_set((2.0, 1.5), seq=i) for i in range(10)]
    sets += [tdoa_set((2.0, 1.5), seq=15 + i) for i in range(10)]
    fixes = track(tracker_rows(sets, RECT), 0.1)
    assert len(fixes) == 20
    assert fixes.residual_norm[10] > 0.0 or fixes.pos_std[10] < fixes.pos_std[0]


def test_track_skips_unsolvable_cold_start():
    line = {"A1": (0.0, 0.0), "A2": (3.0, 0.0), "A3": (6.0, 0.0), "A4": (9.0, 0.0)}
    ambiguous = [tdoa_set((4.0, 2.0), anchors=line, ref="A1", seq=i) for i in range(3)]
    assert same_columns(track(tracker_rows(ambiguous, line), 0.1), fix_table([]))


def test_track_follows_a_moving_tag():
    # 1 m/s along x, fixes every 0.1 s.
    sets = [tdoa_set((1.0 + 0.1 * i, 2.0), seq=i) for i in range(60)]
    fixes = track(tracker_rows(sets, RECT), 0.1)
    assert (fixes.x[-1], fixes.y[-1]) == pytest.approx((6.9, 2.0), abs=0.05)
    assert fixes.vx[-1] == pytest.approx(1.0, abs=0.1)
    assert fixes.vy[-1] == pytest.approx(0.0, abs=0.1)


# ---------------------------------------------------------------------------
# Batched tracking

LINE = {"A1": (0.0, 0.0), "A2": (3.0, 0.0), "A3": (6.0, 0.0), "A4": (9.0, 0.0)}
EVERY_ANCHOR = {**RECT, **RING, **LINE}


def _mixed_fleet():
    """Sets of tags that differ in all the ways a batch is ragged."""
    rng = np.random.default_rng(11)
    sets = {
        # 3 receivers, moving, noisy: the tag the others must not disturb.
        "T1": [tdoa_set((1.0 + 0.05 * i, 2.0 - 0.02 * i), seq=i, tag="T1",
                        jitter=rng.normal(0.0, 0.02, 3)) for i in range(40)],
        # 11 receivers, a short gap (ridden through) and a long one (reset).
        "T2": [tdoa_set((1.0, -0.5), RING, "R03", seq=i, tag="T2",
                        jitter=rng.normal(0.0, 0.02, 11))
               for i in [*range(0, 10), *range(14, 20), *range(35, 45)]],
        # Collinear anchors: every cold start is ambiguous.
        "T3": [tdoa_set((4.0, 2.0), LINE, "A1", seq=i, tag="T3") for i in range(0, 40, 3)],
        # Starts late, after T1 and T2 are tracking.
        "T4": [tdoa_set((5.0, 1.0), seq=i, tag="T4") for i in range(25, 40)],
    }
    return sets


def test_a_tags_fixes_do_not_depend_on_the_batch_it_is_stepped_in():
    sets = _mixed_fleet()
    everything = [s for tag_sets in sets.values() for s in tag_sets]
    # Epochs 1-9 update T1 (4 receivers) and T2 (12) together, in one
    # padded layout.
    assert {len(s.arrivals) for s in everything
            if s.blink_seq == 5 and s.tag_id in ("T1", "T2")} == {4, 12}
    diagnostics: dict = {}
    together = track(tracker_rows(everything, EVERY_ANCHOR), 0.1,
                     diagnostics=diagnostics)
    assert diagnostics == {"tracks_not_started": len(sets["T3"])}
    # Only tags with a fix are in the table's ids.
    assert together.ids == ("T1", "T2", "T4")
    assert list(zip(map(together.ids.__getitem__, together.tag.tolist()),
                    together.blink_seq.tolist())) == sorted(
        (s.tag_id, s.blink_seq) for s in everything if s.tag_id != "T3"
    )
    for tag_id, tag_sets in sets.items():
        alone = track(tracker_rows(tag_sets, EVERY_ANCHOR), 0.1)
        if tag_id == "T3":
            assert same_columns(alone, fix_table([]))
        else:
            assert same_columns(fixes_of(together, tag_id), alone)  # bit for bit
    # The order the sets come in does not matter either.
    shuffled = [everything[i] for i in np.random.default_rng(3).permutation(len(everything))]
    assert same_columns(track(tracker_rows(shuffled, EVERY_ANCHOR), 0.1), together)
    # T2 restarted after its long gap and rode through its short one.
    t2 = fixes_of(together, "T2")
    assert t2.blink_seq[t2.residual_norm == 0.0].tolist() == [0, 35]


def test_a_blink_with_no_seeds_is_skipped_counted_and_alone(caplog):
    # Every anchor of T2's blinks is at one spot: they have no seeds, so
    # their cold starts fail before the refinement, at epoch 0 in T1's
    # batch and at epoch 5 alone.
    spot = {f"C{i}": (3.0, 2.0) for i in range(4)}
    bad = [tdoa_set((1.0, 1.0), spot, "C0", seq=seq, tag="T2") for seq in (0, 5)]
    with pytest.raises(AmbiguityError):
        _seeds(*layout(bad[0], spot))
    t1 = [tdoa_set((1.0 + 0.05 * i, 2.0), seq=i, tag="T1") for i in range(12)]
    anchors = {**RECT, **spot}
    diagnostics: dict = {}
    fixes = track(tracker_rows([*bad, *t1], anchors), 0.1, diagnostics=diagnostics)
    assert diagnostics == {"tracks_not_started": 2}
    assert "track init skipped for T2 #0" in caplog.text
    assert "track init skipped for T2 #5" in caplog.text
    assert same_columns(fixes, track(tracker_rows(t1, anchors), 0.1))


def test_an_update_with_no_usable_row_is_skipped_counted_and_alone():
    t1 = [tdoa_set((1.0 + 0.05 * i, 2.0), seq=i, tag="T1") for i in range(12)]
    t2 = [tdoa_set((4.0, 3.0), seq=i, tag="T2") for i in range(12)]
    # Give T2's blink 6 two arrivals, one from an anchor at exactly the
    # filter's predicted position for it, so one usable row is left.
    before = track(tracker_rows(t2[:6], RECT), 0.1)
    here = (before.x[-1] + 0.1 * before.vx[-1], before.y[-1] + 0.1 * before.vy[-1])
    anchors = {**RECT, "HERE": here}
    alone = track(tracker_rows(t1, anchors), 0.1)
    t2[6] = tdoa_set((4.0, 3.0), {"MA1": RECT["MA1"], "HERE": here}, "HERE", seq=6, tag="T2")

    diagnostics: dict = {}
    fixes = track(tracker_rows(t1 + t2, anchors), 0.1, diagnostics=diagnostics)
    assert diagnostics == {"updates_no_usable_rows": 1}
    mine = fixes_of(fixes, "T2")
    (skipped,) = np.flatnonzero(mine.blink_seq == 6)
    assert math.isnan(mine.residual_norm[skipped])
    assert (mine.x[skipped], mine.y[skipped]) == here  # the predicted state
    assert same_columns(fixes_of(fixes, "T1"), alone)
    after = mine.residual_norm[mine.blink_seq > 6]
    assert len(after) == 5 and (after >= 0.0).all()
    # A set with no arrival at all is skipped the same way.
    t2[9] = TdoaSet(tag_id="T2", blink_seq=9, arrivals=())
    diagnostics = {}
    fixes = track(tracker_rows(t1 + t2, anchors), 0.1, diagnostics=diagnostics)
    assert diagnostics == {"updates_no_usable_rows": 2}
    assert same_columns(fixes_of(fixes, "T1"), alone)


def test_track_takes_one_set_per_tag_and_blink():
    sets = [tdoa_set((2.0, 1.5), seq=0), tdoa_set((2.0, 1.5), seq=0)]
    with pytest.raises(ValueError):
        track(tracker_rows(sets, RECT), 0.1)
