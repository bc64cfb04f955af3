"""Position estimation from range-difference sets.

Two estimators on purpose: an extended Kalman filter with a constant
velocity model does the real-time tracking, and a nonlinear least-squares
solver provides cold starts plus an independent check on the filter (both
minimize the same range-difference residuals, so on static, noise-free
input they must agree).  A cold start refines the closed-form solution of
the linearized set; a grid search over the anchors' box takes over for
degenerate or inconsistent sets, and is the one judge of ambiguity.

The filter is batched.  ``track`` steps every tag that blinked at one
blink epoch together: ``ekf_predict`` and ``ekf_update`` work on stacked
(B, 4) states and (B, 4, 4) covariances, and the update is in information
form, so no m x m matrix is built for m range differences.  Each tag's
receiver rows are padded to the epoch's widest set and masked.  Sums over
receivers and matrix products run in one fixed order with elementwise
operations, so a tag's fixes are the same bits whatever other tags share
its epochs.  Cold starts, gap resets and skips stay per tag.

Both read their geometry from one kernel, ``range_diffs``: range
differences against the reference anchor and their gradients (unit-vector
differences) over a block of points, anchor-major.  ``deploy``'s HDoP uses
the same kernel.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT
from .timebase import TdoaSet

log = logging.getLogger(__name__)

DEFAULT_SIGMA_ACCEL = 1.0  # m/s^2, white acceleration driving the motion model
DEFAULT_SIGMA_T = 1e-10  # s, per-timestamp noise driving measurement covariance

_GRID_STEP = 0.1  # m, coarse search resolution
_REFINE_TOL = 1e-6  # m, local refinement stops below this step size
_REFINE_MAX_ITER = 80
_AMBIGUITY_RATIO = 2.0  # minima within this factor of the best one are rivals
# Gate on the closed-form cold start (``_closed_form``); a set that fails it
# goes to the grid.  Sized from the 520 cold starts of the benchmark's fleet
# and hall seeds 1-5, whose linear systems have condition numbers up to 18.3
# and whose RMS residuals reach 0.088 m, and from 19,400 seeded random sets
# (the demo rectangle, the fleet layout and hall subsets; tags up to 30 %
# outside the anchors' box; 0-1 m noise; garbage), of which the gate took
# none that the grid places more than 1e-6 m away or calls ambiguous.
_SEED_MAX_COND = 1e4
_SEED_MAX_RMS = 0.1  # m
_EPS_DIST = 1e-12  # m, guards unit vectors at anchor positions
GEOMETRY_BLOCK = 4096  # points per kernel call on grids, bounding temporaries


class SolverError(RuntimeError):
    """Position estimation failure."""


class AmbiguityError(SolverError):
    """The objective has several comparable minima (degenerate geometry).

    ``candidates`` holds (x, y, objective) for each distinct minimum found.
    """

    def __init__(self, candidates: Sequence[tuple[float, float, float]]) -> None:
        self.candidates = tuple(candidates)
        spots = "; ".join(f"({x:.3f}, {y:.3f}) obj={o:.3g}" for x, y, o in self.candidates)
        super().__init__(f"ambiguous geometry, comparable minima at: {spots}")


@dataclass(frozen=True)
class Fix:
    """One position estimate for one blink."""

    tag_id: str
    blink_seq: int
    x: float
    y: float
    vx: float
    vy: float
    pos_std: float  # meters, from the covariance diagonal
    residual_norm: float  # meters, innovation magnitude at update time


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def process_noise(dt: float, sigma_accel: float = DEFAULT_SIGMA_ACCEL) -> np.ndarray:
    """Discrete white-noise-acceleration covariance for the CV model."""
    q = sigma_accel**2
    dt2, dt3, dt4 = dt * dt, dt**3, dt**4
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = q * dt4 / 4.0
    out[0, 2] = out[2, 0] = out[1, 3] = out[3, 1] = q * dt3 / 2.0
    out[2, 2] = out[3, 3] = q * dt2
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product a @ b, its inner sum in index order by
    elementwise operations, so no product's bits depend on the batch around
    it (numpy's matmul may hand stacked products to BLAS)."""
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out = out + a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def ekf_predict(
    x: np.ndarray, p: np.ndarray, f: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate B states x = [x, y, vx, vy] (B, 4) and their covariances
    p (B, 4, 4) one step through transition ``f`` with process noise ``q``
    (no control input)."""
    p = _matmul(_matmul(f, p), f.T) + q
    return _matmul(f, x[..., None])[..., 0], 0.5 * (p + p.swapaxes(-1, -2))


def range_diffs(px, py, xy, gradient=False):
    """Range differences against the reference anchor at N points (px, py).

    ``xy`` (M+1, 2) holds the reference anchor first, then M others, for all
    points; (M+1, 2, N) holds one such layout per point.  Returns
    anchor-major (M, N) arrays: h[i, n] = |p_n - xy[i+1]| - |p_n - xy[0]|;
    with ``gradient`` also dh/dx and dh/dy (2, M, N), the unit-vector
    differences u_i - u_ref, and ``near`` (M, N), set where anchor i or the
    reference is within _EPS_DIST of the point (the divisor is floored there).
    """
    if xy.ndim == 2:
        xy = xy[:, :, None]
    dx = px - xy[:, 0]
    dy = py - xy[:, 1]
    d = np.sqrt(dx * dx + dy * dy)
    h = d[1:] - d[0]
    if not gradient:
        return h
    near = d < _EPS_DIST
    d = np.maximum(d, _EPS_DIST)
    ux, uy = dx / d, dy / d
    return h, np.stack((ux[1:] - ux[0], uy[1:] - uy[0])), near[1:] | near[0]


def sum_over_anchors(a: np.ndarray) -> np.ndarray:
    """Sum (M, N) over anchors in their order, for any N (numpy's own
    reduction turns pairwise at N = 1, so one point would not match a block)."""
    total = np.zeros(a.shape[1])
    for row in a:
        total += row
    return total


def _padded_rows(batch: Sequence[TdoaSet], anchors: Mapping[str, tuple[float, float]]):
    """One layout per set, padded to the widest: anchor positions
    (M+1, 2, B), reference first; measured differences (M, B); and which
    rows hold a measurement (M, B).  Padding repeats the set's reference
    anchor, so its range difference and gradient are exactly zero.  A
    one-set batch is that set's own layout, (M+1, 2, 1) and (M, 1)."""
    width = max(len(s.measurements) for s in batch)
    coords, diffs = [], []
    for s in batch:
        ref = anchors[s.reference_anchor]
        pad = width - len(s.measurements)
        coords.append([ref] + [anchors[a] for a, _ in s.measurements] + [ref] * pad)
        diffs.append([d for _, d in s.measurements] + [0.0] * pad)
    counts = np.array([len(s.measurements) for s in batch])
    xy = np.array(coords, dtype=float).transpose(1, 2, 0)
    return xy, np.array(diffs, dtype=float).T, np.arange(width)[:, None] < counts


def ekf_update(
    x: np.ndarray,
    p: np.ndarray,
    batch: Sequence[TdoaSet],
    anchors: Mapping[str, tuple[float, float]],
    sigma_t: float,
) -> tuple[np.ndarray, np.ndarray, list[Fix]]:
    """Fold one TDoA set per tag into B predicted states and emit the fixes.

    ``x`` (B, 4) and ``p`` (B, 4, 4) are the states of the tags whose sets
    ``batch`` holds, in its order; returns the updated states and one
    ``Fix`` per set.

    Information form, per tag: the m range differences share the
    reference's noise, R = v (I + 1 1^T) with v = (c sigma_t)^2, so R^-1 =
    (I - 1 1^T/(m+1)) / v.  With G the 2 x m gradient rows, s = G 1 and r
    the innovation, the position information is A = (G G^T - s s^T/(m+1)) /
    v, b = (G r - s sum(r)/(m+1)) / v, and P+ = P - P[:, :2] (I + A P11)^-1
    A P[:2, :], x+ = x + P+[:, :2] b.  I + A P11 has eigenvalues >= 1, so
    its determinant is too for ``sigma_t`` > 0.  Padded rows and rows whose
    anchor is within _EPS_DIST of the tag are zeroed; m counts the rest.  A
    tag with no row left (its reference on the tag, say) skips the update
    and reports its predicted state with a NaN residual.
    """
    xy, z, keep = _padded_rows(batch, anchors)
    h, grad, near = range_diffs(x[:, 0], x[:, 1], xy, gradient=True)
    keep &= ~near  # rows whose anchor (or the reference) sits on the tag go
    r = np.where(keep, z - h, 0.0)
    gx, gy = np.where(keep, grad, 0.0)
    terms = np.stack((gx * gx, gx * gy, gy * gy, gx, gy, gx * r, gy * r, r, r * r), axis=1)
    gxx, gxy, gyy, sx, sy, bx, by, rs, rr = sum_over_anchors(
        terms.reshape(len(r), 9 * len(batch))
    ).reshape(9, len(batch))
    w = keep.sum(axis=0) + 1.0  # m + 1
    v = (SPEED_OF_LIGHT * sigma_t) ** 2
    cross = gxy - sx * sy / w
    info = np.stack((gxx - sx * sx / w, cross, cross, gyy - sy * sy / w), axis=-1)
    info = info.reshape(-1, 2, 2) / v
    b = np.stack((bx - sx * (rs / w), by - sy * (rs / w)), axis=-1)[..., None] / v
    a = np.eye(2) + _matmul(info, p[:, :2, :2])
    adjugate = np.stack((a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]), axis=-1)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    solved = _matmul(adjugate.reshape(-1, 2, 2) / det[:, None, None], info)
    p_new = p - _matmul(_matmul(p[:, :, :2], solved), p[:, :2, :])
    p_new = 0.5 * (p_new + p_new.swapaxes(-1, -2))
    x_new = x + _matmul(p_new[:, :, :2], b)[..., 0]
    ok = keep.any(axis=0)
    for meas, usable in zip(batch, ok.tolist()):
        if not usable:
            log.warning(
                "update skipped for %s #%d: no usable measurement rows",
                meas.tag_id, meas.blink_seq,
            )
    x = np.where(ok[:, None], x_new, x)
    p = np.where(ok[:, None, None], p_new, p)
    return x, p, _fixes(batch, x, p, np.where(ok, np.sqrt(rr), math.nan).tolist())


def _fixes(
    batch: Sequence[TdoaSet], x: np.ndarray, p: np.ndarray, residuals: Sequence[float]
) -> list[Fix]:
    """One ``Fix`` per set from the stacked states after its blink."""
    pos_std = np.sqrt(np.maximum(p[:, 0, 0] + p[:, 1, 1], 0.0))
    return [
        Fix(meas.tag_id, meas.blink_seq, *state, std, residual)
        for meas, state, std, residual in zip(batch, x.tolist(), pos_std.tolist(), residuals)
    ]


# ---------------------------------------------------------------------------
# Independent nonlinear least squares


def _objective_grid(xs, ys, xy, diffs):
    """Sum of squared residuals at every (xs[i], ys[j]), GEOMETRY_BLOCK points
    per kernel call, summed over the anchors in their order."""
    px, py = np.repeat(xs, ys.size), np.tile(ys, xs.size)  # x-major, as meshgrid "ij"
    total = np.empty(px.size)
    for start in range(0, px.size, GEOMETRY_BLOCK):
        block = slice(start, start + GEOMETRY_BLOCK)
        r = range_diffs(px[block], py[block], xy) - diffs[:, None]
        total[block] = sum_over_anchors(np.square(r, out=r))
    return total.reshape(xs.size, ys.size)


def _residuals_and_jacobian(pos, xy, diffs):
    h, grad, _ = range_diffs(pos[:1], pos[1:], xy, gradient=True)
    # C-ordered copy: on the transposed view _refine's products round differently.
    return h[:, 0] - diffs, grad[:, :, 0].T.copy()


def _refine(pos, xy, diffs):
    """Damped Gauss-Newton descent on the sum of squared residuals."""
    p = np.asarray(pos, dtype=float).copy()
    res, jac = _residuals_and_jacobian(p, xy, diffs)
    obj = float(res @ res)
    lam = 0.0
    for _ in range(_REFINE_MAX_ITER):
        jtj = jac.T @ jac
        g = jac.T @ res
        try:
            step = np.linalg.solve(jtj + lam * np.eye(2), -g)
        except np.linalg.LinAlgError:
            lam = max(lam * 10.0, 1e-9)
            continue
        if not np.all(np.isfinite(step)):
            break
        cand = p + step
        cand_res, cand_jac = _residuals_and_jacobian(cand, xy, diffs)
        cand_obj = float(cand_res @ cand_res)
        if cand_obj <= obj:
            p, res, jac, obj = cand, cand_res, cand_jac, cand_obj
            lam = 0.0
            if float(np.hypot(*step)) < _REFINE_TOL:
                break
        else:
            lam = max(lam * 10.0, 1e-9)
            if lam > 1e6:
                break
    return p, obj


def _closed_form(xy, diffs):
    """Refined closed-form fix, or None where the gate below sends the set
    to the grid.

    With b_i = a_i - a_ref and p = a_ref + q, each range difference d_i is
    linear in (q, r_ref): [b_ix, b_iy, d_i] . [qx, qy, r_ref] = (|b_i|^2 -
    d_i^2)/2 (spherical interpolation, Smith & Abel 1987; Chan & Ho 1994).
    Its least-squares solution seeds ``_refine``.  The point is kept only if
    every |d_i| <= |b_i|, the system's condition number is under
    _SEED_MAX_COND (which implies rank 3), the refined point lies in the
    anchors' bounding box and its RMS residual is under _SEED_MAX_RMS.
    """
    b = xy[1:] - xy[0]
    baseline2 = np.sum(b * b, axis=1)
    if not np.all(diffs * diffs <= baseline2):  # NaN fails too
        return None
    system = np.column_stack((b, diffs))
    sol, _, _, sv = np.linalg.lstsq(system, 0.5 * (baseline2 - diffs * diffs), rcond=None)
    if not sv[0] < _SEED_MAX_COND * sv[-1]:
        return None
    pos, obj = _refine(xy[0] + sol[:2], xy, diffs)
    inside = np.all(xy.min(axis=0) <= pos) and np.all(pos <= xy.max(axis=0))
    if not (inside and obj < _SEED_MAX_RMS**2 * len(diffs)):
        return None
    return pos


def _grid_solve(xy, diffs):
    """Grid search over the padded anchor bounding box, refining every local
    basin; several comparable minima raise ``AmbiguityError``."""
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    pad = max(1.0, 0.25 * float(np.hypot(*(hi - lo))))
    xs = np.arange(lo[0] - pad, hi[0] + pad + _GRID_STEP / 2, _GRID_STEP)
    ys = np.arange(lo[1] - pad, hi[1] + pad + _GRID_STEP / 2, _GRID_STEP)
    grid = _objective_grid(xs, ys, xy, diffs)

    # Local minima of the coarse grid seed the refinement.
    interior = grid[1:-1, 1:-1]
    neighbors = [
        grid[:-2, 1:-1], grid[2:, 1:-1], grid[1:-1, :-2], grid[1:-1, 2:],
        grid[:-2, :-2], grid[:-2, 2:], grid[2:, :-2], grid[2:, 2:],
    ]
    is_min = np.ones_like(interior, dtype=bool)
    for n in neighbors:
        is_min &= interior <= n
    ii, jj = np.nonzero(is_min)
    order = np.argsort(interior[ii, jj])[:8]
    seeds = [(xs[i + 1], ys[j + 1]) for i, j in zip(ii[order], jj[order])]
    if not seeds:
        seeds = [tuple(np.roll(xy, -1, axis=0).mean(axis=0))]  # reference last: same rounding

    candidates: list[tuple[np.ndarray, float]] = []
    for seed in seeds:
        pos, obj = _refine(np.asarray(seed, dtype=float), xy, diffs)
        merged = False
        for idx, (held, held_obj) in enumerate(candidates):
            if float(np.hypot(*(held - pos))) < 1e-3:
                if obj < held_obj:
                    candidates[idx] = (pos, obj)
                merged = True
                break
        if not merged:
            candidates.append((pos, obj))
    candidates.sort(key=lambda c: c[1])
    best_pos, best_obj = candidates[0]
    rivals = [
        (float(p[0]), float(p[1]), o)
        for p, o in candidates
        if o <= _AMBIGUITY_RATIO * best_obj + 1e-12
    ]
    if len(rivals) > 1:
        raise AmbiguityError(rivals)
    return best_pos


def ls_solve(
    meas: TdoaSet,
    anchors: Mapping[str, tuple[float, float]],
    init: Sequence[float] | None = None,
) -> np.ndarray:
    """Minimize the squared range-difference error over the plane.

    Without ``init`` the solver refines the closed-form solution of the
    linearized set, and falls back to a grid search of the anchor bounding
    box (padded, so mirror solutions of degenerate layouts are visible)
    when that solution is ill-conditioned, inconsistent or outside the
    anchors' box; several comparable grid minima raise ``AmbiguityError``.
    With ``init`` it refines locally from there.
    """
    if len(meas.measurements) < 3:
        raise ValueError("need at least 3 range differences for a planar fix")
    xy, diffs, _ = _padded_rows([meas], anchors)
    xy, diffs = xy[..., 0], diffs[:, 0]

    if init is not None:
        pos, _ = _refine(np.asarray(init, dtype=float), xy, diffs)
        return pos
    pos = _closed_form(xy, diffs)
    return _grid_solve(xy, diffs) if pos is None else pos


# ---------------------------------------------------------------------------
# Tracking


@dataclass(frozen=True)
class TrackerConfig:
    """Knobs for the blink-to-blink tracker; a value outside the range noted
    by its field (NaN too) raises ValueError naming the field."""

    sigma_accel: float = DEFAULT_SIGMA_ACCEL  # m/s^2, >= 0 and finite
    sigma_t: float = DEFAULT_SIGMA_T  # s, > 0 and finite
    init_pos_var: float = 0.25  # m^2, > 0 and finite
    init_vel_var: float = 1.0  # (m/s)^2, > 0 and finite
    gap_reset: int = 10  # missed blinks before the track is abandoned, >= 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            zero_ok = name in ("sigma_accel", "gap_reset")
            if not ((value >= 0 if zero_ok else value > 0) and value < math.inf):
                bound = ">= 0" if zero_ok else "> 0"
                raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


def track(
    sets: Sequence[TdoaSet],
    anchors: Mapping[str, tuple[float, float]],
    blink_period: float,
    cfg: TrackerConfig = TrackerConfig(),
    diagnostics: dict | None = None,
) -> list[Fix]:
    """Run the EKF over the TDoA sets of any number of tags, in any order, at
    most one set per (tag_id, blink_seq); fixes come back in that order.

    The tags step together, one blink epoch (``blink_seq``) at a time: each
    tag with a set there predicts once per ``blink_period`` (seconds, the
    time step of the motion model) elapsed since its last set, and one
    ``ekf_update`` folds in the epoch's sets.  Per tag, a track initializes
    from ``ls_solve`` with zero velocity and re-initializes after a gap of
    more than ``gap_reset`` blinks.  Sets whose cold start fails or is
    ambiguous are skipped and counted in ``diagnostics`` under
    ``tracks_not_started``; updates left with no usable row, under
    ``updates_no_usable_rows``.
    """
    if len({(s.tag_id, s.blink_seq) for s in sets}) < len(sets):
        raise ValueError("track takes at most one set per (tag_id, blink_seq)")
    diag = {} if diagnostics is None else diagnostics
    f = transition_matrix(blink_period)
    q = process_noise(blink_period, cfg.sigma_accel)
    p0 = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
    index = {tag_id: i for i, tag_id in enumerate(sorted({s.tag_id for s in sets}))}
    xs, ps = np.zeros((len(index), 4)), np.zeros((len(index), 4, 4))
    last = np.zeros(len(index), dtype=np.int64)  # blink_seq of each tag's last fix
    live = np.zeros(len(index), dtype=bool)
    fixes: list[Fix] = []
    by_epoch = sorted(sets, key=lambda s: (s.blink_seq, s.tag_id))
    for seq, epoch in itertools.groupby(by_epoch, key=lambda s: s.blink_seq):
        batch: list[TdoaSet] = []
        for meas in epoch:
            i = index[meas.tag_id]
            if live[i] and seq - last[i] <= cfg.gap_reset:
                batch.append(meas)
                continue
            live[i] = False
            try:
                pos = ls_solve(meas, anchors)
            except (AmbiguityError, ValueError) as exc:
                log.warning("track init skipped for %s #%d: %s", meas.tag_id, seq, exc)
                diag["tracks_not_started"] = diag.get("tracks_not_started", 0) + 1
                continue
            xs[i], ps[i], last[i], live[i] = (pos[0], pos[1], 0.0, 0.0), p0, seq, True
            fixes.extend(_fixes([meas], xs[i : i + 1], ps[i : i + 1], [0.0]))
        if not batch:
            continue
        rows = np.array([index[m.tag_id] for m in batch])
        x, p = xs[rows], ps[rows]
        steps = seq - last[rows]
        for k in range(int(steps.max())):
            due = steps > k
            x[due], p[due] = ekf_predict(x[due], p[due], f, q)
        xs[rows], ps[rows], new = ekf_update(x, p, batch, anchors, cfg.sigma_t)
        last[rows] = seq
        if skipped := sum(math.isnan(fix.residual_norm) for fix in new):
            diag["updates_no_usable_rows"] = diag.get("updates_no_usable_rows", 0) + skipped
        fixes.extend(new)
    fixes.sort(key=lambda fix: (fix.tag_id, fix.blink_seq))
    return fixes
