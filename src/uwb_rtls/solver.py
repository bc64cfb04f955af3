"""Position estimation from range-difference sets.

Two estimators on purpose: an extended Kalman filter with a constant
velocity model does the real-time tracking, and a grid-seeded nonlinear
least-squares solver provides cold starts plus an independent check on the
filter (both minimize the same range-difference residuals, so on static,
noise-free input they must agree).

The filter steps by the blink period and updates in information form
(``ekf_update``), so no m x m matrix is built for m range differences.

Both read their geometry from one kernel, ``range_diffs``: range
differences against the reference anchor and their gradients (unit-vector
differences) over a block of points, anchor-major.  ``deploy``'s HDoP uses
the same kernel.
"""

from __future__ import annotations

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


@dataclass
class EkfState:
    """Constant-velocity filter state x = [x, y, vx, vy] and its covariance P."""

    x: np.ndarray
    P: np.ndarray


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


def ekf_predict(state: EkfState, f: np.ndarray, q: np.ndarray) -> EkfState:
    """Propagate the state one step through transition ``f`` with process
    noise ``q`` (no control input)."""
    p = f @ state.P @ f.T + q
    return EkfState(x=f @ state.x, P=0.5 * (p + p.T))


def range_diffs(px, py, xy, gradient=False):
    """Range differences against the reference anchor at N points (px, py).

    ``xy`` (M+1, 2) holds the reference anchor first, then M others.  Returns
    anchor-major (M, N) arrays: h[i, n] = |p_n - xy[i+1]| - |p_n - xy[0]|;
    with ``gradient`` also dh/dx and dh/dy (2, M, N), the unit-vector
    differences u_i - u_ref, and ``near`` (M, N), set where anchor i or the
    reference is within _EPS_DIST of the point (the divisor is floored there).
    """
    dx = px - xy[:, 0:1]
    dy = py - xy[:, 1:2]
    d = np.hypot(dx, dy)
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


def _measurement_arrays(meas: TdoaSet, anchors: Mapping[str, tuple[float, float]]):
    """Anchor positions (M+1, 2), reference first, and measured differences (M,)."""
    ids = [meas.reference_anchor] + [a for a, _ in meas.measurements]
    xy = np.array([anchors[a] for a in ids], dtype=float)
    return xy, np.array([d for _, d in meas.measurements], dtype=float)


def ekf_update(
    state: EkfState,
    meas: TdoaSet,
    anchors: Mapping[str, tuple[float, float]],
    sigma_t: float,
) -> tuple[EkfState, Fix]:
    """Fold one TDoA set into the state and emit the resulting fix.

    Information form: the m range differences share the reference's noise,
    R = v (I + 1 1^T) with v = (c sigma_t)^2, so R^-1 = (I - 1 1^T/(m+1)) / v.
    With G the 2 x m gradient rows, s = G 1 and r the innovation, the
    position information is A = (G G^T - s s^T/(m+1)) / v, b = (G r -
    s sum(r)/(m+1)) / v, and P+ = P - P[:, :2] (I + A P11)^-1 A P[:2, :],
    x+ = x + P+[:, :2] b.  I + A P11 has eigenvalues >= 1, so it is never
    singular for ``sigma_t`` > 0.  No row left once anchors within
    _EPS_DIST of the tag are dropped (the reference among them) skips the
    update and reports the predicted state.
    """
    xy, z = _measurement_arrays(meas, anchors)
    h, grad, near = range_diffs(state.x[:1], state.x[1:2], xy, gradient=True)
    keep = ~near[:, 0]  # rows whose anchor (or the reference) sits on the tag go
    m = int(keep.sum())
    if m == 0:
        log.warning(
            "update skipped for %s #%d: no usable measurement rows",
            meas.tag_id, meas.blink_seq,
        )
        return state, _fix_from_state(state, meas, math.nan)
    g = grad[:, keep, 0]
    innovation = z[keep] - h[keep, 0]
    v = (SPEED_OF_LIGHT * sigma_t) ** 2
    s = g.sum(axis=1)
    info = (g @ g.T - np.outer(s, s) / (m + 1)) / v
    b = (g @ innovation - s * (innovation.sum() / (m + 1))) / v
    p = state.P
    p = p - p[:, :2] @ np.linalg.solve(np.eye(2) + info @ p[:2, :2], info) @ p[:2, :]
    p = 0.5 * (p + p.T)
    new_state = EkfState(x=state.x + p[:, :2] @ b, P=p)
    return new_state, _fix_from_state(new_state, meas, float(np.linalg.norm(innovation)))


def _fix_from_state(state: EkfState, meas: TdoaSet, residual: float) -> Fix:
    pos_var = max(float(state.P[0, 0] + state.P[1, 1]), 0.0)
    return Fix(
        tag_id=meas.tag_id,
        blink_seq=meas.blink_seq,
        x=float(state.x[0]),
        y=float(state.x[1]),
        vx=float(state.x[2]),
        vy=float(state.x[3]),
        pos_std=math.sqrt(pos_var),
        residual_norm=residual,
    )


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


def ls_solve(
    meas: TdoaSet,
    anchors: Mapping[str, tuple[float, float]],
    init: Sequence[float] | None = None,
) -> np.ndarray:
    """Minimize the squared range-difference error over the plane.

    Without ``init`` the solver grid-searches the anchor bounding box
    (padded, so mirror solutions of degenerate layouts are visible) and
    refines every local basin; several comparable minima raise
    ``AmbiguityError``.  With ``init`` it refines locally from there.
    """
    if len(meas.measurements) < 3:
        raise ValueError("need at least 3 range differences for a planar fix")
    xy, diffs = _measurement_arrays(meas, anchors)

    if init is not None:
        pos, _ = _refine(np.asarray(init, dtype=float), xy, diffs)
        return pos

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
) -> list[Fix]:
    """Run the EKF over one tag's TDoA sets (ascending blink_seq).

    Tracks initialize from ``ls_solve`` with zero velocity, predict once per
    elapsed ``blink_period`` (seconds, the time step of the motion model),
    and re-initialize after a gap of more than ``gap_reset`` blinks.  Sets
    whose cold start is ambiguous are skipped.
    """
    f = transition_matrix(blink_period)
    q = process_noise(blink_period, cfg.sigma_accel)
    p0 = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
    fixes: list[Fix] = []
    state: EkfState | None = None
    last_seq: int | None = None
    for meas in sets:
        if state is not None and meas.blink_seq - last_seq > cfg.gap_reset:
            state = None
        if state is None:
            try:
                pos = ls_solve(meas, anchors)
            except (AmbiguityError, ValueError) as exc:
                log.warning(
                    "track init skipped for %s #%d: %s", meas.tag_id, meas.blink_seq, exc
                )
                continue
            state = EkfState(x=np.array([pos[0], pos[1], 0.0, 0.0]), P=p0)
            last_seq = meas.blink_seq
            fixes.append(_fix_from_state(state, meas, 0.0))
            continue
        for _ in range(meas.blink_seq - last_seq):
            state = ekf_predict(state, f, q)
        state, fix = ekf_update(state, meas, anchors, cfg.sigma_t)
        last_seq = meas.blink_seq
        fixes.append(fix)
    return fixes
