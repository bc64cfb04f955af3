"""Position estimation from a blink's synchronized arrivals.

Two estimators on purpose: an extended Kalman filter with a constant
velocity model does the real-time tracking, and a nonlinear least-squares
solver provides cold starts plus an independent check on the filter.  Both
minimize the residuals z_i - |p - a_i| of each receiver's arrival (meters),
centred on their mean over the blink's usable receivers, which removes the
time of emission: no receiver is a reference, and on static, noise-free
input the two agree.  Both read that objective's normal equations from one
kernel, ``_normal_equations``, built on ``ranges`` (ranges from each anchor
and their unit vectors over a block of points, anchor-major, which
``deploy``'s HDoP uses too).

``track`` steps every tag that blinked at one blink epoch together.
``ekf_update`` works on stacked (B, 4) states and (B, 4, 4) covariances in
information form, so no m x m matrix is built for m receivers; the cold
starts refine every closed-form seed of every starting blink in one damped
Gauss-Newton call, then judge ambiguity per blink among the minima inside
its anchors' padded box.  One fancy index lays out each batch
(``BlinkRows``), padded to the widest blink and masked, and sums run in one
fixed order with elementwise operations, so a tag's fixes are the same bits
whatever other tags share its epochs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT, tally
from .protocol import present_codes

log = logging.getLogger(__name__)

DEFAULT_SIGMA_ACCEL = 1.0  # m/s^2, white acceleration driving the motion model
DEFAULT_SIGMA_T = 1e-10  # s, per-timestamp noise driving measurement covariance

_REFINE_TOL = 1e-6  # m, local refinement stops at the first step shorter than this
_REFINE_MAX_ITER = 80
_AMBIGUITY_RATIO = 2.0  # minima within this factor of the best one are rivals
_MERGE_DIST = 1e-3  # m, refined minima closer than this are one
_EPS_DIST = 1e-12  # m, guards unit vectors at anchor positions


class SolverError(RuntimeError):
    """Position estimation failure."""


class AmbiguityError(SolverError):
    """The objective has several comparable minima (degenerate geometry), or
    none near the anchors.

    ``candidates`` holds (x, y, objective) for each rival minimum found.
    """

    def __init__(self, candidates: Sequence[tuple[float, float, float]]) -> None:
        self.candidates = tuple(candidates)
        spots = "; ".join(f"({x:.3f}, {y:.3f}) obj={o:.3g}" for x, y, o in self.candidates)
        super().__init__(
            f"ambiguous geometry, comparable minima at: {spots}"
            if spots else "no minimum within the anchors' padded box"
        )


@dataclass(frozen=True, eq=False)
class BlinkRows:
    """Blinks as runs of arrival rows, the tracker's input.

    Blink i is tag ``ids[tag[i]]``'s blink ``blink_seq[i]``; its arrivals
    are rows ``start[i]`` to ``start[i] + size[i]`` of ``meters`` (c x
    arrival time, against any origin common to the blink) and ``anchor``
    (the receiving anchor, a code into ``xy``, one position (2,) per code).
    ``ids`` is sorted, ``tag`` and the int64 ``blink_seq``, ``start`` and
    ``size`` hold one entry per blink, and rows no blink names are never
    read.  ``engine.locate_reports`` hands over the sync's ``ArrivalTable``
    rows and anchor codes as they are.
    """

    ids: tuple[str, ...]
    tag: np.ndarray
    blink_seq: np.ndarray
    start: np.ndarray
    size: np.ndarray
    meters: np.ndarray
    anchor: np.ndarray
    xy: np.ndarray

    def arrivals(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Blink i's anchor positions (m, 2) and arrivals (m,)."""
        rows = slice(self.start[i], self.start[i] + self.size[i])
        return self.xy[self.anchor[rows]], self.meters[rows]

    def layout(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The blinks ``batch`` padded to the widest, by one fancy index:
        anchor positions (M, 2, B), arrivals (M, B), and which rows hold an
        arrival (M, B).  A padding row repeats row 0 of the arrays."""
        size = self.size[batch]
        row = np.arange(int(size.max(initial=0)))[:, None]
        keep = row < size
        index = np.where(keep, self.start[batch] + row, 0)
        return self.xy[self.anchor[index]].transpose(0, 2, 1), self.meters[index], keep


@dataclass(frozen=True, eq=False)
class FixTable:
    """Fixes as columns, one row per blink: ``tag`` as int32 codes into ``ids``, the sorted
    tag ids, ``blink_seq`` int64, and float64 ``x``, ``y``, ``vx``, ``vy``, ``pos_std``
    (meters, from the covariance diagonal) and ``residual_norm`` (meters, the centred
    innovation norm at update time; ``cli.read_fixes_csv`` reads it as 0.0)."""

    ids: tuple[str, ...]
    tag: np.ndarray
    blink_seq: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    pos_std: np.ndarray
    residual_norm: np.ndarray

    def __len__(self) -> int:
        return len(self.blink_seq)


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


def ranges(px, py, xy):
    """Ranges from M anchors to N points (px, py).

    ``xy`` (M, 2) holds one anchor layout for all points; (M, 2, N) holds
    one layout per point.  Returns anchor-major (M, N) ranges d[i, n] =
    |p_n - xy[i]|, dd/dx and dd/dy (2, M, N), the unit vectors from each
    anchor to each point, and ``near`` (M, N), set where the anchor is
    within _EPS_DIST of the point (the divisor is floored there).
    """
    if xy.ndim == 2:
        xy = xy[:, :, None]
    dx = px - xy[:, 0]
    dy = py - xy[:, 1]
    d = np.sqrt(dx * dx + dy * dy)
    floor = np.maximum(d, _EPS_DIST)
    return d, np.stack((dx / floor, dy / floor)), d < _EPS_DIST


def sum_over_anchors(a: np.ndarray) -> np.ndarray:
    """Sum (M, N) over anchors in their order, for any N (numpy's own
    reduction turns pairwise at N = 1, so one point would not match a block)."""
    total = np.zeros(a.shape[1])
    for row in a:
        total += row
    return total


def _normal_equations(px, py, xy, z, keep):
    """Centred normal equations at N points (px, py), each on its own blink
    as ``BlinkRows.layout`` lays it out (``xy`` (M, 2, N), ``z`` and
    ``keep`` (M, N)): with r the residuals z_i - |p - a_i| and G the
    unit-vector rows, both centred on their mean over the point's w usable
    rows, the sums GG^T (xx, xy, yy), Gr (x, y) and r.r (6, N), and w (N,).
    Rows not kept, and rows whose anchor is within _EPS_DIST of the point,
    are not usable.  Sums run over rows in order, so no point's bits depend
    on the others'."""
    d, (ux, uy), near = ranges(px, py, xy)
    keep = keep & ~near  # a row whose anchor sits on the point goes
    w = keep.sum(axis=0)
    rows = np.where(keep[:, None], np.stack((ux, uy, z - d), axis=1), 0.0)
    mean = sum_over_anchors(rows.reshape(len(keep), 3 * w.size)).reshape(3, -1) / np.maximum(w, 1)
    gx, gy, r = np.where(keep[:, None], rows - mean, 0.0).transpose(1, 0, 2)
    terms = np.stack((gx * gx, gx * gy, gy * gy, gx * r, gy * r, r * r), axis=1)
    return sum_over_anchors(terms.reshape(len(keep), 6 * w.size)).reshape(6, -1), w


def ekf_update(x: np.ndarray, p: np.ndarray, xy: np.ndarray, z: np.ndarray, keep: np.ndarray,
               sigma_t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold one blink's arrivals per tag into B predicted states.

    ``x`` (B, 4) and ``p`` (B, 4, 4) are the tags' states; ``xy`` (M, 2,
    B), ``z`` (M, B) and ``keep`` (M, B) their blinks' anchor positions,
    arrivals and which rows hold one (``BlinkRows.layout``).  Returns the
    updated states and each tag's centred innovation norm.

    Information form, per tag, on the cold start's centred normal
    equations (``_normal_equations``) at the predicted position: the
    position information is A = G G^T / v and b = G r / v with v = (c
    sigma_t)^2, the textbook update on the w - 1 range differences against
    any one receiver, whose noise R = v (I + 1 1^T) they share.  Then P+ =
    P - P[:, :2] (I + A P11)^-1 A P[:2, :], x+ = x + P+[:, :2] b; I + A P11
    has eigenvalues >= 1, so its determinant is too for ``sigma_t`` > 0.  A
    tag with fewer than two usable rows keeps its predicted state, and its
    innovation norm is NaN.
    """
    (gxx, gxy, gyy, bx, by, rr), w = _normal_equations(x[:, 0], x[:, 1], xy, z, keep)
    v = (SPEED_OF_LIGHT * sigma_t) ** 2
    info = np.stack((gxx, gxy, gxy, gyy), axis=-1).reshape(-1, 2, 2) / v
    b = np.stack((bx, by), axis=-1)[..., None] / v
    a = np.eye(2) + _matmul(info, p[:, :2, :2])
    adjugate = np.stack((a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]), axis=-1)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    solved = _matmul(adjugate.reshape(-1, 2, 2) / det[:, None, None], info)
    p_new = p - _matmul(_matmul(p[:, :, :2], solved), p[:, :2, :])
    p_new = 0.5 * (p_new + p_new.swapaxes(-1, -2))
    x_new = x + _matmul(p_new[:, :, :2], b)[..., 0]
    ok = w >= 2
    x = np.where(ok[:, None], x_new, x)
    p = np.where(ok[:, None, None], p_new, p)
    return x, p, np.where(ok, np.sqrt(rr), math.nan)


# ---------------------------------------------------------------------------
# Independent nonlinear least squares


def _refine(p, xy, z, keep):
    """Damped Gauss-Newton (Levenberg-Marquardt) from N points p (2, N), each
    on its own blink (``BlinkRows.layout``); returns them and their
    objectives (N,).  Per point, a step that does not raise the objective is
    taken and divides the damping by 10, else (or on a singular system) it
    rises tenfold from at least 1e-9; past 1e6 a refused step ends the
    descent, as do the first step under _REFINE_TOL and _REFINE_MAX_ITER."""
    p = np.array(p, dtype=float)
    sums, _ = _normal_equations(p[0], p[1], xy, z, keep)
    lam, live = np.zeros(p.shape[1]), np.ones(p.shape[1], dtype=bool)
    for _ in range(_REFINE_MAX_ITER):
        sxx, sxy, syy, bx, by, obj = sums
        sxx, syy = sxx + lam, syy + lam
        det = sxx * syy - sxy * sxy
        go = np.flatnonzero(live & (det > 0.0))  # neither singular nor NaN
        step = np.stack((syy * bx - sxy * by, sxx * by - sxy * bx))[:, go] / det[go]
        cand = p[:, go] + step
        new, _ = _normal_equations(cand[0], cand[1], xy[:, :, go], z[:, go], keep[:, go])
        took = np.zeros_like(live)
        took[go] = new[5] <= obj[go]
        p[:, took], sums[:, took] = cand[:, took[go]], new[:, took[go]]
        lam = np.where(took, lam / 10.0, np.where(live, np.maximum(lam * 10.0, 1e-9), lam))
        live[go[~took[go] & (lam[go] > 1e6)]] = False
        live[go[np.hypot(*step) < _REFINE_TOL]] = False
        if not live.any():
            break
    return p, sums[5]


def _seeds(xy, z):
    """Starting points from the linearized set, as offsets from row 0's anchor.

    With b_i = a_i - a_0, d_i = z_i - z_0 and p = a_0 + q, d_i is linear in
    (q, r_0): [b_ix, b_iy, d_i] . [qx, qy, r_0] = (|b_i|^2 - d_i^2)/2
    (spherical interpolation, Smith & Abel 1987; Chan & Ho 1994).
    The seeds are its least-squares solution and the two roots of |q(r)| =
    r, with q(r) = q0 - r q1 the least-squares offset for a given r_0.
    Collinear anchors (baselines of rank 1) add the least-squares point's
    two mirror images across their line; coincident ones have no fix.
    """
    b, diffs = xy[1:] - xy[0], z[1:] - z[0]
    baseline2 = np.sum(b * b, axis=1)
    rhs = 0.5 * (baseline2 - diffs * diffs)
    sol = np.linalg.lstsq(np.column_stack((b, diffs)), rhs, rcond=None)[0]
    offsets, _, rank, _ = np.linalg.lstsq(b, np.column_stack((rhs, diffs)), rcond=None)
    if rank == 0:  # every anchor where row 0's is
        raise AmbiguityError(())
    q0, q1 = offsets.T
    seeds = [sol[:2]]
    a, h, c = float(q1 @ q1) - 1.0, float(q0 @ q1), float(q0 @ q0)
    if a != 0.0:  # a r^2 - 2 h r + c = 0; complex roots seed at their real part
        root = math.sqrt(max(h * h - a * c, 0.0))
        seeds += [q0 - (h + sign * root) / a * q1 for sign in (1.0, -1.0)]
    if rank == 1:
        u = b[np.argmax(baseline2)]
        normal = np.array([-u[1], u[0]]) / math.hypot(*u)
        height = math.sqrt(max(sol[2] ** 2 - sol[:2] @ sol[:2], 0.0))
        seeds += [sol[:2] + height * normal, sol[:2] - height * normal]
    return seeds


# A planar position needs three independent range differences, so a usable
# blink involves at least four receivers.
MIN_RECEIVERS = 4


def _cold_starts(blinks: BlinkRows, batch: np.ndarray) -> list[np.ndarray | Exception]:
    """Cold starts of the blinks ``batch``: per blink its position (2,), or
    the error it raises.  Every seed (``_seeds``) of every blink is refined
    in one ``_refine`` call.  Minima outside the blink's anchors' bounding
    box, padded by a quarter of its diagonal (at least 1 m), are dropped,
    and minima closer than _MERGE_DIST are one.  No minimum left, or several
    within _AMBIGUITY_RATIO of the best, is an ``AmbiguityError``; fewer
    than MIN_RECEIVERS arrivals, a ``ValueError``."""
    starts: list = [None] * len(batch)
    seeds, owner = [], []
    for k, b in enumerate(batch.tolist()):
        xy, z = blinks.arrivals(b)
        try:
            if len(z) < MIN_RECEIVERS:
                raise ValueError(f"need at least {MIN_RECEIVERS} arrivals for a planar fix")
            seeds += [xy[0] + seed for seed in _seeds(xy, z)]
        except (AmbiguityError, ValueError) as exc:
            starts[k] = exc
        owner += [k] * (len(seeds) - len(owner))
    xy, z, keep = blinks.layout(batch[owner])
    pos, obj = _refine(np.reshape(seeds, (-1, 2)).T, xy, z, keep)
    lo = xy.min(axis=0, initial=np.inf, where=keep[:, None])  # each seed's blink's box
    hi = xy.max(axis=0, initial=-np.inf, where=keep[:, None])
    pad = np.maximum(1.0, 0.25 * np.hypot(*(hi - lo)))
    inside = np.all((lo - pad <= pos) & (pos <= hi + pad), axis=0)  # NaN fails too
    for k in [k for k, start in enumerate(starts) if start is None]:
        mine = np.equal(owner, k) & inside
        kept: list[tuple[np.ndarray, float]] = []
        for p, o in sorted(zip(pos.T[mine], obj[mine].tolist()), key=lambda m: m[1]):
            if all(math.dist(p, held) >= _MERGE_DIST for held, _ in kept):
                kept.append((p, o))
        rivals = [(float(p[0]), float(p[1]), o) for p, o in kept
                  if o <= _AMBIGUITY_RATIO * kept[0][1] + 1e-12]
        starts[k] = kept[0][0] if len(rivals) == 1 else AmbiguityError(rivals)
    return starts


def ls_solve(xy: np.ndarray, z: np.ndarray, init: Sequence[float] | None = None) -> np.ndarray:
    """Minimize the sum of squared centred residuals of one blink's
    arrivals ``z`` (m,), c x arrival time in meters against any common
    origin, at anchors ``xy`` (m, 2) over the plane: without ``init`` by a
    cold start (``_cold_starts``, whose errors it raises), with ``init`` by
    refining locally from there."""
    one = np.zeros(1, dtype=np.int64)
    blink = BlinkRows(("",), one, one, one, np.array([len(z)]), z, np.arange(len(z)), xy)
    if init is None:
        (start,) = _cold_starts(blink, one)
        if isinstance(start, Exception):
            raise start
        return start
    if len(z) < MIN_RECEIVERS:
        raise ValueError(f"need at least {MIN_RECEIVERS} arrivals for a planar fix")
    return _refine(np.reshape(init, (2, 1)), *blink.layout(one))[0][:, 0]


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


def track(blinks: BlinkRows, blink_period: float, cfg: TrackerConfig = TrackerConfig(),
          diagnostics: dict | None = None) -> FixTable:
    """Run the EKF over the blinks of any number of tags, in any order, at
    most one per (tag_id, blink_seq); fixes come back in (tag_id,
    blink_seq) order, and their ids are the tags that have one.

    The tags step together, one blink epoch (``blink_seq``) at a time: each
    tag with a blink there predicts once per ``blink_period`` (seconds, the
    time step of the motion model) elapsed since its last one, and one
    ``ekf_update`` folds in the epoch's blinks, laid out by one fancy index
    (``BlinkRows.layout``).  A track starts, with zero velocity, from a cold
    start (``_cold_starts``, one batch per epoch) and restarts after a gap of
    more than ``gap_reset`` blinks.  Blinks whose cold start fails or is
    ambiguous are skipped and counted in ``diagnostics`` under
    ``tracks_not_started``; updates left with fewer than two usable rows,
    under ``updates_no_usable_rows``.
    """
    order = np.lexsort((blinks.tag, blinks.blink_seq))
    tag, seq = blinks.tag[order], blinks.blink_seq[order]
    if np.any((tag[1:] == tag[:-1]) & (seq[1:] == seq[:-1])):
        raise ValueError("track takes at most one blink per (tag_id, blink_seq)")
    f, q = transition_matrix(blink_period), process_noise(blink_period, cfg.sigma_accel)
    p0 = np.diag([cfg.init_pos_var, cfg.init_pos_var, cfg.init_vel_var, cfg.init_vel_var])
    tags, slot = np.unique(blinks.tag, return_inverse=True)  # each blink's tag's state
    xs, ps = np.zeros((len(tags), 4)), np.zeros((len(tags), 4, 4))
    last = np.zeros(len(tags), dtype=np.int64)  # blink_seq of each tag's last fix
    live = np.zeros(len(tags), dtype=bool)
    # Per blink, once fixed: its state, position variance and residual (0 at a cold start).
    out_x, out_var, out_res = np.zeros((len(order), 4)), np.zeros(len(order)), np.zeros(len(order))
    fixed = np.zeros(len(order), dtype=bool)
    bounds = np.flatnonzero(np.diff(seq, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        epoch, now = order[lo:hi], int(seq[lo])
        i = slot[epoch]
        going = live[i] & (now - last[i] <= cfg.gap_reset)
        live[i[~going]] = False
        cold = epoch[~going]
        for b, start in zip(cold.tolist(), _cold_starts(blinks, cold) if len(cold) else ()):
            if isinstance(start, Exception):
                log.warning("track init skipped for %s #%d: %s",
                            blinks.ids[blinks.tag[b]], now, start)
                tally(diagnostics, "tracks_not_started")
                continue
            k = slot[b]
            xs[k], ps[k], last[k], live[k] = (start[0], start[1], 0.0, 0.0), p0, now, True
            out_x[b], out_var[b], fixed[b] = xs[k], ps[k, 0, 0] + ps[k, 1, 1], True
        batch = epoch[going]
        if not len(batch):
            continue
        rows = slot[batch]
        x, p = xs[rows], ps[rows]
        steps = now - last[rows]
        for n in range(int(steps.max())):
            due = steps > n
            x[due], p[due] = ekf_predict(x[due], p[due], f, q)
        xs[rows], ps[rows], residual = ekf_update(x, p, *blinks.layout(batch), cfg.sigma_t)
        last[rows] = now
        for b in batch[np.isnan(residual)].tolist():
            log.warning("update skipped for %s #%d: fewer than two usable receivers",
                        blinks.ids[blinks.tag[b]], now)
            tally(diagnostics, "updates_no_usable_rows")
        out_x[batch], out_var[batch], out_res[batch], fixed[batch] = (
            xs[rows], ps[rows, 0, 0] + ps[rows, 1, 1], residual, True)
    done = np.flatnonzero(fixed)
    done = done[np.lexsort((blinks.blink_seq[done], blinks.tag[done]))]
    present, (tag,) = present_codes(len(blinks.ids), blinks.tag[done])
    return FixTable(tuple(map(blinks.ids.__getitem__, present.tolist())), tag,
                    blinks.blink_seq[done], *out_x[done].T,
                    np.sqrt(np.maximum(out_var[done], 0.0)), out_res[done])
