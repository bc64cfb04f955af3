"""Deployment-time checks: placement rules and dilution of precision maps.

The rule checks codify anchor placement guidance; rules that need a human
(radio environment, mounting surfaces when no geometry is given) come back
as ``manual`` with instructions instead of a verdict.  The HDoP functions
quantify how anchor geometry amplifies ranging noise into position noise at
each point of the service area; their geometry matrix comes from
``solver.range_diffs``, the kernel the EKF and the least squares use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .solver import GEOMETRY_BLOCK, range_diffs, sum_over_anchors
from .topology import NetworkTopology, ROLE_MASTER, ROLE_SLAVE

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_MANUAL = "manual"

MIN_LOS_SLAVES = 3
MAX_HEIGHT_VARIATION = 1.0  # m
MIN_WALL_CLEARANCE = 0.15  # m
PREFERRED_WALL_CLEARANCE = 0.5  # m
MIN_ANCHOR_SPACING = 3.0  # m
MIN_AREA_SIDE = 3.0  # m

Segment = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class RuleResult:
    rule: str  # "a" .. "f"
    status: str  # pass | fail | manual
    detail: str


@dataclass(frozen=True)
class DeploymentReport:
    rule_results: tuple[RuleResult, ...]
    hdop_rows: tuple[tuple[float, float, float], ...]  # (x, y, hdop)
    worst_hdop_in_hull: float

    def to_dict(self) -> dict:
        return {
            "rules": [
                {"rule": r.rule, "status": r.status, "detail": r.detail}
                for r in self.rule_results
            ],
            "worst_hdop_in_hull": self.worst_hdop_in_hull,
        }


# ---------------------------------------------------------------------------
# Geometry helpers


def _orientation(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_intersect(s1: Segment, s2: Segment) -> bool:
    p1, p2 = s1
    p3, p4 = s2
    d1 = _orientation(p3, p4, p1)
    d2 = _orientation(p3, p4, p2)
    d3 = _orientation(p1, p2, p3)
    d4 = _orientation(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    if d1 == 0 and on_segment(p3, p4, p1):
        return True
    if d2 == 0 and on_segment(p3, p4, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, p3):
        return True
    return d4 == 0 and on_segment(p1, p2, p4)


def _point_segment_distance(p: tuple[float, float], seg: Segment) -> float:
    a, b = np.asarray(seg[0], float), np.asarray(seg[1], float)
    q = np.asarray(p, float)
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((q - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(a + t * ab - q)))


def _convex_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; returns hull vertices counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2 and _orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def _inside_hull(p: tuple[float, float], hull: Sequence[tuple[float, float]]) -> bool:
    if len(hull) < 3:
        return False
    return all(
        _orientation(hull[i], hull[(i + 1) % len(hull)], p) > 0 for i in range(len(hull))
    )


# ---------------------------------------------------------------------------
# Placement rules


def check_rules(
    topo: NetworkTopology,
    area: tuple[tuple[float, float], tuple[float, float]] | None = None,
    obstacles: Sequence[Segment] = (),
    walls: Sequence[Segment] = (),
) -> list[RuleResult]:
    """Evaluate the placement rules a-f against a topology.

    ``area`` is the service rectangle ((xmin, ymin), (xmax, ymax)); when
    omitted the anchor bounding box stands in.  ``obstacles`` block line of
    sight for rule (a); ``walls`` are the mounting surfaces for rule (d).
    """
    results = []
    anchors = list(topo.anchors)
    positions = [a.xy() for a in anchors]

    # (a) every master must see at least MIN_LOS_SLAVES slaves directly.
    shortfalls = []
    for m in topo.masters():
        m_pos = topo.anchor(m).xy()
        visible = 0
        for s in topo.slaves():
            segment = (m_pos, topo.anchor(s).xy())
            if not any(_segments_intersect(segment, o) for o in obstacles):
                visible += 1
        if visible < MIN_LOS_SLAVES:
            shortfalls.append(f"{m} sees {visible}")
    if shortfalls:
        results.append(
            RuleResult("a", STATUS_FAIL,
                       f"masters with line of sight to fewer than {MIN_LOS_SLAVES} "
                       f"slaves: {', '.join(shortfalls)}")
        )
    else:
        results.append(
            RuleResult("a", STATUS_PASS,
                       f"every master has line of sight to >= {MIN_LOS_SLAVES} slaves"
                       + ("" if obstacles else " (no obstacles given)"))
        )

    # (b) radio environment cannot be judged from coordinates.
    results.append(
        RuleResult("b", STATUS_MANUAL,
                   "verify on site that anchors are clear of strong RF interference "
                   "sources (motors, WiFi access points, metal cabinets)")
    )

    # (c) anchors should sit at nearly the same height.
    heights = [a.height() for a in anchors]
    variation = max(heights) - min(heights) if heights else 0.0
    if variation <= MAX_HEIGHT_VARIATION + 1e-9:
        results.append(
            RuleResult("c", STATUS_PASS, f"height variation {variation:.2f} m <= "
                                         f"{MAX_HEIGHT_VARIATION:.1f} m")
        )
    else:
        results.append(
            RuleResult("c", STATUS_FAIL, f"height variation {variation:.2f} m exceeds "
                                         f"{MAX_HEIGHT_VARIATION:.1f} m")
        )

    # (d) anchors need clearance from walls.
    if walls:
        worst = min(
            min(_point_segment_distance(p, w) for w in walls) for p in positions
        )
        if worst < MIN_WALL_CLEARANCE:
            results.append(
                RuleResult("d", STATUS_FAIL,
                           f"minimum wall clearance {worst:.2f} m is below "
                           f"{MIN_WALL_CLEARANCE:.2f} m")
            )
        elif worst < PREFERRED_WALL_CLEARANCE:
            results.append(
                RuleResult("d", STATUS_PASS,
                           f"minimum wall clearance {worst:.2f} m meets the "
                           f"{MIN_WALL_CLEARANCE:.2f} m floor but is under the "
                           f"preferred {PREFERRED_WALL_CLEARANCE:.1f} m")
            )
        else:
            results.append(
                RuleResult("d", STATUS_PASS,
                           f"minimum wall clearance {worst:.2f} m (preferred "
                           f">= {PREFERRED_WALL_CLEARANCE:.1f} m)")
            )
    else:
        results.append(
            RuleResult("d", STATUS_MANUAL,
                       f"no wall geometry given; keep every anchor at least "
                       f"{MIN_WALL_CLEARANCE:.2f} m (preferably "
                       f"{PREFERRED_WALL_CLEARANCE:.1f} m) off walls")
        )

    # (e) anchors need spread: pairwise spacing and a big enough area.
    n = len(positions)
    min_spacing = min(
        (math.dist(positions[i], positions[j]) for i in range(n) for j in range(i + 1, n)),
        default=math.inf,
    )
    if area is not None:
        (x0, y0), (x1, y1) = area
        width, height = abs(x1 - x0), abs(y1 - y0)
    else:
        xs = [p[0] for p in positions]
        ys = [p[1] for p in positions]
        width, height = max(xs) - min(xs), max(ys) - min(ys)
    spacing_ok = min_spacing > MIN_ANCHOR_SPACING
    area_ok = width >= MIN_AREA_SIDE and height >= MIN_AREA_SIDE
    detail = (
        f"minimum anchor spacing {min_spacing:.2f} m (need > {MIN_ANCHOR_SPACING:.1f} m), "
        f"area {width:.2f} m x {height:.2f} m (need >= {MIN_AREA_SIDE:.1f} m each side)"
    )
    results.append(RuleResult("e", STATUS_PASS if spacing_ok and area_ok else STATUS_FAIL, detail))

    # (f) mounting and cabling cannot be judged from coordinates.
    results.append(
        RuleResult("f", STATUS_MANUAL,
                   "verify on site that anchors are rigidly mounted with stable power "
                   "and that the master cascade has wired or reliable backhaul")
    )
    return results


# ---------------------------------------------------------------------------
# Dilution of precision


def _hdop(px, py, anchors: Mapping[str, tuple[float, float]], reference: str):
    """HDoP at each point (px[n], py[n]), ``inf`` on an anchor or where the
    geometry is degenerate (everywhere, with fewer than three anchors), and
    the mask of points on an anchor.  G^T G is 2x2, so trace((G^T G)^-1) is
    (a + c) / det in closed form."""
    others = sorted(a for a in anchors if a != reference)
    xy = np.array([anchors[a] for a in [reference, *others]], dtype=float)
    hdop = np.empty(px.size)
    on_anchor = np.empty(px.size, dtype=bool)
    for start in range(0, px.size, GEOMETRY_BLOCK):
        block = slice(start, start + GEOMETRY_BLOCK)
        _, (gx, gy), near = range_diffs(px[block], py[block], xy, gradient=True)
        a, b, c = (sum_over_anchors(u * v) for u, v in ((gx, gx), (gx, gy), (gy, gy)))
        det = a * c - b * b
        trace = a + c
        on_anchor[block] = near.any(axis=0)
        ok = ~on_anchor[block] & (det > 1e-12 * (trace * trace + 1.0))
        hdop[block] = np.where(ok, np.sqrt(trace / np.where(ok, det, 1.0)), math.inf)
    return hdop, on_anchor


def hdop_at(
    point: tuple[float, float],
    anchors: Mapping[str, tuple[float, float]],
    reference: str,
) -> float:
    """Horizontal dilution of precision of a TDoA fix at ``point``.

    Rows of the geometry matrix are unit-vector differences against the
    reference anchor; the value is sqrt(trace((G^T G)^-1)).  Degenerate
    geometry (all anchors collinear with the point) returns ``inf``; a point
    within 1e-12 m of an anchor raises ``ValueError``.
    """
    if sum(a != reference for a in anchors) < 2:
        raise ValueError("need the reference plus at least two more anchors")
    px, py = np.asarray(point, dtype=float).reshape(2, 1)
    hdop, on_anchor = _hdop(px, py, anchors, reference)
    if on_anchor[0]:
        raise ValueError(f"point {tuple(point)} coincides with an anchor")
    return float(hdop[0])


def hdop_grid(
    area: tuple[tuple[float, float], tuple[float, float]],
    resolution: float,
    anchors: Mapping[str, tuple[float, float]],
    reference: str,
) -> list[tuple[float, float, float]]:
    """HDoP sampled on a regular grid over ``area`` (inclusive edges).

    Rows come back x-major: (x, y, hdop); points within 1e-12 m of an
    anchor, and every point when there are fewer than three anchors, are
    reported as ``inf``.
    """
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be a positive finite number")
    (x0, y0), (x1, y1) = area
    xs = np.arange(x0, x1 + resolution / 2, resolution)
    ys = np.arange(y0, y1 + resolution / 2, resolution)
    px, py = np.repeat(xs, ys.size), np.tile(ys, xs.size)  # x-major
    hdop, _ = _hdop(px, py, anchors, reference)
    return list(zip(px.tolist(), py.tolist(), hdop.tolist()))


def grid_to_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    lines = ["x,y,hdop"]
    for x, y, value in rows:
        lines.append(f"{x!r},{y!r},{value!r}")
    return "\n".join(lines) + "\n"


def worst_hdop_in_hull(
    rows: Sequence[tuple[float, float, float]],
    anchors: Mapping[str, tuple[float, float]],
) -> float:
    """Largest finite grid HDoP strictly inside the anchors' convex hull."""
    hull = _convex_hull(list(anchors.values()))
    inside = [v for x, y, v in rows if _inside_hull((x, y), hull) and math.isfinite(v)]
    return max(inside) if inside else math.inf


def build_deployment_report(
    topo: NetworkTopology,
    area: tuple[tuple[float, float], tuple[float, float]] | None = None,
    resolution: float = 0.5,
    reference: str | None = None,
    obstacles: Sequence[Segment] = (),
    walls: Sequence[Segment] = (),
) -> DeploymentReport:
    """Rules plus an HDoP map in one report.

    The reference defaults to the anchor the engine would pick as time base
    when every anchor hears a blink.
    """
    from .timebase import NoTimeBaseError, select_time_base

    rules = tuple(check_rules(topo, area, obstacles, walls))
    positions = topo.positions()
    if area is None:
        xs = [p[0] for p in positions.values()]
        ys = [p[1] for p in positions.values()]
        area = ((min(xs), min(ys)), (max(xs), max(ys)))
    if reference is None:
        try:
            reference = select_time_base(topo.ids(), topo)
        except NoTimeBaseError:
            reference = topo.primary_master()
    rows = tuple(hdop_grid(area, resolution, positions, reference))
    return DeploymentReport(rules, rows, worst_hdop_in_hull(rows, positions))
