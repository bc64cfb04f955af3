"""Deployment-time checks: placement rules and dilution of precision maps.

The rule checks codify anchor placement guidance; rules that need a human
(radio environment, wall clearance, mounting) come back as ``manual`` with
instructions instead of a verdict.  The HDoP functions quantify how anchor
geometry amplifies ranging noise into position noise at each point of the
service area; their geometry matrix comes from ``solver.ranges``, the kernel
the EKF and the least squares use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .constants import row_blocks
from .solver import ranges
from .topology import NetworkTopology

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_MANUAL = "manual"

MIN_LOS_SLAVES = 3
MAX_HEIGHT_VARIATION = 1.0  # m
MIN_WALL_CLEARANCE = 0.15  # m
PREFERRED_WALL_CLEARANCE = 0.5  # m
MIN_ANCHOR_SPACING = 3.0  # m
MIN_AREA_SIDE = 3.0  # m


@dataclass(frozen=True)
class RuleResult:
    rule: str  # "a" .. "f"
    status: str  # pass | fail | manual
    detail: str


@dataclass(frozen=True, eq=False)
class HdopGrid:
    """HDoP on a grid as float64 columns: ``hdop[i]`` at point (``x[i]``, ``y[i]``)."""

    x: np.ndarray
    y: np.ndarray
    hdop: np.ndarray

    def __len__(self) -> int:
        return len(self.hdop)


@dataclass(frozen=True)
class DeploymentReport:
    rule_results: tuple[RuleResult, ...]
    grid: HdopGrid
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


# ---------------------------------------------------------------------------
# Placement rules


def _anchor_box(positions: Iterable[tuple[float, float]]):
    """The anchors' bounding box ((xmin, ymin), (xmax, ymax)): the default area."""
    xs, ys = zip(*positions)
    return (min(xs), min(ys)), (max(xs), max(ys))


def check_rules(
    topo: NetworkTopology,
    area: tuple[tuple[float, float], tuple[float, float]] | None = None,
) -> list[RuleResult]:
    """Evaluate the placement rules a-f against a topology.

    ``area`` is the service rectangle ((xmin, ymin), (xmax, ymax)); when
    omitted the anchor bounding box stands in.  With no obstacle geometry,
    every master has line of sight to every slave for rule (a).
    """
    results = []
    anchors = list(topo.anchors)
    positions = [a.xy() for a in anchors]

    # (a) every master must see at least MIN_LOS_SLAVES slaves directly.
    visible = len(topo.slaves())
    if visible < MIN_LOS_SLAVES:
        results.append(RuleResult(
            "a", STATUS_FAIL, f"masters with line of sight to fewer than {MIN_LOS_SLAVES} "
            "slaves: " + ", ".join(f"{m} sees {visible}" for m in topo.masters())))
    else:
        results.append(RuleResult("a", STATUS_PASS, f"every master has line of sight to >= "
                                  f"{MIN_LOS_SLAVES} slaves (no obstacles given)"))

    # (b) radio environment cannot be judged from coordinates.
    results.append(RuleResult("b", STATUS_MANUAL,
                              "verify on site that anchors are clear of strong RF interference "
                              "sources (motors, WiFi access points, metal cabinets)"))

    # (c) anchors should sit at nearly the same height.
    heights = [a.height() for a in anchors]
    variation = max(heights) - min(heights) if heights else 0.0
    level = variation <= MAX_HEIGHT_VARIATION + 1e-9
    results.append(RuleResult("c", STATUS_PASS if level else STATUS_FAIL,
                              f"height variation {variation:.2f} m {'<=' if level else 'exceeds'}"
                              f" {MAX_HEIGHT_VARIATION:.1f} m"))

    # (d) wall clearance cannot be judged from coordinates.
    results.append(RuleResult("d", STATUS_MANUAL,
                              f"no wall geometry given; keep every anchor at least "
                              f"{MIN_WALL_CLEARANCE:.2f} m (preferably "
                              f"{PREFERRED_WALL_CLEARANCE:.1f} m) off walls"))

    # (e) anchors need spread: pairwise spacing and a big enough area.
    n = len(positions)
    min_spacing = min(
        (math.dist(positions[i], positions[j]) for i in range(n) for j in range(i + 1, n)),
        default=math.inf,
    )
    (x0, y0), (x1, y1) = area if area is not None else _anchor_box(positions)
    width, height = abs(x1 - x0), abs(y1 - y0)
    spacing_ok = min_spacing > MIN_ANCHOR_SPACING
    area_ok = width >= MIN_AREA_SIDE and height >= MIN_AREA_SIDE
    detail = (
        f"minimum anchor spacing {min_spacing:.2f} m (need > {MIN_ANCHOR_SPACING:.1f} m), "
        f"area {width:.2f} m x {height:.2f} m (need >= {MIN_AREA_SIDE:.1f} m each side)"
    )
    results.append(RuleResult("e", STATUS_PASS if spacing_ok and area_ok else STATUS_FAIL, detail))

    # (f) mounting and cabling cannot be judged from coordinates.
    results.append(RuleResult("f", STATUS_MANUAL,
                              "verify on site that anchors are rigidly mounted with stable "
                              "power and that the master cascade has wired or reliable backhaul"))
    return results


# ---------------------------------------------------------------------------
# Dilution of precision


def _hdop(px, py, anchors: Mapping[str, tuple[float, float]], reference: str):
    """HDoP at each point (px[n], py[n]), ``inf`` on an anchor or where the
    geometry is degenerate (everywhere, with fewer than three anchors), and
    the mask of points on an anchor.  G^T G is 2x2, so trace((G^T G)^-1) is
    (a + c) / det in closed form.  Points go ``ROW_BLOCK`` at a time, and
    a, b and c are summed one anchor at a time in anchor order, the sums of
    ``sum_over_anchors``, so no temporary holds every anchor's row."""
    others = sorted(a for a in anchors if a != reference)
    xy = np.array([anchors[a] for a in [reference, *others]], dtype=float).reshape(-1, 1, 2)
    hdop = np.empty(px.size)
    on_anchor = np.empty(px.size, dtype=bool)
    for block in row_blocks(px.size):
        _, ((rx,), (ry,)), (on,) = ranges(px[block], py[block], xy[0])
        a, b, c = (np.zeros(rx.size) for _ in range(3))
        for anchor in xy[1:]:
            _, ((gx,), (gy,)), (near,) = ranges(px[block], py[block], anchor)
            gx -= rx  # unit-vector differences against the reference
            gy -= ry
            a += gx * gx
            b += gx * gy
            c += gy * gy
            on |= near
        det = a * c - b * b
        trace = a + c
        on_anchor[block] = on
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
) -> HdopGrid:
    """HDoP sampled on a regular grid over ``area`` (inclusive edges).

    Points come x-major; those within 1e-12 m of an anchor, and every
    point when there are fewer than three anchors, read ``inf``.
    """
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be a positive finite number")
    (x0, y0), (x1, y1) = area
    xs = np.arange(x0, x1 + resolution / 2, resolution)
    ys = np.arange(y0, y1 + resolution / 2, resolution)
    px, py = np.repeat(xs, ys.size), np.tile(ys, xs.size)  # x-major
    return HdopGrid(px, py, _hdop(px, py, anchors, reference)[0])


def grid_to_csv(grid: HdopGrid) -> Iterator[str]:
    """hdop.csv as blocks of text, one row per grid point in grid order."""
    yield "x,y,hdop\n"
    for rows in row_blocks(len(grid)):
        yield "".join(f"{x!r},{y!r},{value!r}\n" for x, y, value in zip(
            grid.x[rows].tolist(), grid.y[rows].tolist(), grid.hdop[rows].tolist()))


def worst_hdop_in_hull(grid: HdopGrid, anchors: Mapping[str, tuple[float, float]]) -> float:
    """Largest finite grid HDoP strictly inside the anchors' convex hull.

    A point is inside when it lies strictly left of every counter-clockwise
    hull edge; points on an edge or a vertex are not.
    """
    hull = _convex_hull(list(anchors.values()))
    if len(hull) < 3:
        return math.inf
    inside = np.isfinite(grid.hdop)
    for p, q in zip(hull, hull[1:] + hull[:1]):
        inside &= _orientation(p, q, (grid.x, grid.y)) > 0
    return float(grid.hdop[inside].max()) if inside.any() else math.inf


def build_deployment_report(
    topo: NetworkTopology,
    area: tuple[tuple[float, float], tuple[float, float]] | None = None,
    resolution: float = 0.5,
) -> DeploymentReport:
    """Rules plus an HDoP map in one report.

    The HDoP's reference is the paper's time base (``select_time_base``)
    for a blink that every anchor hears.
    """
    from .timebase import NoTimeBaseError, select_time_base

    rules = tuple(check_rules(topo, area))
    positions = topo.positions()
    area = area if area is not None else _anchor_box(positions.values())
    try:
        reference = select_time_base(topo.ids(), topo)
    except NoTimeBaseError:
        reference = topo.primary_master()
    grid = hdop_grid(area, resolution, positions, reference)
    return DeploymentReport(rules, grid, worst_hdop_in_hull(grid, positions))
