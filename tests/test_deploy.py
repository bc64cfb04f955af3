"""Placement rules and horizontal dilution of precision."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwb_rtls.cli import grid_to_csv
from uwb_rtls.constants import ROW_BLOCK
from uwb_rtls.deploy import (
    MIN_LOS_SLAVES,
    _convex_hull,
    _orientation,
    STATUS_FAIL,
    STATUS_MANUAL,
    STATUS_PASS,
    HdopGrid,
    build_deployment_report,
    check_rules,
    hdop_at,
    hdop_grid,
    worst_hdop_in_hull,
)
from uwb_rtls.topology import AnchorConfig, NetworkTopology

from conftest import RECT_POSITIONS, build_rect_topology

UNIT_SQUARE = {
    "A": (0.0, 0.0),
    "B": (1.0, 0.0),
    "C": (1.0, 1.0),
    "D": (0.0, 1.0),
}


def _rows(grid: HdopGrid) -> list[tuple[float, float, float]]:
    """A grid's points as (x, y, hdop) rows, in grid order."""
    return list(zip(grid.x.tolist(), grid.y.tolist(), grid.hdop.tolist()))


def _grid(rows) -> HdopGrid:
    return HdopGrid(*np.array(rows, dtype=float).reshape(-1, 3).T)


def _topology(positions: dict[str, tuple[float, ...]]) -> NetworkTopology:
    ids = sorted(positions)
    master = ids[0]
    anchors = tuple(
        AnchorConfig(id=i, role="master" if i == master else "slave", position=positions[i])
        for i in ids
    )
    return NetworkTopology(
        anchors=anchors,
        follow={i: frozenset({master}) for i in ids if i != master},
        master_level={master: 1},
    )


# ---------------------------------------------------------------------------
# HDoP


def test_hdop_at_unit_square_center_matches_hand_calculation():
    # Unit vectors from the center to the corners differ from the reference
    # corner's by rows ((-r2, 0), (-r2, -r2), (0, -r2)) with r2 = sqrt(2),
    # so G^T G = ((4, 2), (2, 4)) and sqrt(trace(inv)) = sqrt(2/3).
    value = hdop_at((0.5, 0.5), UNIT_SQUARE, "A")
    assert value == pytest.approx(0.816496580927726, rel=1e-12)


def test_hdop_matches_pseudoinverse_oracle_on_random_geometries():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(4, 7))
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        anchors = {f"A{i}": (float(x), float(y)) for i, (x, y) in enumerate(pts)}
        point = (float(rng.uniform(2, 8)), float(rng.uniform(2, 8)))
        if any(math.dist(point, p) < 1e-6 for p in anchors.values()):
            continue
        got = hdop_at(point, anchors, "A0")

        p = np.asarray(point)
        units = {}
        for name, pos in anchors.items():
            d = p - np.asarray(pos)
            units[name] = d / np.linalg.norm(d)
        g = np.array([units[a] - units["A0"] for a in sorted(anchors) if a != "A0"])
        oracle = math.sqrt(np.trace(np.linalg.pinv(g.T @ g)))
        if not math.isfinite(got) or oracle > 1e6:
            continue
        assert got == pytest.approx(oracle, rel=1e-9)
        checked += 1
    assert checked >= 20


def test_hdop_collinear_geometry_is_infinite():
    anchors = {"A0": (0.0, 0.0), "A1": (1.0, 0.0), "A2": (2.0, 0.0), "A3": (3.0, 0.0)}
    assert hdop_at((5.0, 0.0), anchors, "A0") == math.inf


def test_hdop_on_an_anchor_raises():
    with pytest.raises(ValueError):
        hdop_at((1.0, 0.0), UNIT_SQUARE, "A")


def test_hdop_needs_at_least_three_anchors():
    with pytest.raises(ValueError):
        hdop_at((0.5, 0.5), {"A": (0.0, 0.0), "B": (1.0, 0.0)}, "A")


def test_hdop_is_invariant_under_rotation_and_translation():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)

    def move(p):
        return (c * p[0] - s * p[1] + 11.0, s * p[0] + c * p[1] - 4.0)

    for point in [(2.0, 1.5), (1.0, 3.5), (5.5, 0.5)]:
        before = hdop_at(point, RECT_POSITIONS, "MA1")
        moved = {k: move(v) for k, v in RECT_POSITIONS.items()}
        after = hdop_at(move(point), moved, "MA1")
        assert after == pytest.approx(before, rel=1e-9)


def test_hdop_grid_covers_the_area_x_major():
    rows = _rows(hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.5, RECT_POSITIONS, "MA1"))
    assert len(rows) == 13 * 9
    assert [r[:2] for r in rows[:3]] == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)]
    assert rows[-1][:2] == (6.0, 4.0)
    # Corner points sit on anchors and are flagged rather than crashing.
    assert rows[0][2] == math.inf
    center = next(r for r in rows if r[:2] == (3.0, 2.0))
    assert math.isfinite(center[2])


def test_hdop_grid_in_blocks_is_infinite_exactly_at_the_anchors():
    # 97 x 65 points: more than one block and not a whole number of them.
    rows = _rows(hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.0625, RECT_POSITIONS, "MA1"))
    assert len(rows) == 97 * 65
    assert len(rows) > ROW_BLOCK and len(rows) % ROW_BLOCK
    assert {(x, y) for x, y, v in rows if not math.isfinite(v)} == set(RECT_POSITIONS.values())
    # The last points of the first block and the first of the second agree
    # bit for bit with one-point evaluation.
    for x, y, value in rows[ROW_BLOCK - 3 : ROW_BLOCK + 3]:
        assert value == hdop_at((x, y), RECT_POSITIONS, "MA1")


def test_hdop_grid_along_collinear_anchors_is_infinite_everywhere():
    line = {"A0": (0.0, 0.0), "A1": (1.0, 0.0), "A2": (2.0, 0.0), "A3": (3.0, 0.0)}
    rows = _rows(hdop_grid(((-2.0, 0.0), (5.0, 0.0)), 0.25, line, "A0"))
    assert len(rows) == 29
    assert all(v == math.inf for _, _, v in rows)


@pytest.mark.parametrize("anchors", [{"A": (0.0, 0.0)}, {"A": (0.0, 0.0), "B": (6.0, 0.0)}])
def test_hdop_grid_with_too_few_anchors_is_infinite_everywhere(anchors):
    rows = _rows(hdop_grid(((0.0, 0.0), (6.0, 4.0)), 1.0, anchors, "A"))
    assert len(rows) == 7 * 5
    assert all(v == math.inf for _, _, v in rows)


@pytest.mark.parametrize("resolution", [0.0, -0.5, math.nan, math.inf])
def test_hdop_grid_rejects_a_bad_resolution(resolution):
    with pytest.raises(ValueError):
        hdop_grid(((0.0, 0.0), (6.0, 4.0)), resolution, RECT_POSITIONS, "MA1")


def test_grid_csv_has_header_and_reparses_exactly():
    # 97 x 65 points: the text goes in more than one block.
    rows = _rows(hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.0625, RECT_POSITIONS, "MA1"))
    text = "".join(grid_to_csv(_grid(rows)))
    lines = text.splitlines()
    assert lines[0] == "x,y,hdop"
    assert len(lines) == len(rows) + 1
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == list(rows)


def test_worst_hdop_inside_hull_beats_far_outside():
    rows = _rows(hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.5, RECT_POSITIONS, "MA1"))
    worst = worst_hdop_in_hull(_grid(rows), RECT_POSITIONS)
    assert math.isfinite(worst)
    assert worst < hdop_at((30.0, 20.0), RECT_POSITIONS, "MA1")


def _worst_in_hull_point_by_point(rows, anchors, inside_edge=lambda d: d > 0):
    """Reference: each point against each counter-clockwise hull edge."""
    hull = _convex_hull(list(anchors.values()))
    edges = list(zip(hull, hull[1:] + hull[:1]))
    inside = [
        v for x, y, v in rows
        if len(hull) >= 3 and math.isfinite(v)
        and all(inside_edge(_orientation(p, q, (x, y))) for p, q in edges)
    ]
    return max(inside) if inside else math.inf


@pytest.mark.parametrize("anchors", [
    RECT_POSITIONS,
    {"A": (0.0, 0.0), "B": (4.0, 0.0), "C": (0.0, 4.0), "D": (1.0, 1.0)},  # a diagonal edge
    {"A": (0.0, 0.0), "B": (3.0, 0.0), "C": (6.0, 0.0), "D": (0.0, 4.0)},  # B on an edge
])
def test_worst_hdop_in_hull_matches_the_point_by_point_loop(anchors):
    # Values grow away from the origin, so a point on a far edge or vertex,
    # or outside, would beat every point strictly inside if it were counted.
    rng = np.random.default_rng(8)
    rows = [
        (x, y, x * x + y * y + 0.01 * rng.random())
        for x in np.arange(-1.0, 7.25, 0.25).tolist()
        for y in np.arange(-1.0, 5.25, 0.25).tolist()
    ]
    rows[len(rows) // 2] = rows[len(rows) // 2][:2] + (math.inf,)
    worst = worst_hdop_in_hull(_grid(rows), anchors)
    assert worst == _worst_in_hull_point_by_point(rows, anchors)
    assert worst < _worst_in_hull_point_by_point(rows, anchors, lambda d: d >= 0)
    assert worst_hdop_in_hull(_grid([]), anchors) == math.inf


def test_worst_hdop_without_a_hull_is_infinite():
    rows = _grid([(0.5, 0.0, 1.0), (1.0, 1.0, 2.0)])
    assert worst_hdop_in_hull(rows, {"A": (0.0, 0.0), "B": (1.0, 0.0)}) == math.inf
    assert worst_hdop_in_hull(rows, {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (2.0, 0.0)}) == math.inf


# ---------------------------------------------------------------------------
# Placement rules


def _statuses(results):
    return {r.rule: r.status for r in results}


def test_clean_rectangle_passes_the_geometric_rules(rect_topology):
    results = check_rules(rect_topology, area=((0.0, 0.0), (6.0, 4.0)))
    assert [r.rule for r in results] == ["a", "b", "c", "d", "e", "f"]
    assert _statuses(results) == {
        "a": STATUS_PASS,
        "b": STATUS_MANUAL,
        "c": STATUS_PASS,
        "d": STATUS_MANUAL,
        "e": STATUS_PASS,
        "f": STATUS_MANUAL,
    }
    assert results[0].detail == "every master has line of sight to >= 3 slaves (no obstacles given)"
    assert results[3].detail == ("no wall geometry given; keep every anchor at least 0.15 m "
                                 "(preferably 0.5 m) off walls")


def test_too_few_slaves_fail_line_of_sight_for_every_master():
    # Two masters in cascade and two slaves: neither master can see
    # MIN_LOS_SLAVES slaves, and the detail names both.
    positions = {"MA1": (0.0, 0.0), "MB1": (6.0, 4.0), "SA1": (6.0, 0.0), "SA2": (0.0, 4.0)}
    topo = NetworkTopology(
        anchors=tuple(AnchorConfig(id=i, role="slave" if i.startswith("S") else "master",
                                   position=p) for i, p in positions.items()),
        follow={"MB1": frozenset({"MA1"}), "SA1": frozenset({"MA1"}),
                "SA2": frozenset({"MA1", "MB1"})},
        master_level={"MA1": 1, "MB1": 2},
    )
    rule_a = check_rules(topo)[0]
    assert rule_a.rule == "a" and rule_a.status == STATUS_FAIL
    assert rule_a.detail == (f"masters with line of sight to fewer than {MIN_LOS_SLAVES} "
                             "slaves: MA1 sees 2, MB1 sees 2")


def test_uneven_mounting_heights_fail():
    positions = dict(RECT_POSITIONS)
    positions["SA3"] = (6.0, 4.0, 2.0)
    results = check_rules(_topology(positions))
    assert _statuses(results)["c"] == STATUS_FAIL


def test_cramped_spacing_or_area_fails():
    squeezed = dict(RECT_POSITIONS)
    squeezed["SA4"] = (5.0, 4.0)  # 1 m from SA3
    assert _statuses(check_rules(_topology(squeezed)))["e"] == STATUS_FAIL

    results = check_rules(build_rect_topology(), area=((0.0, 0.0), (8.0, 2.0)))
    assert _statuses(results)["e"] == STATUS_FAIL


# ---------------------------------------------------------------------------
# Combined report


def test_deployment_report_bundles_rules_and_grid(rect_topology):
    report = build_deployment_report(rect_topology, resolution=0.5)
    assert len(report.rule_results) == 6
    assert len(report.grid) == 13 * 9
    assert math.isfinite(report.worst_hdop_in_hull)
    payload = report.to_dict()
    assert {r["rule"] for r in payload["rules"]} == set("abcdef")
    assert payload["worst_hdop_in_hull"] == report.worst_hdop_in_hull
