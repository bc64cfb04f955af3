"""Placement rules and horizontal dilution of precision."""

from __future__ import annotations

import math

import numpy as np
import pytest

from uwb_rtls.deploy import (
    MIN_LOS_SLAVES,
    STATUS_FAIL,
    STATUS_MANUAL,
    STATUS_PASS,
    build_deployment_report,
    check_rules,
    grid_to_csv,
    hdop_at,
    hdop_grid,
    worst_hdop_in_hull,
)
from uwb_rtls.solver import GEOMETRY_BLOCK
from uwb_rtls.topology import AnchorConfig, NetworkTopology

from conftest import RECT_POSITIONS, build_rect_topology

UNIT_SQUARE = {
    "A": (0.0, 0.0),
    "B": (1.0, 0.0),
    "C": (1.0, 1.0),
    "D": (0.0, 1.0),
}


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
    rows = hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.5, RECT_POSITIONS, "MA1")
    assert len(rows) == 13 * 9
    assert [r[:2] for r in rows[:3]] == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)]
    assert rows[-1][:2] == (6.0, 4.0)
    # Corner points sit on anchors and are flagged rather than crashing.
    assert rows[0][2] == math.inf
    center = next(r for r in rows if r[:2] == (3.0, 2.0))
    assert math.isfinite(center[2])


def test_hdop_grid_in_blocks_is_infinite_exactly_at_the_anchors():
    # 97 x 65 points: more than one block and not a whole number of them.
    rows = hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.0625, RECT_POSITIONS, "MA1")
    assert len(rows) == 97 * 65
    assert len(rows) > GEOMETRY_BLOCK and len(rows) % GEOMETRY_BLOCK
    assert {(x, y) for x, y, v in rows if not math.isfinite(v)} == set(RECT_POSITIONS.values())
    # The last points of the first block and the first of the second agree
    # bit for bit with one-point evaluation.
    for x, y, value in rows[GEOMETRY_BLOCK - 3 : GEOMETRY_BLOCK + 3]:
        assert value == hdop_at((x, y), RECT_POSITIONS, "MA1")


def test_hdop_grid_along_collinear_anchors_is_infinite_everywhere():
    line = {"A0": (0.0, 0.0), "A1": (1.0, 0.0), "A2": (2.0, 0.0), "A3": (3.0, 0.0)}
    rows = hdop_grid(((-2.0, 0.0), (5.0, 0.0)), 0.25, line, "A0")
    assert len(rows) == 29
    assert all(v == math.inf for _, _, v in rows)


@pytest.mark.parametrize("anchors", [{"A": (0.0, 0.0)}, {"A": (0.0, 0.0), "B": (6.0, 0.0)}])
def test_hdop_grid_with_too_few_anchors_is_infinite_everywhere(anchors):
    rows = hdop_grid(((0.0, 0.0), (6.0, 4.0)), 1.0, anchors, "A")
    assert len(rows) == 7 * 5
    assert all(v == math.inf for _, _, v in rows)


@pytest.mark.parametrize("resolution", [0.0, -0.5, math.nan, math.inf])
def test_hdop_grid_rejects_a_bad_resolution(resolution):
    with pytest.raises(ValueError):
        hdop_grid(((0.0, 0.0), (6.0, 4.0)), resolution, RECT_POSITIONS, "MA1")


def test_grid_csv_has_header_and_reparses_exactly():
    rows = hdop_grid(((0.0, 0.0), (6.0, 4.0)), 1.0, RECT_POSITIONS, "MA1")
    text = grid_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "x,y,hdop"
    assert len(lines) == len(rows) + 1
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == list(rows)


def test_worst_hdop_inside_hull_beats_far_outside():
    rows = hdop_grid(((0.0, 0.0), (6.0, 4.0)), 0.5, RECT_POSITIONS, "MA1")
    worst = worst_hdop_in_hull(rows, RECT_POSITIONS)
    assert math.isfinite(worst)
    assert worst < hdop_at((30.0, 20.0), RECT_POSITIONS, "MA1")


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


def test_obstacle_blocking_the_master_fails_line_of_sight(rect_topology):
    # Two barriers box MA1 into its corner, cutting sight to every slave.
    results = check_rules(
        rect_topology,
        obstacles=[((0.5, -1.0), (0.5, 5.0)), ((-1.0, 0.5), (1.0, 0.5))],
    )
    by_rule = {r.rule: r for r in results}
    assert by_rule["a"].status == STATUS_FAIL
    assert "MA1 sees 0" in by_rule["a"].detail
    assert str(MIN_LOS_SLAVES) in by_rule["a"].detail


def test_uneven_mounting_heights_fail():
    positions = dict(RECT_POSITIONS)
    positions["SA3"] = (6.0, 4.0, 2.0)
    results = check_rules(_topology(positions))
    assert _statuses(results)["c"] == STATUS_FAIL


def test_wall_clearance_thresholds(rect_topology):
    hugging = [((-0.05, -10.0), (-0.05, 10.0))]
    assert _statuses(check_rules(rect_topology, walls=hugging))["d"] == STATUS_FAIL

    close_but_legal = [((-0.3, -10.0), (-0.3, 10.0))]
    results = check_rules(rect_topology, walls=close_but_legal)
    by_rule = {r.rule: r for r in results}
    assert by_rule["d"].status == STATUS_PASS
    assert "preferred" in by_rule["d"].detail


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
    assert len(report.hdop_rows) == 13 * 9
    assert math.isfinite(report.worst_hdop_in_hull)
    payload = report.to_dict()
    assert {r["rule"] for r in payload["rules"]} == set("abcdef")
    assert payload["worst_hdop_in_hull"] == report.worst_hdop_in_hull
