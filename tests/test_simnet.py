"""Discrete-event radio simulation: schedules, physics, determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st


from uwb_rtls.clock import TICK_SECONDS, ClockModel
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.protocol import (
    KIND_BLINK_RX,
    KIND_CCP_RX,
    KIND_CCP_TX,
    REPORT_KINDS,
    ReportColumns,
    encode_reports,
)
from uwb_rtls.simnet import (
    CollisionScheduleError,
    ConstantVelocityTrajectory,
    Scenario,
    ScenarioError,
    StaticTrajectory,
    TagSpec,
    TruthClock,
    WaypointTrajectory,
    decode_truths,
    encode_clock,
    encode_truth,
    run_scenario,
    schedule_ccp_cascade,
)
from uwb_rtls.topology import AnchorConfig, NetworkTopology

from conftest import (
    BAD_FIELDS,
    BLINK,
    CLOCK,
    RECT_POSITIONS,
    TRUTH_FIELDS,
    assert_reads_among_as_alone,
    build_ideal_rect_topology,
    build_rect_topology,
    report_rows,
    same_columns,
    truth_columns,
    truth_rows,
    with_field,
)


def _scenario(duration=10.0, tag_xy=(2.0, 1.5), topo=None, **kw) -> Scenario:
    return Scenario(
        topology=topo if topo is not None else build_rect_topology(),
        tags=(TagSpec("T1", StaticTrajectory(tag_xy)),),
        duration=duration,
        **kw,
    )


# ---------------------------------------------------------------------------
# Trajectories


def _at(trajectory, t: float) -> tuple[float, float]:
    x, y = trajectory.positions(np.array([t]))
    return x[0].item(), y[0].item()


def test_constant_velocity_moves_linearly():
    tr = ConstantVelocityTrajectory((1.0, 2.0), (0.5, -1.0))
    assert _at(tr, 0.0) == (1.0, 2.0)
    assert _at(tr, 2.0) == (2.0, 0.0)


def test_waypoints_interpolate_and_clamp():
    tr = WaypointTrajectory(((0.0, (0.0, 0.0)), (2.0, (4.0, 0.0)), (3.0, (4.0, 2.0))))
    assert _at(tr, -1.0) == (0.0, 0.0)
    assert _at(tr, 1.0) == (2.0, 0.0)
    assert _at(tr, 2.5) == (4.0, 1.0)
    assert _at(tr, 9.0) == (4.0, 2.0)


def _waypoint_rule(waypoints, t: float) -> tuple[float, float]:
    """A tag's position at ``t`` one time at a time: clamped to the first
    and last waypoints, linear between the two around ``t``."""
    times = [w for w, _ in waypoints]
    if t <= times[0]:
        return waypoints[0][1]
    if t >= times[-1]:
        return waypoints[-1][1]
    (t0, p0), (t1, p1) = waypoints[bisect_right(times, t) - 1:][:2]
    w = (t - t0) / (t1 - t0)
    return (p0[0] + w * (p1[0] - p0[0]), p0[1] + w * (p1[1] - p0[1]))


def test_waypoint_positions_are_the_rule_one_time_at_a_time_bit_for_bit():
    # Before the first waypoint, exactly at and one ulp around each
    # waypoint time, between them and after the last.
    rng = random.Random(7)
    waypoints = ((0.3, (1.0, 2.0)), (1.1, (4.5, -0.7)), (2.0, (4.5, 3.3)), (3.7, (-2.2, 0.1)))
    times = [-1.0, 0.0, 9.0, *(rng.uniform(-0.5, 4.5) for _ in range(200)),
             *(k * 0.1 for k in range(50))]
    for t, _ in waypoints:
        times += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    x, y = WaypointTrajectory(waypoints).positions(np.array(times))
    got = [tuple(map(float.hex, p)) for p in zip(x.tolist(), y.tolist())]
    assert got == [tuple(map(float.hex, _waypoint_rule(waypoints, t))) for t in times]


def test_waypoints_must_increase_in_time():
    with pytest.raises(ScenarioError):
        WaypointTrajectory(((0.0, (0.0, 0.0)), (0.0, (1.0, 0.0))))
    with pytest.raises(ScenarioError):
        WaypointTrajectory(((0.0, (0.0, 0.0)),))


# ---------------------------------------------------------------------------
# Scenario validation


def test_duplicate_tag_ids_rejected():
    with pytest.raises(ScenarioError):
        Scenario(
            topology=build_rect_topology(),
            tags=(TagSpec("T1", StaticTrajectory((1.0, 1.0))),
                  TagSpec("T1", StaticTrajectory((2.0, 2.0)))),
            duration=1.0,
        )


def test_tag_id_must_not_shadow_an_anchor():
    with pytest.raises(ScenarioError):
        _scenario(tag_xy=(1.0, 1.0)).__class__(
            topology=build_rect_topology(),
            tags=(TagSpec("SA2", StaticTrajectory((1.0, 1.0))),),
            duration=1.0,
        )


def test_lag_schedule_must_fit_inside_a_round():
    topo = NetworkTopology(
        anchors=(
            AnchorConfig(id="MA1", role="master", position=(0.0, 0.0)),
            AnchorConfig(id="MA2", role="master", position=(30.0, 0.0)),
            AnchorConfig(id="SA1", role="slave", position=(3.0, 3.0)),
            AnchorConfig(id="SA5", role="slave", position=(27.0, 3.0)),
        ),
        follow={"MA2": frozenset({"MA1"}), "SA1": frozenset({"MA1"}),
                "SA5": frozenset({"MA2"})},
        master_level={"MA1": 1, "MA2": 2},
        lag_slots={"MA2": 14},
    )
    with pytest.raises(ScenarioError):
        _scenario(topo=topo, lag=0.01)  # 0.15 of lag offset >= 0.15 round


def test_follower_must_hear_its_master():
    with pytest.raises(ScenarioError) as e:
        _scenario(ccp_links={"MA1": frozenset({"SA2", "SA3"})})
    assert "SA4" in str(e.value)


# ---------------------------------------------------------------------------
# Event generation


def test_ten_second_run_event_counts(ideal_rect_topology):
    # Blinks at 0.0, 0.1, ..., 9.9 (100) heard by 4 anchors; CCP rounds at
    # 0.0, 0.15, ..., 9.9 (67): 1 tx + 3 rx each.
    sim = run_scenario(_scenario(topo=ideal_rect_topology))
    kinds = dict(zip(REPORT_KINDS, np.bincount(sim.reports.kind, minlength=3).tolist()))
    assert kinds[KIND_BLINK_RX] == 400
    assert kinds[KIND_CCP_TX] == 67
    assert kinds[KIND_CCP_RX] == 201
    assert len(sim.truth_blinks) == 100
    assert len(sim.truth_clocks) == 4


def test_zero_noise_arrival_spacing_is_time_of_flight(ideal_rect_topology):
    sim = run_scenario(_scenario(duration=0.5, topo=ideal_rect_topology))
    tag = (2.0, 1.5)
    blink0 = {anchor: ticks for anchor, kind, _, seq, ticks in report_rows(sim.reports)
              if kind == KIND_BLINK_RX and seq == 0}
    assert set(blink0) == set(RECT_POSITIONS)
    for a, b in [("MA1", "SA2"), ("SA3", "SA4"), ("MA1", "SA3")]:
        got = (blink0[a] - blink0[b]) * TICK_SECONDS
        want = (math.dist(tag, RECT_POSITIONS[a]) - math.dist(tag, RECT_POSITIONS[b])) / SPEED_OF_LIGHT
        assert got == pytest.approx(want, abs=1e-13)


def test_ccp_receptions_lag_transmissions_by_propagation(ideal_rect_topology):
    sim = run_scenario(_scenario(duration=0.5, topo=ideal_rect_topology))
    rows = report_rows(sim.reports)
    tx = {seq: ticks for _, kind, _, seq, ticks in rows if kind == KIND_CCP_TX}
    rx = {(anchor, seq): ticks for anchor, kind, _, seq, ticks in rows if kind == KIND_CCP_RX}
    for (anchor, seq), ticks in rx.items():
        flight = (ticks - tx[seq]) * TICK_SECONDS
        assert flight == pytest.approx(
            math.dist(RECT_POSITIONS[anchor], RECT_POSITIONS["MA1"]) / SPEED_OF_LIGHT,
            abs=1e-13,
        )


def test_reception_radius_prunes_far_anchors(ideal_rect_topology):
    # 7.5 m keeps every anchor-to-anchor CCP link (longest is 7.21 m) but a
    # tag just outside the MA1 corner sits 8.06 m from SA3 at (6, 4).
    sim = run_scenario(_scenario(duration=0.5, tag_xy=(-1.0, 0.0),
                                 topo=ideal_rect_topology, reception_radius=7.5))
    hearers = {anchor for anchor, kind, *_ in report_rows(sim.reports) if kind == KIND_BLINK_RX}
    assert "SA3" not in hearers
    assert {"MA1", "SA2", "SA4"} <= hearers


def test_blink_links_override_radius(ideal_rect_topology):
    sim = run_scenario(_scenario(duration=0.5, topo=ideal_rect_topology,
                                 blink_links={"T1": frozenset({"MA1", "SA2"})}))
    hearers = {anchor for anchor, kind, *_ in report_rows(sim.reports) if kind == KIND_BLINK_RX}
    assert hearers == {"MA1", "SA2"}


@pytest.mark.parametrize("radius, hearers", [
    (5.0, {"MA1", "SA2", "SA3", "SA4"}),
    (math.nextafter(5.0, 0.0), {"MA1", "SA2"}),
])
def test_an_anchor_exactly_at_the_reception_radius_hears_the_blink(ideal_rect_topology, radius,
                                                                   hearers):
    # From (3, 0), SA3 at (6, 4) and SA4 at (0, 4) are 5 m away to the bit;
    # the CCP links keep every follower in touch with MA1.
    sim = run_scenario(_scenario(duration=0.5, tag_xy=(3.0, 0.0), topo=ideal_rect_topology,
                                 reception_radius=radius,
                                 ccp_links={"MA1": frozenset({"SA2", "SA3", "SA4"})}))
    assert {anchor for anchor, kind, *_ in report_rows(sim.reports)
            if kind == KIND_BLINK_RX} == hearers


def test_links_give_the_reports_built_by_hand(ideal_rect_topology):
    # Blinks at 0.0 and 0.1 s, one CCP round at 0.0 s.  T2 links to no
    # anchor; SA4 hears MA1's CCPs but no blink.
    scn = Scenario(
        topology=ideal_rect_topology,
        tags=(TagSpec("T1", StaticTrajectory((2.0, 1.5))),
              TagSpec("T2", StaticTrajectory((4.0, 1.0)))),
        duration=0.15,
        blink_links={"T1": frozenset({"MA1", "SA2", "SA3"})},
        ccp_links={"MA1": frozenset({"SA2", "SA3", "SA4", "MA1"})},
        reception_radius=1.0,
    )
    rows = {(anchor, kind, src, seq) for anchor, kind, src, seq, _ in
            report_rows(run_scenario(scn).reports)}
    assert rows == {
        *((a, KIND_BLINK_RX, "T1", seq) for a in ("MA1", "SA2", "SA3") for seq in (0, 1)),
        ("MA1", KIND_CCP_TX, "MA1", 0),
        *((a, KIND_CCP_RX, "MA1", 0) for a in ("SA2", "SA3", "SA4")),
    }


def test_moving_tag_truth_follows_the_trajectory():
    scn = Scenario(
        topology=build_ideal_rect_topology(),
        tags=(TagSpec("T1", ConstantVelocityTrajectory((1.0, 1.0), (1.0, 0.0))),),
        duration=2.0,
    )
    truth = run_scenario(scn).truth_blinks
    assert truth.ids == ("T1",) and truth.seq.tolist() == list(range(20))
    assert truth.x[0] == pytest.approx(1.0)
    assert truth.x[15] == pytest.approx(2.5)
    assert np.allclose(truth.y, 1.0)


# ---------------------------------------------------------------------------
# Multi-master cascade


def _cascade_topology() -> NetworkTopology:
    anchors = (
        AnchorConfig(id="MA1", role="master", position=(0.0, 0.0)),
        AnchorConfig(id="MA2", role="master", position=(30.0, 0.0)),
        AnchorConfig(id="MA3", role="master", position=(0.0, 30.0)),
        AnchorConfig(id="MA4", role="master", position=(30.0, 30.0)),
        AnchorConfig(id="SA1", role="slave", position=(5.0, 5.0)),
    )
    return NetworkTopology(
        anchors=anchors,
        follow={"MA2": frozenset({"MA1"}), "MA3": frozenset({"MA1"}),
                "MA4": frozenset({"MA1"}), "SA1": frozenset({"MA1"})},
        master_level={"MA1": 1, "MA2": 2, "MA3": 2, "MA4": 2},
        lag_slots={"MA2": 1, "MA3": 2, "MA4": 3},
    )


def test_cascade_slots_space_transmissions_by_lag():
    topo = _cascade_topology()
    sched = dict(schedule_ccp_cascade(topo, round_start=0.0, lag=0.01))
    assert sched["MA1"] == 0.0
    for m, slot in (("MA2", 1), ("MA3", 2), ("MA4", 3)):
        prop = math.dist((0.0, 0.0), dict_pos(m)) / SPEED_OF_LIGHT
        assert sched[m] == pytest.approx(slot * 0.01 + prop, abs=1e-12)


def dict_pos(master: str) -> tuple[float, float]:
    return {"MA2": (30.0, 0.0), "MA3": (0.0, 30.0), "MA4": (30.0, 30.0)}[master]


def test_level3_master_transmits_after_its_upper():
    anchors = (
        AnchorConfig(id="MA1", role="master", position=(0.0, 0.0)),
        AnchorConfig(id="MA2", role="master", position=(30.0, 0.0)),
        AnchorConfig(id="MA5", role="master", position=(60.0, 0.0)),
        AnchorConfig(id="SA1", role="slave", position=(5.0, 5.0)),
    )
    topo = NetworkTopology(
        anchors=anchors,
        follow={"MA2": frozenset({"MA1"}), "MA5": frozenset({"MA2"}),
                "SA1": frozenset({"MA1"})},
        master_level={"MA1": 1, "MA2": 2, "MA5": 3},
        lag_slots={"MA2": 1, "MA5": 1},
    )
    sched = dict(schedule_ccp_cascade(topo, round_start=0.0, lag=0.01))
    prop = 30.0 / SPEED_OF_LIGHT
    assert sched["MA2"] == pytest.approx(0.01 + prop)
    # MA5 keys off MA2's transmission, not the round start.
    assert sched["MA5"] == pytest.approx(sched["MA2"] + 0.01 + prop)


def test_same_instant_transmissions_collide():
    # MA3 (slot 2 under MA1) and MA5 (slot 1 under MA2, which sits at slot 1)
    # land within half a lag of each other.
    anchors = (
        AnchorConfig(id="MA1", role="master", position=(0.0, 0.0)),
        AnchorConfig(id="MA2", role="master", position=(0.3, 0.0)),
        AnchorConfig(id="MA3", role="master", position=(0.0, 0.3)),
        AnchorConfig(id="MA5", role="master", position=(0.6, 0.0)),
        AnchorConfig(id="SA1", role="slave", position=(1.0, 1.0)),
    )
    topo = NetworkTopology(
        anchors=anchors,
        follow={"MA2": frozenset({"MA1"}), "MA3": frozenset({"MA1"}),
                "MA5": frozenset({"MA2"}), "SA1": frozenset({"MA1"})},
        master_level={"MA1": 1, "MA2": 2, "MA3": 2, "MA5": 3},
        lag_slots={"MA2": 1, "MA3": 2, "MA5": 1},
    )
    with pytest.raises(CollisionScheduleError):
        schedule_ccp_cascade(topo, round_start=0.0, lag=0.01)


# ---------------------------------------------------------------------------
# Determinism and ground truth


def test_same_seed_gives_identical_bytes():
    a = run_scenario(_scenario(duration=3.0, seed=21))
    b = run_scenario(_scenario(duration=3.0, seed=21))
    assert encode_reports(a.reports) == encode_reports(b.reports)
    assert same_columns(a.truth_blinks, b.truth_blinks)
    assert a.truth_clocks == b.truth_clocks


def test_different_seed_changes_jittered_timestamps():
    noisy = build_rect_topology(jitter_std=1e-10)
    a = run_scenario(_scenario(duration=1.0, topo=noisy, seed=1))
    b = run_scenario(_scenario(duration=1.0, topo=noisy, seed=2))
    assert a.reports.ticks.tolist() != b.reports.ticks.tolist()


def test_reports_are_sorted_and_within_range():
    sim = run_scenario(_scenario(duration=2.0))
    reports = sim.reports
    assert isinstance(reports, ReportColumns) and list(reports.ids) == sorted(set(reports.ids))
    keys = np.stack((reports.anchor, reports.kind, reports.src, reports.seq))
    assert np.unique(keys, axis=1).shape == keys.shape
    assert np.all((reports.ticks >= 0) & (reports.ticks < 2**40))


def test_reports_come_in_true_time_order_then_by_anchor_kind_source_and_seq(
    ideal_rect_topology
):
    # Ideal clocks read true time, and a tag in the middle of the room
    # reaches all four anchors at once: ties fall to the ids, as strings.
    sim = run_scenario(_scenario(duration=2.0, tag_xy=(3.0, 2.0), topo=ideal_rect_topology))
    rows = [(ticks, *key) for *key, ticks in report_rows(sim.reports)]
    assert rows == sorted(rows)
    assert len({row[0] for row in rows}) < len(rows)


def test_truth_blinks_are_time_major_in_tag_order():
    scn = Scenario(topology=build_ideal_rect_topology(), duration=0.25,
                   tags=(TagSpec("T9", StaticTrajectory((1.0, 1.0))),
                         TagSpec("T1", StaticTrajectory((2.0, 3.0)))))
    assert truth_rows(run_scenario(scn).truth_blinks) == [
        (tag, seq, seq * 0.1, *xy) for seq in range(3)
        for tag, xy in (("T9", (1.0, 1.0)), ("T1", (2.0, 3.0)))]


def test_truth_records_round_trip():
    truth = truth_columns([("T1", 12, 1.2, 3.25, -0.5), ("T0", 0, 0.0, -0.0, 5e-324)])
    assert same_columns(truth_columns(zip(*decode_truths(encode_truth(truth).splitlines())[:5])),
                        truth)
    clock = TruthClock(anchor_id="SA2", offset=-0.0034, skew=-1.2e-5,
                       drift_rate=0.0, jitter_std=1e-10)
    assert decode_truths([encode_clock(clock)])[5] == [clock]


def test_a_non_finite_truth_blink_is_not_written():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            encode_truth(truth_columns([("T1", 0, 0.0, 1.0, bad)]))


def test_truth_clock_records_match_the_scenario():
    sim = run_scenario(_scenario(duration=0.5))
    clocks = {c.anchor_id: c for c in sim.truth_clocks}
    assert clocks["SA3"].offset == 0.0075
    assert clocks["SA3"].skew == 2.1e-5


# ---------------------------------------------------------------------------
# Truth lines against json itself

BLINK_FIELDS = ("tag_id", "seq", "time", "x", "y")
CLOCK_FIELDS = ("anchor_id", "offset", "skew", "drift_rate", "jitter_std")


def _json_truth_line(kind: str, values) -> str:
    fields = BLINK_FIELDS if kind == "blink" else CLOCK_FIELDS
    return json.dumps({"kind": kind, **dict(zip(fields, values))}, separators=(",", ":"))


def _decoded_lines(line: str) -> list[str]:
    """The lines ``encode_truth`` and ``encode_clock`` write for what
    ``decode_truths`` reads from ``line``."""
    *blinks, clocks = decode_truths([line])
    return [*encode_truth(truth_columns(zip(*blinks))).splitlines(),
            *(encode_clock(c).rstrip("\n") for c in clocks)]


def _decodes_like_json(line: str) -> None:
    """``decode_truths`` either raises ValueError or reads a record whose
    line json reads back as the input line's object, its numbers as floats."""
    try:
        (decoded,) = _decoded_lines(line)
    except ValueError:
        return
    want = json.loads(line)
    if want["kind"] == "blink":
        want.update({name: float(want[name]) for name in ("time", "x", "y")})
    assert json.loads(decoded) == want


def test_hall_truth_lines_are_json_dumps_and_round_trip(hall_run):
    lines = encode_truth(hall_run.truth_blinks).splitlines()
    rows = truth_rows(hall_run.truth_blinks)
    assert lines == [_json_truth_line("blink", row) for row in rows]
    *blinks, clocks = decode_truths(lines)
    assert list(zip(*blinks)) == rows and clocks == []
    for clock in hall_run.truth_clocks:
        line = encode_clock(clock)
        assert line == _json_truth_line("clock", dataclasses.astuple(clock)) + "\n"
        assert decode_truths([line])[5] == [clock]


@pytest.mark.parametrize("kind, values", [
    ("blink", ("T\\1", 0, 0.0, 5e-324, -0.0)),
    ("blink", ("T/1", 2**32 - 1, 1e-05, -3.0, 2.0)),
    ("blink", ("Tü1", 7, 0.30000000000000004, 1e300, -1e-300)),
    ("clock", ("SAü", -0.0034, 0, -1e-9, 1e-10)),
])
def test_edge_case_truth_lines_are_json_dumps_and_round_trip(kind, values):
    line = _json_truth_line(kind, values)
    if kind == "blink":
        assert encode_truth(truth_columns([values])) == line + "\n"
        assert repr(list(zip(*decode_truths([line])[:5]))) == repr([values])
    else:
        assert encode_clock(TruthClock(*values)) == line + "\n"
        assert repr(decode_truths([line])[5]) == repr([TruthClock(*values)])


NEAR_CANONICAL_TRUTH = [
    BLINK.replace('"seq":3', '"seq":03'),
    BLINK.replace('"seq":3', '"seq":-0'),
    BLINK.replace('"x":2.0', '"x":-0'),
    BLINK.replace('"x":2.0', '"x":2'),
    BLINK.replace('"x":2.0', '"x":02.0'),
    BLINK.replace('"x":2.0', '"x":2.'),
    BLINK.replace('"x":2.0', '"x":Infinity'),
    BLINK.replace('"x":2.0', '"x":1' + "0" * 25),
    BLINK.replace('"T1"', '"T\\u00fc1"'),
    BLINK.replace('"T1"', '"T\x011"'),
    BLINK.replace('"blink"', '"clock"'),
    BLINK.replace('"blink"', '"fix"'),
    BLINK.replace(',"y":-1.5', ""),
    BLINK.replace('"kind":"blink",', "") + "",
    '{"tag_id":"T1","kind":"blink","seq":3,"time":0.3,"x":2.0,"y":-1.5}',
    BLINK.replace(":", ": "),
    BLINK + "x",
    BLINK[:-1],
    "[" + BLINK + "]",
    CLOCK,
    CLOCK.replace("-0.0034", "-0.0034e-3"),
    CLOCK.replace('"SA2"', "2"),
    CLOCK + "}",
    '{"kind":["blink"],"tag_id":"T1"}',
    '{"kind":{"blink":1}}',
]


@pytest.mark.parametrize("line", NEAR_CANONICAL_TRUTH)
def test_near_canonical_truth_lines_decode_like_json(line):
    _decodes_like_json(line)


truth_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
truth_ids = st.one_of(st.text(max_size=6), truth_values)
truth_seqs = st.one_of(st.integers(min_value=-3, max_value=2**32 + 3), truth_values)
truth_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6), truth_values
)


@given(
    kind=st.one_of(st.sampled_from(["blink", "clock", "other"]), truth_values,
                   st.lists(st.just("blink"), max_size=1)),
    record_id=truth_ids,
    seq=truth_seqs,
    numbers=st.lists(truth_numbers, min_size=4, max_size=4),
    ensure_ascii=st.booleans(),
)
def test_any_json_truth_line_decodes_like_json(
    kind, record_id, seq, numbers, ensure_ascii
):
    if kind == "clock":
        fields = {"anchor_id": record_id, **dict(zip(["offset", "skew", "drift_rate",
                                                      "jitter_std"], numbers))}
    else:
        fields = {"tag_id": record_id, "seq": seq, **dict(zip(["time", "x", "y"], numbers))}
    line = json.dumps({"kind": kind, **fields}, separators=(",", ":"), ensure_ascii=ensure_ascii)
    _decodes_like_json(line)


# Numbers at the edges of the float and seq ranges.
EDGE_TRUTH = [
    BLINK.replace('"x":2.0', '"x":1.7976931348623157e+308'),
    BLINK.replace('"x":2.0', '"x":-9.99e+307'),
    BLINK.replace('"x":2.0', '"x":5e-324'),
    BLINK.replace('"x":2.0', '"x":12345678901234567.0'),
    BLINK.replace('"seq":3', f'"seq":{2**32 - 1}'),
    BLINK.replace('"seq":3', '"seq":999999999'),
]


@pytest.mark.parametrize("line", [
    BLINK, CLOCK, *EDGE_TRUTH, *NEAR_CANONICAL_TRUTH,
    *(with_field(line, field, value)
      for check, value in BAD_FIELDS for line, field in TRUTH_FIELDS[check]),
])
def test_a_truth_line_reads_among_simulated_lines_as_alone(simulated_lines, line):
    assert_reads_among_as_alone(simulated_lines, "truth.jsonl", line)


def test_a_truth_block_decodes_to_the_simulated_records(hall_run):
    lines = [*encode_truth(hall_run.truth_blinks).splitlines(),
             *(encode_clock(clock).rstrip("\n") for clock in hall_run.truth_clocks)]
    *blinks, clocks = decode_truths(lines)
    assert same_columns(truth_columns(zip(*blinks)), hall_run.truth_blinks)
    assert clocks == list(hall_run.truth_clocks)


@given(kind=st.sampled_from(["blink", "clock"]), record_id=truth_ids, seq=truth_seqs,
       numbers=st.lists(truth_numbers, min_size=4, max_size=4))
def test_any_truth_line_reads_among_simulated_lines_as_alone(simulated_lines, kind, record_id,
                                                             seq, numbers):
    values = (record_id, seq, *numbers[:3]) if kind == "blink" else (record_id, *numbers)
    assert_reads_among_as_alone(simulated_lines, "truth.jsonl", _json_truth_line(kind, values))
