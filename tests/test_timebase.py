"""Time-base selection, the paper's rule; which blinks the engine fixes;
and the arrival rows a blink holds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from uwb_rtls import engine
from uwb_rtls.clock import ClockModel
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.simnet import Scenario, StaticTrajectory, TagSpec, run_scenario
from uwb_rtls.timebase import MIN_RECEIVERS, NoTimeBaseError, select_time_base
from uwb_rtls.topology import AnchorConfig, NetworkTopology
from uwb_rtls.wcs import ArrivalTable, arrival_tdoa

from conftest import arrival_table, blink_rows, build_rect_topology, fixes_of, same_columns


def _anchor(anchor_id: str, role: str, pos) -> AnchorConfig:
    return AnchorConfig(id=anchor_id, role=role, position=pos)


# Arbitrary but fixed (offset, skew) per anchor of the two cells.
TWO_CELL_CLOCKS = {
    "MA1": (0.0012, 8e-6), "MA2": (-0.0021, -1.5e-5), "SA1": (-0.0034, -1.2e-5),
    "SA2": (0.0075, 2.1e-5), "SA3": (-0.0006, -3.3e-5), "SA5": (0.0041, 1.7e-5),
    "SA6": (-0.0052, 2.6e-5), "SA7": (0.0023, -9e-6),
}


def _two_cell_topology() -> NetworkTopology:
    """MA1's cell and MA2's cell, with SA2 hearing both masters' CCPs."""
    anchors = (
        _anchor("MA1", "master", (0.0, 0.0)),
        _anchor("MA2", "master", (20.0, 0.0)),
        _anchor("SA1", "slave", (2.0, 4.0)),
        _anchor("SA2", "slave", (10.0, 0.0)),
        _anchor("SA3", "slave", (6.0, 6.0)),
        _anchor("SA5", "slave", (18.0, 4.0)),
        _anchor("SA6", "slave", (24.0, 4.0)),
        _anchor("SA7", "slave", (24.0, -4.0)),
    )
    return NetworkTopology(
        anchors=anchors,
        follow={
            "MA2": frozenset({"MA1"}),
            "SA1": frozenset({"MA1"}),
            "SA2": frozenset({"MA1", "MA2"}),
            "SA3": frozenset({"MA1"}),
            "SA5": frozenset({"MA2"}),
            "SA6": frozenset({"MA2"}),
            "SA7": frozenset({"MA2"}),
        },
        master_level={"MA1": 1, "MA2": 2},
        lag_slots={"MA2": 1},
    )


# ---------------------------------------------------------------------------
# Selection rules


def test_single_master_uses_the_master():
    topo = build_rect_topology()
    assert select_time_base({"MA1", "SA2", "SA3", "SA4"}, topo) == "MA1"


def test_single_master_falls_back_to_lowest_slave():
    # The master missed the blink; any slave is on its timescale already,
    # and the lowest id keeps the choice deterministic.
    topo = NetworkTopology(
        anchors=(
            _anchor("MA1", "master", (0.0, 0.0)),
            _anchor("SA2", "slave", (6.0, 0.0)),
            _anchor("SA3", "slave", (6.0, 4.0)),
            _anchor("SA4", "slave", (0.0, 4.0)),
            _anchor("SA5", "slave", (3.0, 6.0)),
        ),
        follow={s: frozenset({"MA1"}) for s in ("SA2", "SA3", "SA4", "SA5")},
        master_level={"MA1": 1},
    )
    assert select_time_base({"SA2", "SA3", "SA4", "SA5"}, topo) == "SA2"
    assert select_time_base({"SA3", "SA4", "SA5", "SA2"}, topo) == "SA2"


def test_one_cell_uses_that_master():
    # Every receiving slave follows MA2 and MA2 heard the blink itself.
    topo = _two_cell_topology()
    assert select_time_base({"MA2", "SA5", "SA6", "SA7"}, topo) == "MA2"


def test_spanning_cells_uses_the_bridging_slave():
    # Receivers follow both masters, so only SA2 (which hears both masters'
    # CCPs) can relate their timescales.
    topo = _two_cell_topology()
    assert select_time_base({"SA1", "SA2", "SA5", "SA6"}, topo) == "SA2"


def test_bridge_wins_even_when_a_master_received():
    topo = _two_cell_topology()
    assert select_time_base({"MA2", "SA1", "SA2", "SA5"}, topo) == "SA2"


def test_spanning_cells_without_bridge_fails():
    topo = _two_cell_topology()
    with pytest.raises(NoTimeBaseError):
        select_time_base({"SA1", "SA3", "SA5", "SA6"}, topo)


def test_one_cell_without_its_master_needs_a_bridge():
    topo = _two_cell_topology()
    assert select_time_base({"SA2", "SA5", "SA6", "SA7"}, topo) == "SA2"
    with pytest.raises(NoTimeBaseError):
        select_time_base({"SA1", "SA3", "SA5", "SA6"}, topo)


def _locate(topo: NetworkTopology, heard: dict, places: dict, duration: float):
    """The engine's result on static tags, each heard by exactly ``heard[tag]``."""
    scenario = Scenario(
        topology=topo, tags=tuple(TagSpec(t, StaticTrajectory(places[t])) for t in heard),
        duration=duration, blink_links={t: frozenset(a) for t, a in heard.items()})
    return engine.locate_reports(run_scenario(scenario).reports, topo)


def test_the_engine_fixes_every_blink_with_four_synchronized_receivers():
    # One tag per set of receivers: two cells with no bridge, one cell with
    # its master, two cells through the bridge, and three receivers.  The
    # sync puts every arrival on MA1's timescale, so only the count matters.
    heard = {"T1": ("SA1", "SA3", "SA5", "SA6"), "T2": ("MA2", "SA5", "SA6", "SA7"),
             "T3": ("SA1", "SA2", "SA5", "SA6"), "T4": ("MA1", "SA1", "SA3")}
    places = {"T1": (10.0, 4.0), "T2": (21.0, 1.0), "T3": (12.0, 3.0), "T4": (3.0, 2.0)}
    result = _locate(_two_cell_topology(), heard, places, duration=1.0)
    fixes = result.fixes
    assert fixes.ids == ("T1", "T2", "T3")
    assert sorted(zip(fixes.tag.tolist(), fixes.blink_seq.tolist())) == [
        (t, seq) for t in range(3) for seq in range(10)]
    assert result.diagnostics["blinks_too_few_receivers"] == 10
    assert "blinks_no_time_base" not in result.diagnostics


def test_blinks_spanning_cells_without_a_bridge_are_fixed_on_truth():
    # Skewed, offset clocks and no jitter.  T1 and T5 span both cells and no
    # receiver bridges them, T3's receivers include the bridge SA2.
    topo = _two_cell_topology()
    topo = dataclasses.replace(topo, anchors=tuple(
        dataclasses.replace(a, clock=ClockModel(*TWO_CELL_CLOCKS[a.id])) for a in topo.anchors))
    heard = {"T1": ("SA1", "SA3", "SA5", "SA6"), "T3": ("SA1", "SA2", "SA5", "SA6"),
             "T5": ("MA1", "SA1", "SA3", "SA5", "SA6", "SA7")}
    places = {"T1": (10.0, 4.0), "T3": (12.0, 3.0), "T5": (8.0, 1.0)}
    fixes = _locate(topo, heard, places, duration=8.0).fixes
    for tag in ("T1", "T5"):
        mine = fixes_of(fixes, tag)
        late = mine.blink_seq >= 50
        assert np.count_nonzero(late) == 30
        x, y = places[tag]
        assert np.hypot(mine.x[late] - x, mine.y[late] - y).max() < 1e-5
    # With no jitter T3's reports do not depend on the other tags, so its
    # fixes are the ones a run without the unbridged tags makes, bit for bit.
    alone = _locate(topo, {"T3": heard["T3"]}, places, duration=8.0).fixes
    assert len(alone) == 80
    assert same_columns(fixes_of(fixes, "T3"), alone)


def test_too_few_receivers():
    topo = build_rect_topology()
    with pytest.raises(NoTimeBaseError):
        select_time_base({"MA1", "SA2", "SA3"}, topo)
    assert MIN_RECEIVERS == 4


def test_unknown_receiver_rejected():
    topo = build_rect_topology()
    with pytest.raises(NoTimeBaseError):
        select_time_base({"MA1", "SA2", "SA3", "SA9"}, topo)


# ---------------------------------------------------------------------------
# Arrival rows


CCP_PERIOD = 0.15


def _arrivals(offsets: dict[str, float], ccp_seq: int = 0) -> ArrivalTable:
    """One blink's arrivals, ``offsets`` seconds after CCP ``ccp_seq``."""
    return arrival_table({("T1", 0): {a: (t, ccp_seq, 1.0) for a, t in offsets.items()}})


def _rows(arrivals: ArrivalTable, origin: str) -> dict[str, float]:
    """c x arrival time in meters per receiver, counted from ``origin``'s arrival."""
    (rows,) = blink_rows(arrivals).values()
    return {a: float(arrival_tdoa(arrivals, i, rows[origin], CCP_PERIOD)) * SPEED_OF_LIGHT
            for a, i in rows.items()}


def test_changing_reference_shifts_all_measurements_consistently():
    # t_i - t_o2 = (t_i - t_o1) - (t_o2 - t_o1): counting the rows from
    # another receiver's arrival shifts every row by the same constant.
    arrivals = _arrivals({"MA1": 0.0, "SA2": 2.0e-9, "SA3": -0.7e-9, "SA4": 1.1e-9})
    via_ma1 = _rows(arrivals, "MA1")
    via_sa2 = _rows(arrivals, "SA2")
    shift = via_ma1["SA2"]
    assert via_ma1["MA1"] == 0.0 and via_sa2["SA2"] == 0.0
    assert via_sa2["MA1"] == pytest.approx(-shift)
    for anchor in ("SA3", "SA4"):
        assert via_sa2[anchor] == pytest.approx(via_ma1[anchor] - shift)
