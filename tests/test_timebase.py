"""Reference-anchor selection and range-difference assembly."""

from __future__ import annotations

import pytest

from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.timebase import (
    InsufficientAnchorsError,
    MIN_RECEIVERS,
    NoTimeBaseError,
    TdoaSet,
    assemble_tdoa_set,
    select_time_base,
)
from uwb_rtls.topology import AnchorConfig, NetworkTopology
from uwb_rtls.wcs import Arrival, arrival_tdoa

from conftest import build_rect_topology


def _anchor(anchor_id: str, role: str, pos) -> AnchorConfig:
    return AnchorConfig(id=anchor_id, role=role, position=pos)


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
# Assembly


CCP_PERIOD = 0.15


def _arrivals(offsets: dict[str, float], ccp_seq: int = 0) -> dict[str, Arrival]:
    """One blink's arrivals, ``offsets`` seconds after CCP ``ccp_seq``."""
    return {a: Arrival(offset=t, ccp_seq=ccp_seq, rate=1.0) for a, t in sorted(offsets.items())}


def _assemble(arrivals: dict[str, Arrival], reference: str) -> TdoaSet:
    return assemble_tdoa_set("T1", 3, arrivals, reference, CCP_PERIOD)


def test_assembly_orients_measurements_toward_the_reference():
    arrivals = _arrivals({"MA1": 0.0, "SA2": 2.0e-9, "SA3": -1.0e-9, "SA4": -1.5e-9})
    ts = _assemble(arrivals, "MA1")
    assert ts.reference_anchor == "MA1"
    assert ts.tag_id == "T1" and ts.blink_seq == 3
    assert [a for a, _ in ts.measurements] == ["SA2", "SA3", "SA4"]
    want = {
        "SA2": 2.0e-9 * SPEED_OF_LIGHT,   # SA2 heard the blink 2 ns after MA1
        "SA3": -1.0e-9 * SPEED_OF_LIGHT,
        "SA4": -1.5e-9 * SPEED_OF_LIGHT,
    }
    for anchor, value in ts.measurements:
        assert value == pytest.approx(want[anchor])


def test_assembly_reference_on_either_side():
    # SA3 as reference has anchors below (MA1, SA2) and above (SA4) it in id
    # order, and the arrivals hang off different CCPs.  Every measurement is
    # the exact negation of the reference's difference against that anchor:
    # ``arrival_tdoa`` is sign-symmetric to the last bit.
    arrivals = {
        "MA1": Arrival(offset=0.1 + 2.0e-9, ccp_seq=4, rate=1.00001),
        "SA2": Arrival(offset=0.1 - 1.0e-9, ccp_seq=4, rate=0.99999),
        "SA3": Arrival(offset=0.1 + CCP_PERIOD, ccp_seq=3, rate=1.00002),
        "SA4": Arrival(offset=0.1 + 3.5e-9, ccp_seq=4, rate=0.99998),
    }
    ts = _assemble(arrivals, "SA3")
    by_anchor = dict(ts.measurements)
    assert by_anchor["MA1"] == pytest.approx(2.0e-9 * SPEED_OF_LIGHT, rel=1e-6)
    assert by_anchor["SA2"] == pytest.approx(-1.0e-9 * SPEED_OF_LIGHT, rel=1e-6)
    assert by_anchor["SA4"] == pytest.approx(3.5e-9 * SPEED_OF_LIGHT, rel=1e-6)

    for anchor, value in ts.measurements:
        flipped = arrival_tdoa(arrivals["SA3"], arrivals[anchor], CCP_PERIOD)
        assert value == -flipped * SPEED_OF_LIGHT


def test_assembly_needs_the_reference_in_some_pair():
    """A reference without a synchronized arrival cannot anchor the blink."""
    arrivals = _arrivals({"SA2": 1e-9, "SA3": 0.0, "SA4": 2e-9, "MA2": 0.0})
    with pytest.raises(InsufficientAnchorsError):
        _assemble(arrivals, "MA1")


def test_assembly_needs_three_measurements():
    with pytest.raises(InsufficientAnchorsError):
        _assemble(_arrivals({"MA1": 0.0, "SA2": 1e-9, "SA3": 1e-9}), "MA1")
    with pytest.raises(InsufficientAnchorsError):
        _assemble({}, "MA1")


def test_changing_reference_shifts_all_measurements_consistently():
    # d_i - d_ref2 = (d_i - d_ref1) - (d_ref2 - d_ref1): re-assembly against
    # another reference is an affine shift of the same geometry.
    arrivals = _arrivals({"MA1": 0.0, "SA2": 2.0e-9, "SA3": -0.7e-9, "SA4": 1.1e-9})
    via_ma1 = dict(_assemble(arrivals, "MA1").measurements)
    via_sa2 = dict(_assemble(arrivals, "SA2").measurements)
    shift = via_ma1["SA2"]
    assert via_sa2["MA1"] == pytest.approx(-shift)
    for anchor in ("SA3", "SA4"):
        assert via_sa2[anchor] == pytest.approx(via_ma1[anchor] - shift)


def test_tdoa_set_is_a_value_object():
    ts = TdoaSet(tag_id="T1", blink_seq=0, reference_anchor="MA1",
                 measurements=(("SA2", 1.0), ("SA3", 2.0)))
    assert ts == TdoaSet(tag_id="T1", blink_seq=0, reference_anchor="MA1",
                         measurements=(("SA2", 1.0), ("SA3", 2.0)))
