"""Per-blink reference anchor selection and TDoA set assembly.

Every blink is reduced to range differences against one receiving anchor,
the time base for that blink.  Which anchor qualifies depends on who heard
the blink and on the follow graph: the master itself when there is only one
in play, a bridging slave when the receivers span several masters' cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .constants import SPEED_OF_LIGHT
from .topology import NetworkTopology, ROLE_SLAVE
from .wcs import Arrival, arrival_tdoa

# A planar position needs three independent range differences, so a usable
# blink involves the reference plus at least three more receivers.
MIN_RECEIVERS = 4
MIN_MEASUREMENTS = 3


class NoTimeBaseError(RuntimeError):
    """No receiving anchor qualifies as the blink's time base."""


class InsufficientAnchorsError(RuntimeError):
    """Too few synchronized measurements to fix a position."""


@dataclass(frozen=True)
class TdoaSet:
    """One blink's range differences against a single reference anchor.

    ``measurements`` holds (anchor_id, range difference in meters) sorted by
    anchor id; the reference itself never appears in it.
    """

    tag_id: str
    blink_seq: int
    reference_anchor: str
    measurements: tuple[tuple[str, float], ...]


def select_time_base(blink_receivers: Iterable[str], topo: NetworkTopology) -> str:
    """Pick the reference anchor for a blink heard by ``blink_receivers``.

    Single-master deployments use the master itself; if the master missed
    the blink, the lowest-id receiving slave stands in (every slave is on
    the master's timescale anyway).  With several masters, a blink whose
    receiving slaves all follow one master uses that master, and a blink
    spanning cells needs a receiving bridge slave, lowest id winning.
    """
    receivers = set(blink_receivers)
    unknown = receivers - set(topo.ids())
    if unknown:
        raise NoTimeBaseError(f"unknown receivers: {', '.join(sorted(unknown))}")
    if len(receivers) < MIN_RECEIVERS:
        raise NoTimeBaseError(
            f"blink received by {len(receivers)} anchors, need >= {MIN_RECEIVERS}"
        )

    if topo.is_single_master():
        master = topo.primary_master()
        if master in receivers:
            return master
        fallback = sorted(
            r for r in receivers
            if topo.anchor(r).role == ROLE_SLAVE and master in topo.follow.get(r, frozenset())
        )
        if fallback:
            return fallback[0]
        raise NoTimeBaseError("no receiver is synchronized to the master")

    slave_receivers = [r for r in sorted(receivers) if topo.anchor(r).role == ROLE_SLAVE]
    followed: set[str] = set()
    for r in slave_receivers:
        followed |= topo.follow.get(r, frozenset())
    if len(followed) == 1:
        (master,) = followed
        if master in receivers:
            return master
    bridges = [r for r in slave_receivers if len(topo.follow.get(r, frozenset())) >= 2]
    if bridges:
        return bridges[0]
    raise NoTimeBaseError(
        "receivers span multiple masters with no bridging slave among them"
    )


def assemble_tdoa_set(
    tag_id: str,
    blink_seq: int,
    arrivals: Mapping[str, Arrival],
    reference: str,
    ccp_period: float,
) -> TdoaSet:
    """Turn one blink's corrected arrivals into range differences vs a reference.

    Each measurement is ``c * (arrival at anchor - arrival at reference)``
    in meters.  ``arrival_tdoa`` is sign-symmetric to the last bit (IEEE
    rounding is), so a measurement is the exact negation of the reference's
    difference against that anchor.  A reference without an arrival, or
    fewer than three other arrivals, is an error.
    """
    ref = arrivals.get(reference)
    if ref is None:
        raise InsufficientAnchorsError(
            f"reference {reference!r} has no synchronized arrival for this blink"
        )
    diffs = {
        anchor: arrival_tdoa(arrival, ref, ccp_period) * SPEED_OF_LIGHT
        for anchor, arrival in arrivals.items()
        if anchor != reference
    }
    if len(diffs) < MIN_MEASUREMENTS:
        raise InsufficientAnchorsError(
            f"only {len(diffs)} range differences against {reference!r}, "
            f"need >= {MIN_MEASUREMENTS}"
        )
    return TdoaSet(
        tag_id=tag_id,
        blink_seq=blink_seq,
        reference_anchor=reference,
        measurements=tuple(sorted(diffs.items())),
    )
