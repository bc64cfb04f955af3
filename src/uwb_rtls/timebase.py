"""Per-blink time-base selection: the paper's rule, and deploy's HDoP reference.

The paper reduces every blink to TDoAs against one receiving anchor, the
time base for that blink.  Which anchor qualifies depends on who heard the
blink and on the follow graph: the master itself when there is only one in
play, a bridging slave when the receivers span several masters' cells.
The engine uses neither the rule nor its anchor: the sync puts every
arrival it places on the primary master's timescale, and the solver
centres each blink's arrivals, so no receiver is a reference.  ``deploy``
uses the anchor chosen here as the HDoP reference.
"""

from __future__ import annotations

from typing import Iterable

from .solver import MIN_RECEIVERS
from .topology import NetworkTopology, ROLE_SLAVE


class NoTimeBaseError(RuntimeError):
    """No receiving anchor qualifies as the blink's time base."""


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
