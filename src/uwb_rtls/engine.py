"""The central localization pipeline: ToA reports in, position fixes out.

Chains the stages: multi-master clock synchronization, the per-blink
time-base rule for which blinks are usable, and EKF tracking on each usable
blink's arrivals.  The CLI drives exactly this function over files, so
file-based and in-process runs agree measurement for measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .constants import SPEED_OF_LIGHT
from .protocol import ToaReport
from .solver import Fix, TdoaSet, TrackerConfig, track
from .timebase import MIN_RECEIVERS, NoTimeBaseError, select_time_base
from .topology import NetworkTopology
from .wcs import SyncedBlinks, WcsParams, arrival_tdoa, multi_master_sync


@dataclass(frozen=True)
class EngineParams:
    """Shared nominal parameters the engine needs about the deployment;
    ``blink_period`` is both the sync's search hint and the tracker's step,
    and ``wcs`` holds the sync settings."""

    ccp_period: float = 0.15
    blink_period: float = 0.1
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    wcs: WcsParams = field(default_factory=WcsParams)


@dataclass
class LocateResult:
    """Fixes plus what they were made from.

    ``blinks`` is the sync output: per blink, each synchronized receiver's
    corrected ``Arrival``.  The time difference between any two receivers
    of a blink is ``wcs.arrival_tdoa`` of their arrivals.  ``diagnostics``
    holds every stage's counters.
    """

    fixes: list[Fix]
    blinks: SyncedBlinks
    diagnostics: dict


def locate_reports(
    reports: Iterable[ToaReport],
    topo: NetworkTopology,
    params: EngineParams = EngineParams(),
) -> LocateResult:
    """Run the whole pipeline over a report stream.

    Blinks that cannot be used (too few synchronized receivers, no valid
    time base) are skipped and counted in ``diagnostics``, and so are the
    cold starts and updates the tracker skips; everything else becomes one
    fix per blink per tag.  A usable blink goes to the tracker as its
    arrivals in meters, less the lowest-id receiver's arrival.  One
    ``track`` call steps every tag.
    """
    diagnostics: dict = {}
    blinks = multi_master_sync(
        reports,
        topo,
        ccp_period=params.ccp_period,
        blink_period=params.blink_period,
        params=params.wcs,
        diagnostics=diagnostics,
    )

    def count(key: str) -> None:
        diagnostics[key] = diagnostics.get(key, 0) + 1

    sets: list[TdoaSet] = []
    for (tag_id, blink_seq), arrivals in blinks.items():
        if len(arrivals) < MIN_RECEIVERS:
            count("blinks_too_few_receivers")
            continue
        try:
            select_time_base(arrivals, topo)
        except NoTimeBaseError:
            count("blinks_no_time_base")
            continue
        first = arrivals[min(arrivals)]
        sets.append(TdoaSet(tag_id, blink_seq, tuple(
            (a, arrival_tdoa(arrivals[a], first, params.ccp_period) * SPEED_OF_LIGHT)
            for a in sorted(arrivals)
        )))

    fixes = track(sets, topo.positions(), params.blink_period, params.tracker, diagnostics)
    return LocateResult(fixes, blinks, diagnostics)
