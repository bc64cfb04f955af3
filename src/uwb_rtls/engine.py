"""The central localization pipeline: ToA reports in, position fixes out.

Chains the stages: multi-master clock synchronization of the report
columns into one arrival table, the per-blink time-base rule for which
blinks are usable, and EKF tracking on each usable blink's arrivals.  The
CLI drives exactly this function over files, so file-based and in-process
runs agree measurement for measurement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .protocol import ReportColumns
from .solver import Fix, TdoaSet, TrackerConfig, track
from .timebase import MIN_RECEIVERS, NoTimeBaseError, select_time_base
from .topology import NetworkTopology
from .wcs import ArrivalTable, WcsParams, arrival_tdoa, multi_master_sync


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
    """Fixes plus what they were made from: ``blinks`` is the sync output's
    ``wcs.ArrivalTable``, each synchronized receiver's corrected arrival per
    blink, and ``diagnostics`` holds every stage's counters."""

    fixes: list[Fix]
    blinks: ArrivalTable
    diagnostics: dict


def locate_reports(
    reports: ReportColumns, topo: NetworkTopology, params: EngineParams = EngineParams()
) -> LocateResult:
    """Run the whole pipeline over a report stream.

    Blinks that cannot be used (too few synchronized receivers, no valid
    time base) are skipped and counted in ``diagnostics``, and so are the
    cold starts and updates the tracker skips; everything else becomes one
    fix per blink per tag.  A usable blink goes to the tracker as its
    arrivals in meters, less the lowest-id receiver's arrival.  The time
    base is chosen once per distinct set of receivers, and one ``track``
    call steps every tag.
    """
    diagnostics: dict = {}
    blinks = multi_master_sync(reports, topo, ccp_period=params.ccp_period,
                               blink_period=params.blink_period, params=params.wcs,
                               diagnostics=diagnostics)

    starts, sizes = blinks.blinks()
    first = np.repeat(starts, sizes)  # each row's blink's lowest-id receiver
    meters = (arrival_tdoa(blinks, np.arange(len(blinks)), first, params.ccp_period)
              * SPEED_OF_LIGHT).tolist()
    anchors = [blinks.ids[a] for a in blinks.anchor.tolist()]
    usable = functools.cache(functools.partial(_has_time_base, topo=topo))
    sets: list[TdoaSet] = []
    tags, blink_seqs = blinks.tag[starts].tolist(), blinks.blink_seq[starts].tolist()
    for lo, n, tag, blink_seq in zip(starts.tolist(), sizes.tolist(), tags, blink_seqs):
        receivers = tuple(anchors[lo:lo + n])
        if n >= MIN_RECEIVERS and usable(receivers):
            arrivals = tuple(zip(receivers, meters[lo:lo + n]))
            sets.append(TdoaSet(blinks.ids[tag], blink_seq, arrivals))
        else:
            key = "blinks_no_time_base" if n >= MIN_RECEIVERS else "blinks_too_few_receivers"
            diagnostics[key] = diagnostics.get(key, 0) + 1

    fixes = track(sets, topo.positions(), params.blink_period, params.tracker, diagnostics)
    return LocateResult(fixes, blinks, diagnostics)


def _has_time_base(receivers: tuple[str, ...], topo: NetworkTopology) -> bool:
    try:
        return bool(select_time_base(receivers, topo))
    except NoTimeBaseError:
        return False
