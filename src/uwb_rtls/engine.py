"""The central localization pipeline: ToA reports in, position fixes out.

Chains the stages: multi-master clock synchronization of the report
columns into one arrival table, the per-blink time-base rule for which
blinks are usable, and EKF tracking on each usable blink's arrivals.  The
CLI drives exactly this function over files, so file-based and in-process
runs agree measurement for measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .protocol import ReportColumns
from .solver import BlinkRows, Fix, TrackerConfig, track
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
    fix per blink per tag.  The tracker reads the usable blinks from the
    arrival table's own rows (``solver.BlinkRows``): each row's arrival in
    meters, less its blink's lowest-id receiver's arrival, and its anchor's
    position.  The time base is chosen once per distinct set of receivers,
    and one ``track`` call steps every tag.
    """
    diagnostics: dict = {}
    blinks = multi_master_sync(reports, topo, ccp_period=params.ccp_period,
                               blink_period=params.blink_period, params=params.wcs,
                               diagnostics=diagnostics)

    starts, sizes = blinks.blinks()
    first = np.repeat(starts, sizes)  # each row's blink's lowest-id receiver
    meters = SPEED_OF_LIGHT * arrival_tdoa(blinks, np.arange(len(blinks)), first,
                                           params.ccp_period)
    positions = topo.positions()
    xy = np.array([positions.get(i, (math.nan, math.nan)) for i in blinks.ids]).reshape(-1, 2)
    few = sizes < MIN_RECEIVERS
    usable = ~few
    usable[usable] = _has_time_base(blinks, starts[usable], sizes[usable], topo)
    for key, skipped in (("blinks_too_few_receivers", few),
                         ("blinks_no_time_base", ~few & ~usable)):
        if n := int(np.count_nonzero(skipped)):
            diagnostics[key] = n

    use = starts[usable]
    rows = BlinkRows(blinks.ids, blinks.tag[use], blinks.blink_seq[use], use, sizes[usable],
                     meters, xy[blinks.anchor])
    fixes = track(rows, params.blink_period, params.tracker, diagnostics)
    return LocateResult(fixes, blinks, diagnostics)


def _has_time_base(blinks: ArrivalTable, starts: np.ndarray, sizes: np.ndarray,
                   topo: NetworkTopology) -> np.ndarray:
    """Whether each blink's receivers have a time base, asked once per
    distinct set of receivers."""
    column = np.arange(int(sizes.max(initial=0)))
    held = column < sizes[:, None]
    receivers = np.where(held, blinks.anchor[np.where(held, starts[:, None] + column, 0)], -1)
    sets, which = np.unique(receivers, axis=0, return_inverse=True)
    usable = []
    for row in sets.tolist():
        try:
            usable.append(bool(select_time_base([blinks.ids[a] for a in row if a >= 0], topo)))
        except NoTimeBaseError:
            usable.append(False)
    return np.array(usable, dtype=bool)[which.reshape(-1)]
