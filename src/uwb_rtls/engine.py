"""The central localization pipeline: ToA reports in, position fixes out.

Chains the stages: multi-master clock synchronization of the report
columns into one arrival table on the primary master's timescale, and EKF
tracking on the arrivals of every blink that at least ``MIN_RECEIVERS``
synchronized anchors received.  The CLI drives exactly this function over
files, so file-based and in-process runs agree measurement for measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT, tally
from .protocol import ReportColumns
from .solver import MIN_RECEIVERS, BlinkRows, FixTable, TrackerConfig, track
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

    fixes: FixTable
    blinks: ArrivalTable
    diagnostics: dict


def locate_reports(
    reports: ReportColumns, topo: NetworkTopology, params: EngineParams = EngineParams()
) -> LocateResult:
    """Run the whole pipeline over a report stream.

    The sync puts every arrival it places on the primary master's
    timescale, so a blink is usable when ``MIN_RECEIVERS`` or more
    synchronized anchors received it, in whichever cells.  Other blinks
    are counted in ``diagnostics`` (``blinks_too_few_receivers``), and so
    are the cold starts and updates the tracker skips; everything else
    becomes one fix per blink per tag.  The tracker reads the usable
    blinks from the arrival table's own rows (``solver.BlinkRows``): each
    row's arrival in meters, less its blink's lowest-id receiver's
    arrival, and its anchor's position.  One ``track`` call steps every tag.
    """
    diagnostics: dict = {}
    blinks = multi_master_sync(reports, topo, ccp_period=params.ccp_period,
                               blink_period=params.blink_period, params=params.wcs,
                               diagnostics=diagnostics)

    starts, sizes = blinks.blinks()
    first = np.repeat(starts, sizes)  # each row's blink's lowest-id receiver
    meters = SPEED_OF_LIGHT * arrival_tdoa(blinks, slice(None), first, params.ccp_period)
    positions = topo.positions()
    xy = np.array([positions.get(i, (math.nan, math.nan)) for i in blinks.ids]).reshape(-1, 2)
    usable = sizes >= MIN_RECEIVERS
    tally(diagnostics, "blinks_too_few_receivers", np.count_nonzero(~usable))

    use = starts[usable]
    rows = BlinkRows(blinks.ids, blinks.tag[use], blinks.blink_seq[use], use, sizes[usable],
                     meters, blinks.anchor, xy)
    fixes = track(rows, params.blink_period, params.tracker, diagnostics)
    return LocateResult(fixes, blinks, diagnostics)
