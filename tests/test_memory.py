"""Memory: the simulator's and the sync's row-block passes give the bits of
one pass over every row, and so do the blinks placed in disjoint parts
against one calibration; both keep their allocation peaks per report low."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from uwb_rtls import simnet, wcs
from uwb_rtls.cli import DEMO_CONFIG
from uwb_rtls.config import parse_config
from uwb_rtls.constants import ROW_BLOCK
from uwb_rtls.protocol import BLINK_RX, CCP_RX, ReportColumns
from uwb_rtls.simnet import run_scenario
from uwb_rtls.wcs import calibrate, multi_master_sync, place

from conftest import arrival_rows, arrival_table, hall_config, same_columns


def _sync(reports, cfg):
    params, diag = cfg.engine_params(), {}
    table = multi_master_sync(reports, cfg.scenario.topology, ccp_period=params.ccp_period,
                              blink_period=params.blink_period, params=params.wcs,
                              diagnostics=diag)
    return table, diag


def _without_primary_ccps(reports, cfg, seqs: range):
    """``reports`` less every slave's reception of the primary master's CCPs
    ``seqs``: slaves' blinks in that gap are stale on the primary's track,
    and those of a slave that follows another master take that one's."""
    topo = cfg.scenario.topology
    slaves = [reports.ids.index(s) for s in topo.slaves()]
    gap = ((reports.kind == CCP_RX) & (reports.src == reports.ids.index(topo.primary_master()))
           & np.isin(reports.anchor, slaves)
           & (reports.seq >= seqs.start) & (reports.seq < seqs.stop))
    return ReportColumns(reports.ids, *(column[~gap] for column in (
        reports.anchor, reports.kind, reports.src, reports.seq, reports.ticks)))


def _placed_in_parts(reports, cfg, rng: random.Random, parts: int = 3):
    """The arrivals of ``reports`` with their blinks split at random into
    ``parts`` disjoint parts, each placed by its own ``place`` call against
    one ``calibrate``, merged into one table; and the diagnostics of the
    calibration and of every part, summed, plus the report count."""
    params = cfg.engine_params()
    diag: Counter = Counter({"reports": len(reports)})
    counts: dict = {}
    state = calibrate(reports, cfg.scenario.topology, ccp_period=params.ccp_period,
                      params=params.wcs, diagnostics=counts)
    diag.update(counts)
    _, blink = np.unique(reports.src.astype(np.int64) * 2**32 + reports.seq, return_inverse=True)
    part_of = np.array([rng.randrange(parts) for _ in range(blink.max() + 1)])[blink]
    arrivals: dict = {}
    for part in range(parts):
        rows = (reports.kind == BLINK_RX) & (part_of == part)
        counts = {}
        table = place(state, ReportColumns(reports.ids, *(column[rows] for column in (
            reports.anchor, reports.kind, reports.src, reports.seq, reports.ticks))),
            blink_period=params.blink_period, params=params.wcs, diagnostics=counts)
        diag.update(counts)
        for anchor, tag, seq, ccp_seq, offset, rate in arrival_rows(table):
            arrivals.setdefault((tag, seq), {})[anchor] = (offset, ccp_seq, rate)
    return arrival_table(arrivals), dict(diag)


@pytest.mark.parametrize("block", [1, 7, ROW_BLOCK])
@pytest.mark.parametrize("config", [DEMO_CONFIG, hall_config(duration=2.0)],
                         ids=["demo", "hall"])
def test_row_block_size_does_not_change_the_reports_or_the_arrivals(monkeypatch, config,
                                                                    block):
    cfg = parse_config(config)
    monkeypatch.setattr(simnet, "ROW_BLOCK", 10**9)
    monkeypatch.setattr(wcs, "ROW_BLOCK", 10**9)
    whole = run_scenario(cfg.scenario).reports
    whole_table, whole_diag = _sync(_without_primary_ccps(whole, cfg, range(4, 10)), cfg)
    monkeypatch.setattr(simnet, "ROW_BLOCK", block)
    monkeypatch.setattr(wcs, "ROW_BLOCK", block)
    reports = run_scenario(cfg.scenario).reports
    gapped = _without_primary_ccps(reports, cfg, range(4, 10))
    table, diag = _sync(gapped, cfg)
    assert same_columns(reports, whole)
    assert same_columns(table, whole_table) and diag == whole_diag
    assert len(table) > 1000 and diag["stale_blinks"] > 0
    # Placement is local: each part of the blinks placed alone gives its rows.
    parts_table, parts_diag = _placed_in_parts(gapped, cfg, random.Random(block))
    assert same_columns(parts_table, whole_table) and parts_diag == whole_diag


def fleet_config(seed: int = 1) -> dict:
    """100 tags walking random waypoints for 18 s in a 24 m x 16 m room
    ringed by one master and five slaves, every anchor hearing every blink;
    clock phases anywhere in one counter wrap."""
    rng = random.Random(seed)
    spots = [(0.0, 0.0), (12.0, 0.0), (24.0, 0.0), (24.0, 16.0), (12.0, 16.0), (0.0, 16.0)]
    anchors = [{"id": "MA1" if i == 0 else f"SA{i + 1}", "position": list(pos),
                **({"role": "master", "level": 1} if i == 0 else
                   {"role": "slave", "follows": ["MA1"]}),
                "clock": {"offset": rng.uniform(0.0, 17.2), "skew": rng.uniform(-2e-5, 2e-5),
                          "jitter_std": 1e-10}}
               for i, pos in enumerate(spots)]
    tags = []
    for n in range(100):
        points = [[4.0 * i, rng.uniform(1.0, 23.0), rng.uniform(1.0, 15.0)] for i in range(6)]
        tags.append({"id": f"T{n:03d}", "trajectory": {"kind": "waypoints", "points": points}})
    return {"anchors": anchors, "tags": tags, "duration": 18.0, "seed": seed,
            "area": [[0.0, 0.0], [24.0, 16.0]]}


def _peak_bytes(call) -> tuple[object, int]:
    """``call()``'s result, and the most it held allocated beyond what was
    allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_simulator_and_sync_allocation_peaks_per_report():
    # With whole-run passes these peaks were about 259 B and 267 B per
    # report; row blocks and id compaction by presence bring them to about
    # 194 B and 172 B.
    cfg = parse_config(fleet_config())
    sim, sim_peak = _peak_bytes(lambda: run_scenario(cfg.scenario))
    (table, _), sync_peak = _peak_bytes(lambda: _sync(sim.reports, cfg))
    assert len(sim.reports) > 100_000 and len(table) > 100_000
    assert sim_peak / len(sim.reports) < 220
    assert sync_peak / len(sim.reports) < 210
