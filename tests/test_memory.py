"""Memory: the simulator's, the sync's and the HDoP grid's row-block passes
(``constants.row_blocks``) give the bits of one pass over every row, and so
do the blinks placed in disjoint parts against one calibration; they,
``locate_reports``, the tracker, the writers of reports.jsonl, truth.jsonl,
fixes.csv and synced.csv, the report, truth and synced.csv readers, which
code each block's ids as they read it, and the deploy report with its
hdop.csv keep their allocation peaks per report, row, fix or grid point
low, and fixes are held as columns."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from uwb_rtls import clock, constants, deploy, engine, simnet
from uwb_rtls.cli import (DEMO_CONFIG, fixes_to_csv, grid_to_csv, read_fixes_csv,
                          read_reports, read_synced_csv, read_truth, reports_to_jsonl,
                          synced_to_csv, truth_to_jsonl)
from uwb_rtls.config import parse_config
from uwb_rtls.constants import ROW_BLOCK
from uwb_rtls.protocol import BLINK_RX, CCP_RX, ReportColumns
from uwb_rtls.simnet import run_scenario
from uwb_rtls.solver import ranges, sum_over_anchors, track
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
    monkeypatch.setattr(constants, "ROW_BLOCK", 10**9)
    whole = run_scenario(cfg.scenario).reports
    whole_table, whole_diag = _sync(_without_primary_ccps(whole, cfg, range(4, 10)), cfg)
    monkeypatch.setattr(constants, "ROW_BLOCK", block)
    clock_reads = []  # the simulator's clock reads go a block at a time too

    def read_clock(clocks, times, rng):
        clock_reads.append(len(times))
        return clock.read_clock(clocks, times, rng)

    monkeypatch.setattr(simnet, "read_clock", read_clock)
    reports = run_scenario(cfg.scenario).reports
    assert clock_reads == [min(block, len(reports) - start)
                           for start in range(0, len(reports), block)]
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


def _traced_bytes(call) -> tuple[object, int, int]:
    """``call()``'s result, what it left allocated (the result, live) and
    the most it held allocated, both beyond what was allocated when it
    started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        live, peak = tracemalloc.get_traced_memory()
        return result, live - start, peak - start
    finally:
        tracemalloc.stop()


def _peak_bytes(call) -> tuple[object, int]:
    """``call()``'s result, and the most it held allocated beyond what was
    allocated when it started."""
    result, _, peak = _traced_bytes(call)
    return result, peak


def test_simulator_and_sync_allocation_peaks_per_report():
    # With whole-run passes these peaks were about 259 B and 267 B per
    # report; row blocks and id compaction by presence brought them to
    # about 194 B and 161 B, and block-bounded clock reads and placement
    # hints, with the working columns released before the output gathers,
    # to about 89 B and 93 B.  Dropping repeated readings on the sorts
    # calibrate and place make anyway, not on a sorted copy of every
    # report, took the sync to about 69 B.
    cfg = parse_config(fleet_config())
    sim, sim_peak = _peak_bytes(lambda: run_scenario(cfg.scenario))
    (table, _), sync_peak = _peak_bytes(lambda: _sync(sim.reports, cfg))
    assert len(sim.reports) > 100_000 and len(table) > 100_000
    assert sim_peak / len(sim.reports) < 110
    assert sync_peak / len(sim.reports) < 80


def test_locate_reports_allocation_peak_per_report():
    # With the sync's sorted copy of every report and the tracker's rows
    # holding a copied anchor position per arrival, about 103 B per
    # report; with the sync's own sorts and anchors named by code, 87 B.
    cfg = parse_config(fleet_config())
    reports = run_scenario(cfg.scenario).reports
    located, peak = _peak_bytes(lambda: engine.locate_reports(
        reports, cfg.scenario.topology, cfg.engine_params()))
    assert len(located.blinks) > 100_000 and len(located.fixes) > 10_000
    assert peak / len(reports) < 95


def test_report_reader_allocation_peak_per_line(tmp_path):
    # Each block's seqs and ticks become arrays as it is parsed, not lists
    # of Python ints and floats kept to the end: about 109 B -> 84 B; and
    # its ids and kinds become codes then, not lists of str until the
    # whole file is read: about 84 B -> 54 B, for a result of 25 B.
    reports = run_scenario(parse_config(fleet_config()).scenario).reports
    path = tmp_path / "reports.jsonl"
    path.write_text("".join(reports_to_jsonl(reports)))
    (read, skipped), peak = _peak_bytes(lambda: read_reports(path))
    assert skipped == 0 and len(read) == len(reports) > 100_000
    assert peak / len(reports) < 64


@pytest.fixture(scope="module")
def fleet_run():
    return run_scenario(parse_config(fleet_config()).scenario)


def test_report_and_truth_writers_allocation_peaks_per_row(fleet_run, tmp_path):
    # Written a row block at a time by per-file template encoders, reports.jsonl
    # peaked at about 13.4 B per report and truth.jsonl at about 81.0 B per
    # blink; by the one renderer, at about 11.1 B and 61.7 B.
    with open(tmp_path / "reports.jsonl", "w") as fh:
        _, peak = _peak_bytes(lambda: fh.writelines(reports_to_jsonl(fleet_run.reports)))
    assert len(fleet_run.reports) > 100_000
    assert peak / len(fleet_run.reports) < 14
    truth = fleet_run.truth_blinks
    with open(tmp_path / "truth.jsonl", "w") as fh:
        _, peak = _peak_bytes(lambda: fh.writelines(truth_to_jsonl(truth,
                                                                   fleet_run.truth_clocks)))
    assert len(truth) > 10_000
    assert peak / len(truth) < 85


def test_truth_reader_allocation_peak_per_blink(fleet_run, tmp_path):
    # About 239 B per blink, for a result of about 37 B: the peak is one
    # block of json.loads dicts and their field lists, about 880 B per line.
    path = tmp_path / "truth.jsonl"
    path.write_text("".join(truth_to_jsonl(fleet_run.truth_blinks, fleet_run.truth_clocks)))
    (read, skipped), peak = _peak_bytes(lambda: read_truth(path))
    assert skipped == 0 and same_columns(read, fleet_run.truth_blinks) and len(read) > 10_000
    assert peak / len(read) < 250


@pytest.fixture(scope="module")
def fleet_blinks():
    cfg = parse_config(fleet_config())
    reports = run_scenario(cfg.scenario).reports
    return engine.locate_reports(reports, cfg.scenario.topology, cfg.engine_params()).blinks


def test_synced_writer_allocation_peak_per_row(fleet_blinks, tmp_path):
    # Its distinct rates, taken over the whole table, peaked at about 41 B
    # per row; taken per row block, at about 13 B.
    with open(tmp_path / "synced.csv", "w") as fh:
        _, peak = _peak_bytes(lambda: fh.writelines(synced_to_csv(fleet_blinks)))
    assert len(fleet_blinks) > 100_000
    assert peak / len(fleet_blinks) < 20


def test_fixes_writer_allocation_peak_per_row(tmp_path):
    # Each row block's rows listed before their join, which copies them
    # into the block's text: about 77 B per fix, as each file's own writer
    # peaked.  Joined straight from the renderer's map, whose value lists
    # live on until the join returns, about 99 B.
    cfg = parse_config(fleet_config())
    reports = run_scenario(cfg.scenario).reports
    fixes = engine.locate_reports(reports, cfg.scenario.topology, cfg.engine_params()).fixes
    with open(tmp_path / "fixes.csv", "w") as fh:
        _, peak = _peak_bytes(lambda: fh.writelines(fixes_to_csv(fixes)))
    assert len(fixes) > 10_000
    assert peak / len(fixes) < 85


def test_synced_reader_allocation_peak_per_row(fleet_blinks, tmp_path):
    # With the file's ids kept as lists of str and coded at the end, the
    # peak was about 105 B per row, and coded per block about 88 B; with
    # columns sized from the file's newline count, not blocks joined, and
    # put in key order one at a time, about 66 B, for a result of 40 B.
    path = tmp_path / "synced.csv"
    path.write_text("".join(synced_to_csv(fleet_blinks)))
    (read, skipped), peak = _peak_bytes(lambda: read_synced_csv(path))
    assert skipped == 0 and same_columns(read, fleet_blinks) and len(read) > 100_000
    assert peak / len(read) < 80


def test_fixes_are_held_as_columns_by_the_tracker_and_the_fix_reader(tmp_path, monkeypatch):
    # As lists of records, track's result held about 249 B per fix, and
    # read_fixes_csv's 225 B with a 367 B peak.  As columns (an int32 tag,
    # an int64 seq and six float64 values) both hold about 60 B; the
    # reader's peak, about 250 B per fix here, is mostly one block's line
    # text and fields.  Filling per-blink output columns, not keeping
    # each epoch's fixes and then their joined copy, took track's peak
    # from about 238 B to 144 B per fix.
    cfg = parse_config(fleet_config())
    reports = run_scenario(cfg.scenario).reports
    calls = []
    monkeypatch.setattr(engine, "track", lambda *a: calls.append(a) or track(*a))
    fixes = engine.locate_reports(reports, cfg.scenario.topology, cfg.engine_params()).fixes
    again, live, peak = _traced_bytes(lambda: track(*calls[0]))
    assert same_columns(again, fixes) and len(fixes) > 10_000
    assert live / len(fixes) < 80
    assert peak / len(fixes) < 180
    path = tmp_path / "fixes.csv"
    path.write_text("".join(fixes_to_csv(fixes)))
    (read, skipped), live, peak = _traced_bytes(lambda: read_fixes_csv(path))
    assert skipped == 0 and len(read) == len(fixes)
    assert live / len(fixes) < 80
    assert peak / len(fixes) < 300


def _hall_anchors() -> dict[str, tuple[float, float]]:
    return parse_config(hall_config()).scenario.topology.positions()


def _hdop_all_anchors(px, py, anchors, reference):
    """The HDoP that ``deploy._hdop`` sums anchor by anchor, as it was
    before: every point and every anchor in one (anchors x points) pass,
    the gradient rows differenced against the reference's, then summed
    over anchors by ``sum_over_anchors``."""
    others = sorted(a for a in anchors if a != reference)
    xy = np.array([anchors[a] for a in [reference, *others]], dtype=float)
    _, grad, near = ranges(px, py, xy)
    grad[:, 1:] -= grad[:, :1]
    gx, gy = grad[:, 1:]
    a, b, c = (sum_over_anchors(u * v) for u, v in ((gx, gx), (gx, gy), (gy, gy)))
    det = a * c - b * b
    trace = a + c
    on_anchor = near.any(axis=0)
    ok = ~on_anchor & (det > 1e-12 * (trace * trace + 1.0))
    return np.where(ok, np.sqrt(trace / np.where(ok, det, 1.0)), math.inf), on_anchor


def _layout(name: str) -> dict[str, tuple[float, float]]:
    if name == "hall":  # 36 anchors
        return _hall_anchors()
    if name == "random-12":
        rng = random.Random(12)
        return {f"A{i:02d}": (rng.uniform(0.0, 30.0), rng.uniform(0.0, 20.0)) for i in range(12)}
    if name == "collinear":
        return {f"L{i}": (3.0 * i, 2.0) for i in range(5)}
    return {"A": (0.0, 0.0), "B": (6.0, 0.0), "C": (2.0, 5.0)}  # "triangle"


@pytest.mark.parametrize("block", [7, ROW_BLOCK])
@pytest.mark.parametrize("name", ["triangle", "random-12", "hall", "collinear"])
def test_hdop_summed_anchor_by_anchor_is_the_all_anchors_pass_bit_for_bit(monkeypatch, name,
                                                                         block):
    anchors = _layout(name)
    monkeypatch.setattr(constants, "ROW_BLOCK", block)
    xs, ys = np.array(list(anchors.values())).T
    step = 0.25 if block == ROW_BLOCK else 1.0
    gx = np.arange(xs.min() - 2.0, xs.max() + 2.0, step)
    gy = np.arange(ys.min() - 2.0, ys.max() + 2.0, step)
    # A grid, then every anchor's own position: a partial last block, and points on anchors.
    px = np.concatenate([np.repeat(gx, gy.size), xs])
    py = np.concatenate([np.tile(gy, gx.size), ys])
    assert px.size % block
    reference = sorted(anchors)[len(anchors) // 2]
    hdop, on_anchor = deploy._hdop(px, py, anchors, reference)
    want, want_on = _hdop_all_anchors(px, py, anchors, reference)
    assert hdop.tobytes() == want.tobytes() and np.array_equal(on_anchor, want_on)
    assert on_anchor[-len(anchors):].all() and np.isinf(hdop[-len(anchors):]).all()
    assert np.isfinite(hdop).any()
    if name == "collinear":  # degenerate along the anchors' line
        assert np.isinf(hdop[py == 2.0]).all()
    # One point alone (numpy's own sums turn pairwise at one point) reads its grid bits.
    for i in range(0, px.size, px.size // 5):
        one, _ = deploy._hdop(px[i:i + 1], py[i:i + 1], anchors, reference)
        assert one.tobytes() == want[i:i + 1].tobytes()


def test_deploy_report_and_its_hdop_csv_allocation_peak_per_grid_point(tmp_path):
    # The grid as a tuple of (x, y, hdop) tuples, rendered as one string,
    # peaked at about 289 B per point of the hall's 0.25 m grid; as float64
    # columns, rendered a row block at a time, at about 58 B.
    cfg = parse_config(hall_config())

    def report_and_csv():
        report = deploy.build_deployment_report(cfg.scenario.topology, cfg.area, 0.25)
        with open(tmp_path / "hdop.csv", "w") as fh:
            fh.writelines(grid_to_csv(report.grid))
        return report

    report, peak = _peak_bytes(report_and_csv)
    assert len(report.grid) > 25_000 and math.isfinite(report.worst_hdop_in_hull)
    assert peak / len(report.grid) < 80


def test_hdop_allocation_peak_per_grid_point_is_a_block_not_the_anchors():
    # One (anchors x points) pass per block peaked at about 522 B per point
    # of the hall's 0.25 m grid (36 anchors); summed anchor by anchor the
    # peak is about 33 B, most of it the outputs.
    anchors = _hall_anchors()
    xs = np.arange(0.0, 40.0 + 0.125, 0.25)
    px, py = np.repeat(xs, xs.size), np.tile(xs, xs.size)
    (hdop, _), peak = _peak_bytes(lambda: deploy._hdop(px, py, anchors, "MA01"))
    assert px.size > 25_000 and np.isfinite(hdop).sum() > 25_000
    assert peak / px.size < 64
