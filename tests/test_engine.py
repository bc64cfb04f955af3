"""End-to-end pipeline: simulated reports through to position fixes."""

from __future__ import annotations

import dataclasses
import random
import statistics

import numpy as np
import pytest

from uwb_rtls import engine
from uwb_rtls.cli import DEMO_CONFIG
from uwb_rtls.clock import TICK_WRAP
from uwb_rtls.config import parse_config
from uwb_rtls.engine import EngineParams, locate_reports
from uwb_rtls.metrics import fix_errors
from uwb_rtls.protocol import ReportColumns
from uwb_rtls.simnet import (
    ConstantVelocityTrajectory,
    Scenario,
    StaticTrajectory,
    TagSpec,
    run_scenario,
)
from uwb_rtls.solver import TrackerConfig, track
from uwb_rtls.timebase import select_time_base

from conftest import (
    blink_rows,
    build_ideal_rect_topology,
    build_rect_topology,
    fix_table,
    hall_config,
    report_columns,
    report_rows,
    same_columns,
)


def _run(topo, duration=3.0, tag_xy=(2.0, 1.5), **scenario_kw):
    scn = Scenario(
        topology=topo,
        tags=(TagSpec("T1", StaticTrajectory(tag_xy)),),
        duration=duration,
        **scenario_kw,
    )
    return run_scenario(scn)


def test_zero_noise_run_localizes_to_under_a_millimeter():
    topo = build_rect_topology()  # offsets and skews, no jitter
    sim = _run(topo, duration=3.0, tag_xy=(2.0, 1.5))
    result = locate_reports(sim.reports, topo)
    truth = sim.truth_blinks
    assert truth.seq.tolist() == list(range(len(truth)))  # one tag: row k is blink k
    fixes = result.fixes
    assert len(fixes) >= 25
    seq = fixes.blink_seq
    assert np.hypot(fixes.x - truth.x[seq], fixes.y - truth.y[seq]).max() < 1e-3


def test_report_order_does_not_matter():
    topo = build_rect_topology(jitter_std=1e-10)
    sim = _run(topo, duration=2.0)
    forward = locate_reports(sim.reports, topo)
    shuffled = report_rows(sim.reports)
    random.Random(7).shuffle(shuffled)
    scrambled = locate_reports(report_columns(shuffled), topo)
    assert same_columns(scrambled.fixes, forward.fixes)
    assert same_columns(scrambled.blinks, forward.blinks)


def test_three_receivers_yield_no_fix_but_a_diagnostic():
    topo = build_ideal_rect_topology()
    sim = _run(topo, duration=1.0, blink_links={"T1": frozenset({"MA1", "SA2", "SA3"})})
    result = locate_reports(sim.reports, topo)
    assert same_columns(result.fixes, fix_table([]))  # an empty table, not a list
    assert result.diagnostics["blinks_too_few_receivers"] == 10


def test_tracker_config_is_honored():
    topo = build_rect_topology(jitter_std=1e-10)
    sim = _run(topo, duration=2.0)
    loose = locate_reports(sim.reports, topo)
    pinned = locate_reports(
        sim.reports,
        topo,
        EngineParams(tracker=TrackerConfig(sigma_accel=1e-3)),
    )
    assert len(pinned.fixes) == len(loose.fixes)
    assert np.array_equal(pinned.fixes.blink_seq, loose.fixes.blink_seq)
    assert not same_columns(pinned.fixes, loose.fixes)


def test_tracker_steps_by_the_engine_blink_period():
    # A tag at 0.2 m/s blinking every 0.2 s: the motion model must step by
    # that period, or the filter reads every move as twice as fast.
    topo = build_rect_topology(jitter_std=1e-10)
    scn = Scenario(
        topology=topo,
        tags=(TagSpec("T1", ConstantVelocityTrajectory((1.0, 2.0), (0.2, 0.0))),),
        duration=20.0,
        blink_period=0.2,
        seed=5,
    )
    result = locate_reports(run_scenario(scn).reports, topo, EngineParams(blink_period=0.2))
    assert len(result.fixes) == 100
    second_half = result.fixes.vx[50:].tolist()
    assert abs(statistics.median(second_half) - 0.2) <= 0.05


def test_diagnostics_count_every_report():
    topo = build_rect_topology()
    sim = _run(topo, duration=1.0)
    result = locate_reports(sim.reports, topo)
    assert result.diagnostics["reports"] == len(sim.reports)
    assert result.diagnostics.get("unknown_anchor_reports", 0) == 0


def test_fixes_carry_tag_and_sequence_metadata():
    topo = build_rect_topology()
    sim = _run(topo, duration=1.0)
    result = locate_reports(sim.reports, topo)
    assert result.fixes.ids == ("T1",) and not result.fixes.tag.any()
    seqs = result.fixes.blink_seq.tolist()
    assert seqs == sorted(seqs)


def test_blinks_below_two_synchronized_receivers_carry_no_pairs_and_are_counted():
    # One receiver: no time difference at all, so the sync drops the blink
    # and counts it without a TDoA.  Two receivers: one pair, which the
    # engine counts as too few for a fix.
    topo = build_ideal_rect_topology()
    for heard, synced, without, too_few in (
        ({"MA1"}, [], 10, 0),
        ({"MA1", "SA2"}, [["MA1", "SA2"]] * 10, 0, 10),
    ):
        sim = _run(topo, duration=1.0, blink_links={"T1": frozenset(heard)})
        result = locate_reports(sim.reports, topo)
        assert same_columns(result.fixes, fix_table([]))
        assert [list(rows) for rows in blink_rows(result.blinks).values()] == synced
        assert result.diagnostics.get("blinks_without_tdoa", 0) == without
        assert result.diagnostics.get("blinks_too_few_receivers", 0) == too_few


def test_fixes_do_not_depend_on_the_origin_of_the_arrivals(hall_run, monkeypatch):
    # The hall's blinks that span cells take a bridging slave as their time
    # base, not their lowest-id receiver.  Counting every blink's arrivals
    # from its highest-id receiver instead of its lowest moves no fix.
    cfg = parse_config(hall_config())
    topo = cfg.scenario.topology
    calls = []
    inner = engine.track
    monkeypatch.setattr(engine, "track", lambda *a: calls.append(a) or inner(*a))
    fixes = locate_reports(hall_run.reports, topo, cfg.engine_params()).fixes
    ((rows, *rest),) = calls
    anchor_at = {xy: anchor for anchor, xy in topo.positions().items()}
    receivers = [[anchor_at[tuple(xy)] for xy in rows.arrivals(i)[0].tolist()]
                 for i in range(len(rows.start))]
    assert any(select_time_base(r, topo) != r[0] for r in receivers)
    assert np.all(rows.meters[rows.start] == 0.0)
    shift = np.zeros_like(rows.meters)
    for lo, n in zip(rows.start.tolist(), rows.size.tolist()):
        shift[lo:lo + n] = rows.meters[lo + n - 1]
    moved = track(dataclasses.replace(rows, meters=rows.meters - shift), *rest)
    assert moved.ids == fixes.ids and np.array_equal(moved.tag, fixes.tag)
    assert np.array_equal(moved.blink_seq, fixes.blink_seq)
    assert len(fixes) == len(rows.start)
    assert np.hypot(fixes.x - moved.x, fixes.y - moved.y).max() <= 1e-7


# ---------------------------------------------------------------------------
# Anchor reboots


@pytest.fixture(scope="module")
def demo_run():
    cfg = parse_config(DEMO_CONFIG)
    return cfg, run_scenario(cfg.scenario)


def _rebooted(reports: ReportColumns, anchor: str, share: float) -> ReportColumns:
    """``reports`` with ``anchor``'s own counter jumped by 0.37 of the wrap,
    modulo the wrap, from the report row ``share`` of the way in on, as a
    reboot that resets it would jump."""
    rows = np.arange(len(reports)) >= int(share * len(reports))
    rows &= reports.anchor == reports.ids.index(anchor)
    ticks = reports.ticks.copy()
    ticks[rows] = (ticks[rows] + 0.37 * TICK_WRAP) % TICK_WRAP
    return dataclasses.replace(reports, ticks=ticks)


@pytest.mark.parametrize("share", [0.3, 0.5])
@pytest.mark.parametrize("anchor", ["MA1", "SA2"])
def test_an_anchor_reboot_costs_one_rejected_window_and_no_fix(demo_run, anchor, share):
    # The master's or a slave's counter jumps once: the sync rejects the one
    # window that spans the jump, counts it, and every blink is still fixed
    # as well as on the clean run (0.0976 m at worst, no window rejected).
    cfg, sim = demo_run
    clean = locate_reports(sim.reports, cfg.scenario.topology, cfg.engine_params())
    assert "rejected_windows" not in clean.diagnostics
    result = locate_reports(_rebooted(sim.reports, anchor, share), cfg.scenario.topology,
                            cfg.engine_params())
    _, errors = fix_errors(result.fixes, sim.truth_blinks)
    assert len(result.fixes) == len(errors) == len(sim.truth_blinks) == 600
    assert errors.max() < 0.1
    assert result.diagnostics["rejected_windows"] == 1
