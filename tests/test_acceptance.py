"""Acceptance gate: nine system-level checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line (bypassing pytest capture, so
the verdicts always reach the terminal) and then asserts, so a red run
still shows every criterion's measured numbers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from uwb_rtls.cli import fixes_to_csv
from uwb_rtls.clock import ClockModel
from uwb_rtls.config import parse_config
from uwb_rtls.constants import SPEED_OF_LIGHT
from uwb_rtls.deploy import hdop_at
from uwb_rtls.engine import locate_reports
from uwb_rtls.metrics import evaluate
from uwb_rtls.protocol import encode_report
from uwb_rtls.simnet import (
    Scenario,
    StaticTrajectory,
    TagSpec,
    WaypointTrajectory,
    run_scenario,
    schedule_ccp_cascade,
)
from uwb_rtls.solver import TrackerConfig, ls_solve, range_diffs, track
from uwb_rtls.timebase import TdoaSet, select_time_base
from uwb_rtls.topology import AnchorConfig, NetworkTopology, UnsyncableAnchorError

RECT_POSITIONS = {
    "MA1": (0.0, 0.0),
    "SA2": (6.0, 0.0),
    "SA3": (6.0, 4.0),
    "SA4": (0.0, 4.0),
}

RECT_IMPERFECTIONS = {
    "MA1": (0.0012, 8e-6),
    "SA2": (-0.0034, -1.2e-5),
    "SA3": (0.0075, 2.1e-5),
    "SA4": (-0.0006, -3.3e-5),
}


@pytest.fixture
def verdict(pytestconfig):
    """Print one uncaptured PASS/FAIL line, then enforce it."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(criterion: str, ok: bool, detail: str) -> None:
        line = f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return emit


def rect_topology(jitter_std: float = 0.0) -> NetworkTopology:
    anchors = tuple(
        AnchorConfig(
            id=aid,
            role="master" if aid == "MA1" else "slave",
            position=pos,
            clock=ClockModel(
                offset=RECT_IMPERFECTIONS[aid][0],
                skew=RECT_IMPERFECTIONS[aid][1],
                jitter_std=jitter_std,
            ),
        )
        for aid, pos in RECT_POSITIONS.items()
    )
    return NetworkTopology(
        anchors=anchors,
        follow={a: frozenset({"MA1"}) for a in RECT_POSITIONS if a != "MA1"},
        master_level={"MA1": 1},
    )


def static_scenario(topo, tag_xy, duration, seed) -> Scenario:
    return Scenario(
        topology=topo,
        tags=(TagSpec("T1", StaticTrajectory(tag_xy)),),
        duration=duration,
        seed=seed,
    )


def tdoa_set_at(tag_xy, ref="MA1", seq=0) -> TdoaSet:
    d = {a: math.dist(tag_xy, p) for a, p in RECT_POSITIONS.items()}
    meas = tuple(
        (a, d[a] - d[ref]) for a in sorted(RECT_POSITIONS) if a != ref
    )
    return TdoaSet(tag_id="T1", blink_seq=seq, reference_anchor=ref, measurements=meas)


# ---------------------------------------------------------------------------


def test_criterion_1_sync_exactness_without_jitter(verdict):
    # Imperfect but noiseless clocks: synchronized TDoAs must match pure
    # geometry to < 1 ps and fixes the true position to < 1 mm, in < 5 s.
    rng = np.random.default_rng(7)
    anchors = tuple(
        AnchorConfig(
            id=aid,
            role="master" if aid == "MA1" else "slave",
            position=pos,
            clock=ClockModel(
                offset=float(rng.uniform(-8e-3, 8e-3)),
                skew=float(rng.uniform(-40e-6, 40e-6)),
            ),
        )
        for aid, pos in RECT_POSITIONS.items()
    )
    topo = NetworkTopology(
        anchors=anchors,
        follow={a: frozenset({"MA1"}) for a in RECT_POSITIONS if a != "MA1"},
        master_level={"MA1": 1},
    )
    tag = (2.0, 1.5)
    start = time.perf_counter()
    sim = run_scenario(static_scenario(topo, tag, duration=30.0, seed=1))
    res = locate_reports(sim.reports, topo)
    wall = time.perf_counter() - start

    def true_tdoa(a, b):
        return (math.dist(RECT_POSITIONS[a], tag) - math.dist(RECT_POSITIONS[b], tag)) / SPEED_OF_LIGHT

    worst_t = max(abs(s.tdoa_sync - true_tdoa(s.anchor_a, s.anchor_b)) for s in res.synced)
    worst_p = max(math.dist((f.x, f.y), tag) for f in res.fixes)
    ok = worst_t < 1e-12 and worst_p < 1e-3 and wall < 5.0 and len(res.fixes) >= 290
    verdict(
        "criterion 1: sync exactness",
        ok,
        f"worst tdoa {worst_t * 1e12:.4f} ps (<1), worst fix {worst_p * 1e3:.4f} mm (<1), "
        f"{len(res.fixes)} fixes, {wall:.1f} s (<5)",
    )


def test_criterion_2_sync_stability_under_jitter(verdict):
    # Ten minutes with 100 ps timestamp jitter: every smoothed pair stream
    # must hold a standard deviation <= 0.25 ns, all inside 30 s of compute.
    topo = rect_topology(jitter_std=1e-10)
    start = time.perf_counter()
    sim = run_scenario(static_scenario(topo, (2.0, 1.5), duration=600.0, seed=5))
    res = locate_reports(sim.reports, topo)
    summary = evaluate(res.fixes, sim.truth_blinks, res.synced)
    wall = time.perf_counter() - start
    stds = summary.tdoa_std_per_pair
    worst = max(stds.values())
    ok = len(stds) == 6 and worst <= 0.25e-9 and wall < 30.0
    verdict(
        "criterion 2: sync stability",
        ok,
        f"{len(stds)} pairs, worst smoothed std {worst * 1e9:.4f} ns (<=0.25), "
        f"{wall:.1f} s (<30)",
    )


def test_criterion_3_static_accuracy(verdict):
    # Five static placements, 600 blinks each under 100 ps jitter: settled
    # p95 horizontal error < 10 cm at every placement, inside 60 s.
    topo = rect_topology(jitter_std=1e-10)
    placements = [(3.0, 2.0), (1.0, 1.0), (5.0, 3.0), (2.0, 3.2), (4.5, 0.8)]
    start = time.perf_counter()
    p95s = []
    for i, p in enumerate(placements):
        sim = run_scenario(static_scenario(topo, p, duration=60.0, seed=100 + i))
        res = locate_reports(sim.reports, topo)
        p95s.append(evaluate(res.fixes, sim.truth_blinks).fix_p95_error)
    wall = time.perf_counter() - start
    worst = max(p95s)
    ok = worst < 0.10 and wall < 60.0
    verdict(
        "criterion 3: static accuracy",
        ok,
        f"p95 per placement {[f'{v * 100:.1f}' for v in p95s]} cm, worst "
        f"{worst * 100:.1f} cm (<10), {wall:.1f} s (<60)",
    )


def test_criterion_4_tracking_a_moving_tag(verdict):
    # A tag looping a 12 m rectangle at 1 m/s under 100 ps jitter: whole
    # track RMSE (convergence included) < 30 cm, inside 60 s.
    topo = rect_topology(jitter_std=1e-10)
    corners = [(1.0, 1.0), (5.0, 1.0), (5.0, 3.0), (1.0, 3.0)]
    points = []
    t = 0.0
    for _lap in range(6):
        for i, corner in enumerate(corners):
            points.append((t, corner))
            nxt = corners[(i + 1) % 4]
            t += abs(nxt[0] - corner[0]) + abs(nxt[1] - corner[1])
    points.append((t, corners[0]))
    scn = Scenario(
        topology=topo,
        tags=(TagSpec("T1", WaypointTrajectory(tuple(points))),),
        duration=min(t, 60.0),
        seed=77,
    )
    start = time.perf_counter()
    sim = run_scenario(scn)
    res = locate_reports(sim.reports, topo)
    summary = evaluate(res.fixes, sim.truth_blinks)
    wall = time.perf_counter() - start
    ok = summary.track_rmse < 0.30 and wall < 60.0
    verdict(
        "criterion 4: moving-tag tracking",
        ok,
        f"track rmse {summary.track_rmse * 100:.1f} cm (<30), "
        f"{len(res.fixes)} fixes, {wall:.1f} s (<60)",
    )


def test_criterion_5_multi_master_cascade(verdict):
    # One primary and three secondaries on staggered slots: the cascade
    # schedule stays collision-free, TDoAs across different cells match
    # geometry to < 1 ps, and a break in the master chain is rejected.
    rng = np.random.default_rng(11)

    def mk(aid, role, pos):
        return AnchorConfig(
            id=aid, role=role, position=pos,
            clock=ClockModel(
                offset=float(rng.uniform(-5e-3, 5e-3)),
                skew=float(rng.uniform(-30e-6, 30e-6)),
            ),
        )

    pos = {
        "MA1": (10.0, 10.0),
        "MA2": (30.0, 10.0),
        "MA3": (10.0, 30.0),
        "MA4": (30.0, 30.0),
        "SA1": (2.0, 2.0),
        "SA2": (20.0, 10.0),
        "SA5": (38.0, 2.0),
        "SA6": (38.0, 18.0),
    }
    anchors = tuple(mk(a, "master" if a.startswith("MA") else "slave", p) for a, p in pos.items())
    topo = NetworkTopology(
        anchors=anchors,
        follow={
            "MA2": frozenset({"MA1"}),
            "MA3": frozenset({"MA1"}),
            "MA4": frozenset({"MA1"}),
            "SA1": frozenset({"MA1"}),
            "SA2": frozenset({"MA1", "MA2"}),
            "SA5": frozenset({"MA2"}),
            "SA6": frozenset({"MA2"}),
        },
        master_level={"MA1": 1, "MA2": 2, "MA3": 2, "MA4": 2},
        lag_slots={"MA2": 1, "MA3": 2, "MA4": 3},
    )

    sched = schedule_ccp_cascade(topo, round_start=0.0)
    times = sorted(t for _, t in sched)
    min_gap = min(b - a for a, b in zip(times, times[1:]))
    schedule_ok = len(sched) == 4 and min_gap >= 0.005

    tag = (24.0, 6.0)
    scn = Scenario(
        topology=topo,
        tags=(TagSpec("T1", StaticTrajectory(tag)),),
        duration=12.0,
        seed=3,
        ccp_links={
            "MA1": frozenset({"MA2", "MA3", "MA4", "SA1", "SA2"}),
            "MA2": frozenset({"SA2", "SA5", "SA6"}),
            "MA3": frozenset(),
            "MA4": frozenset(),
        },
        blink_links={"T1": frozenset({"SA1", "SA2", "SA5", "SA6"})},
    )
    sim = run_scenario(scn)
    res = locate_reports(sim.reports, topo)

    def true_tdoa(a, b):
        return (math.dist(pos[a], tag) - math.dist(pos[b], tag)) / SPEED_OF_LIGHT

    cell = {"SA1": 1, "SA2": 0, "SA5": 2, "SA6": 2}  # 0 = hears both masters
    worst_cross = worst_any = 0.0
    n_cross = 0
    for s in res.synced:
        err = abs(s.tdoa_sync - true_tdoa(s.anchor_a, s.anchor_b))
        worst_any = max(worst_any, err)
        if 0 not in (cell[s.anchor_a], cell[s.anchor_b]) and cell[s.anchor_a] != cell[s.anchor_b]:
            worst_cross = max(worst_cross, err)
            n_cross += 1

    try:
        NetworkTopology(
            anchors=anchors + (mk("MA5", "master", (50.0, 10.0)), mk("SA9", "slave", (55.0, 5.0))),
            follow={**dict(topo.follow), "SA9": frozenset({"MA5"})},
            master_level={**dict(topo.master_level), "MA5": 3},
            lag_slots=dict(topo.lag_slots),
        )
        broken_chain_ok = False
    except UnsyncableAnchorError as exc:
        broken_chain_ok = set(exc.anchors) == {"MA5", "SA9"}

    ok = schedule_ok and n_cross > 0 and worst_cross < 1e-12 and worst_any < 1e-12 and broken_chain_ok
    verdict(
        "criterion 5: multi-master cascade",
        ok,
        f"schedule gap {min_gap * 1e3:.1f} ms (>=5), {n_cross} cross-cell tdoas, worst "
        f"{worst_cross * 1e12:.4f} ps (<1), any {worst_any * 1e12:.4f} ps, "
        f"broken chain detected {broken_chain_ok}",
    )


def test_criterion_6_time_base_selection(verdict):
    # The reference anchor rule, on one single-master and one two-cell
    # network: master when available, the cell's master inside one cell,
    # and the bridging slave when receivers span both cells.
    single = rect_topology()
    two_cell = NetworkTopology(
        anchors=(
            AnchorConfig(id="MA1", role="master", position=(0.0, 0.0)),
            AnchorConfig(id="MA2", role="master", position=(20.0, 0.0)),
            AnchorConfig(id="SA1", role="slave", position=(2.0, 4.0)),
            AnchorConfig(id="SA2", role="slave", position=(10.0, 0.0)),
            AnchorConfig(id="SA3", role="slave", position=(6.0, 6.0)),
            AnchorConfig(id="SA5", role="slave", position=(18.0, 4.0)),
            AnchorConfig(id="SA6", role="slave", position=(24.0, 4.0)),
            AnchorConfig(id="SA7", role="slave", position=(24.0, -4.0)),
        ),
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
    got = (
        select_time_base({"MA1", "SA2", "SA3", "SA4"}, single),
        select_time_base({"MA2", "SA5", "SA6", "SA7"}, two_cell),
        select_time_base({"SA1", "SA2", "SA3", "SA5"}, two_cell),
    )
    want = ("MA1", "MA2", "SA2")
    ok = got == want
    verdict(
        "criterion 6: time-base selection",
        ok,
        f"single-master -> {got[0]}, one-cell -> {got[1]}, spanning -> {got[2]} "
        f"(want {'/'.join(want)})",
    )


def test_criterion_7_solver_correctness(verdict):
    # Analytic Jacobian against central differences at 100 random states,
    # least squares recovering clean truth to 0.1 mm, and the filter with
    # zero process noise settling onto the least-squares point to < 1 mm.
    xy = np.array([RECT_POSITIONS[a] for a in ["MA1", "SA2", "SA3", "SA4"]])

    def geometry(q):
        h, grad, _ = range_diffs(q[:1], q[1:], xy, gradient=True)
        return h[:, 0], grad[:, :, 0].T

    rng = np.random.default_rng(42)
    eps = 1e-6
    jac_worst = 0.0
    checked = 0
    while checked < 100:
        p = rng.uniform((-2.0, -2.0), (8.0, 6.0))
        if min(math.dist(p, q) for q in RECT_POSITIONS.values()) < 0.05:
            continue
        checked += 1
        _, rows = geometry(p)
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = eps
            hp, _ = geometry(p + step)
            hm, _ = geometry(p - step)
            numeric = (hp - hm) / (2 * eps)
            scale = np.maximum(np.abs(rows[:, axis]), 1.0)
            jac_worst = max(jac_worst, float(np.max(np.abs(rows[:, axis] - numeric) / scale)))
    jac_ok = jac_worst <= 1e-6

    ls_worst = max(
        math.dist(ls_solve(tdoa_set_at(t), RECT_POSITIONS), t)
        for t in [(2.0, 1.5), (0.5, 3.5), (5.9, 0.1), (3.0, 2.0)]
    )
    ls_ok = ls_worst <= 1e-4

    truth = (3.2, 1.7)
    sets = [tdoa_set_at(truth, seq=i) for i in range(200)]
    fixes = track(sets, RECT_POSITIONS, TrackerConfig(sigma_accel=0.0))
    anchor_point = ls_solve(sets[0], RECT_POSITIONS)
    ekf_gap = math.dist((fixes[-1].x, fixes[-1].y), anchor_point)
    ekf_ok = ekf_gap <= 1e-3

    ok = jac_ok and ls_ok and ekf_ok
    verdict(
        "criterion 7: solver correctness",
        ok,
        f"jacobian rel err {jac_worst:.2e} (<=1e-6), ls err {ls_worst * 1e3:.4f} mm "
        f"(<=0.1), ekf vs ls {ekf_gap * 1e3:.4f} mm (<=1)",
    )


def test_criterion_8_dop_predicts_monte_carlo_error(verdict):
    # c * sigma_t * HDoP must predict the Monte-Carlo positioning std
    # within a factor of two at 20 interior points, and HDoP itself must be
    # invariant under rigid motions of the whole deployment.
    ref = "MA1"
    others = sorted(a for a in RECT_POSITIONS if a != ref)
    sigma_t = 1e-10
    reps = 500
    rng = np.random.default_rng(99)
    ratios = []
    for _ in range(20):
        p = (float(rng.uniform(0.5, 5.5)), float(rng.uniform(0.5, 3.5)))
        predicted = SPEED_OF_LIGHT * sigma_t * hdop_at(p, RECT_POSITIONS, ref)
        dists = {a: math.dist(q, p) for a, q in RECT_POSITIONS.items()}
        errs = []
        for _rep in range(reps):
            noise = {a: rng.normal(0.0, sigma_t) for a in RECT_POSITIONS}
            meas = tuple(
                (a, (dists[a] - dists[ref]) + SPEED_OF_LIGHT * (noise[a] - noise[ref]))
                for a in others
            )
            ts = TdoaSet(tag_id="T", blink_seq=0, reference_anchor=ref, measurements=meas)
            est = ls_solve(ts, RECT_POSITIONS, init=p)
            errs.append(math.dist(est, p))
        ratios.append(math.sqrt(float(np.mean(np.square(errs)))) / predicted)
    mc_ok = all(0.5 <= r <= 2.0 for r in ratios)

    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)

    def move(q):
        return (c * q[0] - s * q[1] + 11.0, s * q[0] + c * q[1] - 4.0)

    moved = {k: move(v) for k, v in RECT_POSITIONS.items()}
    rigid_worst = max(
        abs(hdop_at(move(p), moved, ref) - hdop_at(p, RECT_POSITIONS, ref))
        / hdop_at(p, RECT_POSITIONS, ref)
        for p in [(2.0, 1.5), (1.0, 3.5), (5.5, 0.5)]
    )
    rigid_ok = rigid_worst <= 1e-9

    ok = mc_ok and rigid_ok
    verdict(
        "criterion 8: error-amplification consistency",
        ok,
        f"mc/predicted ratio [{min(ratios):.3f}, {max(ratios):.3f}] (within [0.5, 2.0]), "
        f"rigid-motion rel err {rigid_worst:.1e} (<=1e-9)",
    )


DETERMINISM_CONFIG = {
    "anchors": [
        {"id": "MA1", "role": "master", "position": [0.0, 0.0], "level": 1,
         "clock": {"offset": 0.0012, "skew": 8e-6, "jitter_std": 1e-10}},
        {"id": "SA2", "role": "slave", "position": [6.0, 0.0], "follows": "MA1",
         "clock": {"offset": -0.0034, "skew": -1.2e-5, "jitter_std": 1e-10}},
        {"id": "SA3", "role": "slave", "position": [6.0, 4.0], "follows": "MA1",
         "clock": {"offset": 0.0075, "skew": 2.1e-5, "jitter_std": 1e-10}},
        {"id": "SA4", "role": "slave", "position": [0.0, 4.0], "follows": "MA1",
         "clock": {"offset": -0.0006, "skew": -3.3e-5, "jitter_std": 1e-10}},
    ],
    "tags": [{"id": "T1", "trajectory": {"kind": "static", "position": [2.0, 1.5]}}],
    "duration": 20.0,
    "seed": 42,
}


def test_criterion_9_bitwise_determinism(verdict):
    # The same configuration and seed must reproduce the run bit for bit:
    # radio traffic, fixes, and the evaluation summary.
    def one_run():
        cfg = parse_config(json.loads(json.dumps(DETERMINISM_CONFIG)))
        sim = run_scenario(cfg.scenario)
        res = locate_reports(sim.reports, cfg.scenario.topology)
        summary = evaluate(res.fixes, sim.truth_blinks, res.synced, warmup=cfg.warmup)
        reports_text = "".join(encode_report(r) + "\n" for r in sim.reports)
        return reports_text, fixes_to_csv(res.fixes), summary.to_json()

    first = one_run()
    second = one_run()
    same = tuple(a == b for a, b in zip(first, second))
    ok = all(same)
    verdict(
        "criterion 9: determinism",
        ok,
        f"reports identical {same[0]}, fixes identical {same[1]}, "
        f"summary identical {same[2]} ({len(first[0].splitlines())} report lines)",
    )
