"""Run evaluation: error statistics and smoothed sync stability."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from uwb_rtls.cli import errors_csv
from uwb_rtls.engine import locate_reports
from uwb_rtls.metrics import (
    EmptyEvalError,
    evaluate,
    fix_errors,
    pair_key,
    smoothed_tdoa_streams,
)
from uwb_rtls.simnet import Scenario, StaticTrajectory, TagSpec, run_scenario
from uwb_rtls.wcs import WcsParams

from conftest import arrival_table, build_rect_topology, fix_table, truth_columns

CCP_PERIOD = 0.15


def _fix(tag, seq, x, y):
    """A fix row, as ``fix_table`` takes it."""
    return (tag, seq, x, y, 0.0, 0.0, 0.01, 0.0)


def _truth(tag, seq, x, y):
    """A truth row, as ``truth_columns`` takes it."""
    return (tag, seq, seq * 0.1, x, y)


def test_known_errors_give_known_statistics():
    # Errors 0.00, 0.01, ..., 0.99 m; with warmup=50 the settled half is
    # 0.50..0.99 and numpy is the percentile oracle.
    fixes = [_fix("T1", i, i * 0.01, 0.0) for i in range(100)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(100)]
    s = evaluate(fix_table(fixes), truth_columns(truth), warmup=50)
    settled = np.arange(50, 100) * 0.01
    assert s.fix_rmse == pytest.approx(math.sqrt(np.mean(settled**2)), rel=1e-12)
    assert s.fix_p95_error == pytest.approx(np.percentile(settled, 95), rel=1e-12)
    everything = np.arange(100) * 0.01
    assert s.track_rmse == pytest.approx(math.sqrt(np.mean(everything**2)), rel=1e-12)
    assert s.availability == 1.0


def test_warmup_is_dropped_per_tag():
    # T1's only large error is inside its own warmup; a global drop of the
    # first 5 samples would instead let T2's early junk through.
    fixes = [_fix("T1", i, 1.0 if i < 5 else 0.0, 0.0) for i in range(10)]
    fixes += [_fix("T2", i, 1.0 if i < 5 else 0.0, 0.0) for i in range(10)]
    truth = [_truth(t, i, 0.0, 0.0) for t in ("T1", "T2") for i in range(10)]
    s = evaluate(fix_table(fixes), truth_columns(truth), warmup=5)
    assert s.fix_rmse == 0.0
    assert s.track_rmse > 0.0


def test_all_inside_warmup_falls_back_to_everything():
    fixes = [_fix("T1", i, 0.1, 0.0) for i in range(3)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(3)]
    s = evaluate(fix_table(fixes), truth_columns(truth), warmup=50)
    assert s.fix_rmse == pytest.approx(0.1)


def test_availability_counts_missing_blinks():
    fixes = [_fix("T1", i, 0.0, 0.0) for i in range(6)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(10)]
    assert evaluate(fix_table(fixes), truth_columns(truth), warmup=0).availability == 0.6


def test_no_overlap_raises():
    with pytest.raises(EmptyEvalError):
        evaluate(fix_table([_fix("T1", 0, 0.0, 0.0)]),
                 truth_columns([_truth("T2", 0, 0.0, 0.0)]))
    with pytest.raises(EmptyEvalError):
        evaluate(fix_table([]), truth_columns([_truth("T1", 0, 0.0, 0.0)]))


def test_input_order_does_not_change_the_summary():
    rng = random.Random(5)
    fixes = [_fix("T1", i, 0.01 * rng.random(), 0.0) for i in range(40)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(40)]
    synced = [
        (("T1", i), {"MA1": (1e-9 + 1e-12 * rng.random(), 0, 1.0),
                     "SA2": (0.0, 0, 1.0)})
        for i in range(40)
    ]
    base = evaluate(fix_table(fixes), truth_columns(truth), arrival_table(dict(synced)),
                    CCP_PERIOD, warmup=10)
    for seq in (fixes, truth, synced):
        rng.shuffle(seq)
    shuffled = evaluate(fix_table(fixes), truth_columns(truth), arrival_table(dict(synced)),
                        CCP_PERIOD, warmup=10)
    assert shuffled == base


def test_smoothing_tightens_a_noisy_stream():
    rng = np.random.default_rng(11)
    raw = 5e-9 + rng.normal(0.0, 2e-10, size=400)
    blinks = arrival_table({
        ("T1", i): {"MA1": (float(v), 0, 1.0), "SA2": (0.0, 0, 1.0)}
        for i, v in enumerate(raw)
    })
    streams = dict(smoothed_tdoa_streams(blinks, CCP_PERIOD))
    key = pair_key("MA1", "SA2")
    assert set(streams) == {key}
    smoothed = np.array(streams[key][50:])
    assert smoothed.std() < 0.2 * raw[50:].std()
    assert abs(smoothed.mean() - 5e-9) < 5e-11


def test_evaluate_smooths_with_its_params():
    # A process variance far above the measurement variance makes the
    # smoother follow every sample, so the pair's std is the raw one.
    rng = np.random.default_rng(11)
    raw = 5e-9 + rng.normal(0.0, 2e-10, size=400)
    blinks = arrival_table({
        ("T1", i): {"MA1": (float(v), 0, 1.0), "SA2": (0.0, 0, 1.0)}
        for i, v in enumerate(raw)
    })
    fixes = [_fix("T1", i, 0.0, 0.0) for i in range(400)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(400)]

    def std(**params):
        s = evaluate(fix_table(fixes), truth_columns(truth), blinks, CCP_PERIOD,
                     params=WcsParams(**params))
        return s.tdoa_std_per_pair["MA1|SA2"]

    assert std() < 0.2 * raw[50:].std()
    assert std(process_var=1e-16) == pytest.approx(raw[50:].std(), rel=0.01)


def _scalar_step(state, variance, measurement, process_var, measurement_var):
    """The reference smoother step on bare floats: predict, then update; an
    infinite prior adopts the measurement, a non-finite one is skipped."""
    if not math.isfinite(measurement):
        return state, variance
    variance = variance + process_var
    if math.isinf(variance):
        return measurement, measurement_var
    gain = variance / (variance + measurement_var)
    return state + gain * (measurement - state), (1.0 - gain) * variance


def test_streams_equal_smoothing_each_pair_of_the_pair_view():
    # Reference: every anchor pair's scalar TDoA, blink by blink in (tag_id,
    # blink_seq) order, through the scalar step.  Anchors drop out of
    # blinks and arrivals straddle CCP seqs, on two tags.
    rng = random.Random(9)
    anchors = ["MA1", "SA10", "SA2", "SA3"]
    items = []
    for tag in ("T1", "T2"):
        for seq in range(80):
            heard = [a for a in anchors if rng.random() < 0.7]
            if len(heard) >= 2:
                items.append(((tag, seq), {
                    a: (rng.uniform(-0.07, 0.07), seq + rng.randint(0, 1),
                        1.0 + 1e-5 * rng.random())
                    for a in heard
                }))
    rng.shuffle(items)
    blinks = dict(items)

    by_pair: dict[str, list[float]] = {}
    for key in sorted(blinks):
        arrivals = blinks[key]
        ids = sorted(arrivals)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                (offset_a, seq_a, _), (offset_b, seq_b, _) = arrivals[a], arrivals[b]
                tdoa = (offset_a - offset_b) + (seq_a - seq_b) * CCP_PERIOD
                by_pair.setdefault(pair_key(a, b), []).append(tdoa)
    defaults = WcsParams()
    want = {}
    for key, tdoas in sorted(by_pair.items()):
        state, variance, out = 0.0, math.inf, []
        for tdoa in tdoas:
            state, variance = _scalar_step(
                state, variance, tdoa, defaults.process_var, defaults.measurement_var
            )
            out.append(state)
        want[key] = out

    streams = sorted(smoothed_tdoa_streams(arrival_table(blinks), CCP_PERIOD))
    assert streams == list(want.items())  # bit for bit, in key order
    assert len(want) == 6


def test_errors_csv_lists_matched_fixes_in_order():
    fixes = [_fix("T1", 1, 3.0, 4.0), _fix("T1", 0, 0.0, 0.0), _fix("T9", 7, 0.0, 0.0)]
    truth = [_truth("T1", 0, 0.0, 0.0), _truth("T1", 1, 0.0, 0.0)]
    text = errors_csv(evaluate(fix_table(fixes), truth_columns(truth), warmup=0).errors)
    assert text == errors_csv(fix_errors(fix_table(fixes), truth_columns(truth)))
    lines = text.splitlines()
    assert lines[0] == "tag_id,blink_seq,err_m"
    assert lines[1] == "T1,0,0.0"
    assert lines[2] == "T1,1,5.0"
    assert len(lines) == 3  # the unmatched T9 fix is dropped


def test_fixes_match_truth_as_a_lookup_per_fix_does():
    # The reference: a dict of the first truth row per (tag_id, seq), one
    # lookup and one math.hypot per fix.  Fixes of unknown tags or seqs,
    # truth without fixes and a truth blink given twice are all in the mix.
    rng = random.Random(3)
    truth = [_truth(f"T{rng.randrange(4)}", rng.randrange(60), rng.uniform(-9, 9),
                    rng.uniform(-9, 9)) for _ in range(300)]
    fixes = [_fix(f"T{rng.randrange(5)}", rng.randrange(70), rng.uniform(-9, 9),
                  rng.uniform(-9, 9)) for _ in range(200)]
    first: dict = {}
    for tag, seq, _, x, y in truth:
        first.setdefault((tag, seq), (x, y))
    want = sorted((tag, seq, math.hypot(x - first[tag, seq][0], y - first[tag, seq][1]))
                  for tag, seq, x, y, *_ in fixes if (tag, seq) in first)
    matched, errors = fix_errors(fix_table(fixes), truth_columns(truth))
    assert repr(list(zip(map(matched.ids.__getitem__, matched.tag.tolist()),
                         matched.seq.tolist(), errors.tolist()))) == repr(want)
    # The matched truth rows are each blink's first row.
    assert [first[tag, seq] for tag, seq, _ in want] == list(zip(matched.x.tolist(),
                                                                 matched.y.tolist()))
    summary = evaluate(fix_table(fixes), truth_columns(truth), warmup=0)
    assert summary.availability == len(want) / len(first)


def test_summary_json_is_stable_and_round_trips():
    fixes = [_fix("T1", i, 0.0, 0.0) for i in range(3)]
    truth = [_truth("T1", i, 0.0, 0.0) for i in range(3)]
    s = evaluate(fix_table(fixes), truth_columns(truth), warmup=0)
    text = s.to_json()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert set(payload) == {
        "tdoa_std_per_pair", "fix_rmse", "fix_p95_error", "track_rmse", "availability",
    }
    assert payload["fix_rmse"] == 0.0


def test_full_pipeline_regression_is_frozen():
    # One end-to-end number lock: same scenario, same seed, same statistics.
    topo = build_rect_topology(jitter_std=1e-10)
    scn = Scenario(
        topology=topo,
        tags=(TagSpec("T1", StaticTrajectory((2.0, 1.5))),),
        duration=60.0,
        seed=42,
    )
    sim = run_scenario(scn)
    res = locate_reports(sim.reports, topo)
    s = evaluate(res.fixes, sim.truth_blinks, res.blinks, scn.ccp_period)
    assert s.availability == 1.0
    assert s.fix_rmse == pytest.approx(0.036098648304548904, rel=1e-6)
    assert s.fix_p95_error == pytest.approx(0.06205463538251252, rel=1e-6)
    assert s.track_rmse == pytest.approx(0.03612956369237898, rel=1e-6)
    assert s.tdoa_std_per_pair["MA1|SA2"] == pytest.approx(1.7015993860788218e-11, rel=1e-6)
    assert s.tdoa_std_per_pair["SA3|SA4"] == pytest.approx(1.830034708320594e-11, rel=1e-6)
    assert set(s.tdoa_std_per_pair) == {
        "MA1|SA2", "MA1|SA3", "MA1|SA4", "SA2|SA3", "SA2|SA4", "SA3|SA4",
    }
