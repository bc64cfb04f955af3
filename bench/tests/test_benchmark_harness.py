"""Self-tests of the benchmark harness (not of uwb_rtls itself)."""

from __future__ import annotations

import random
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from tracing import Span, Tracer, Wrap, layer_metrics, self_times  # noqa: E402
from workloads import CONFIGS, WRAP_SECONDS, hall_anchors  # noqa: E402


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_config_generator_is_deterministic_per_seed(workload):
    make = CONFIGS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("workload", sorted(CONFIGS))
def test_generated_configs_load(workload):
    from uwb_rtls.config import parse_config

    cfg = parse_config(CONFIGS[workload](3))
    assert cfg.scenario.duration > WRAP_SECONDS


def test_hall_slaves_follow_every_master_in_range():
    anchors = hall_anchors(random.Random(0))
    assert len(anchors) == 36
    assert sum(a["role"] == "master" for a in anchors) == 4
    assert any(len(a.get("follows", [])) >= 2 for a in anchors if a["role"] == "slave")


def test_failed_fixes_counts_missing_and_far_fixes():
    truth = {("T1", 0): (0.0, 0.0), ("T1", 1): (1.0, 0.0), ("T1", 2): (2.0, 0.0),
             ("T1", 3): (3.0, 0.0)}
    fixes = {
        ("T1", 0): (0.0, 0.0),  # exact
        ("T1", 1): (1.0, 1.5),  # 1.5 m off: failed
        ("T1", 3): (3.0, 1.0),  # exactly 1 m off: not failed
        ("T9", 0): (0.0, 0.0),  # no ground truth: ignored
    }  # ("T1", 2) has no fix: failed
    assert checks.failed_fixes(truth, fixes) == 2


def test_errors_csv_mismatches(tmp_path):
    truth = {("T1", 0): (0.0, 0.0), ("T1", 1): (1.0, 0.0)}
    fixes = {("T1", 0): (0.0, 3.0), ("T1", 1): (1.0, 0.5)}
    path = tmp_path / "errors.csv"
    path.write_text("tag_id,blink_seq,err_m\nT1,0,3.0\nT1,1,0.5\n")
    assert checks.errors_csv_mismatches(path, truth, fixes) == 0
    path.write_text("tag_id,blink_seq,err_m\nT1,0,3.1\n")
    assert checks.errors_csv_mismatches(path, truth, fixes) == 2


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, True),
        Span("a", 1.0, 4.0, 0, True),
        Span("a.leaf", 2.0, 3.0, 1, True),
        Span("b", 5.0, 6.5, 0, True),
        Span("c", 6.0, 7.0, 0, True),  # overlaps b: the overlap counts once
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 1.0])


def test_tracer_records_spans_counts_and_restores():
    mod = types.ModuleType("fake_layer")
    mod.work = lambda n: list(range(n))
    original = mod.work
    tracer = Tracer()
    assert tracer.wrap(mod, "work", "fake.work", lambda r: {"fake.items": len(r)})
    with tracer.span("stage"):
        mod.work(3)
        mod.work(2)
    tracer.uninstall()
    assert mod.work is original
    spans = tracer.closed_spans()
    assert [s.name for s in spans] == ["stage", "fake.work", "fake.work"]
    assert [s.parent for s in spans] == [-1, 0, 0]
    assert tracer.counts == {"fake.items": 5}


def test_missing_wrapped_name_is_absent():
    mod = types.ModuleType("fake_layer")
    tracer = Tracer()
    assert not tracer.wrap(mod, "renamed_away", "fake.gone")
    tracer.install((Wrap("no_such_module_anywhere", "f", "fake.module_gone"),))
    assert tracer.absent == ["fake.gone", "fake.module_gone"]
    metrics = layer_metrics(tracer.closed_spans(), tracer.counts, tracer.absent)
    assert metrics["trace.absent_layers"]["value"] == 2
    assert metrics["solver.cold_start_calls"]["value"] == 0


def test_hdop_recompute_matches_program():
    from uwb_rtls.deploy import hdop_at

    anchors = {"A": (0.0, 0.0), "B": (10.0, 0.0), "C": (10.0, 8.0), "D": (0.0, 8.0),
               "E": (5.0, 9.0)}
    ids = sorted(anchors)
    pts = np.array([(1.0, 1.0), (5.0, 4.0), (9.5, 7.0), (12.0, -3.0)])
    got = checks.hdop(pts, np.array([anchors[a] for a in ids]), ids.index("C"))
    want = [hdop_at(tuple(p), anchors, "C") for p in pts]
    assert got == pytest.approx(want, rel=1e-12)
