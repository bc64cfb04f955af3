"""Command-line interface: subcommands, file formats, exit codes."""

from __future__ import annotations

import dataclasses
import json

import pytest

from uwb_rtls.cli import (
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_IO,
    EXIT_OK,
    fixes_to_csv,
    main,
    read_fixes_csv,
    read_reports,
    read_synced_csv,
    read_truth,
    synced_to_csv,
)
from uwb_rtls.config import load_config
from uwb_rtls.engine import locate_reports
from uwb_rtls.protocol import encode_report
from uwb_rtls.simnet import run_scenario
from uwb_rtls.solver import Fix
from uwb_rtls.wcs import SyncedTdoa

CONFIG = {
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
    "duration": 5.0,
    "seed": 3,
    "eval": {"warmup": 10},
    "area": [[0.0, 0.0], [6.0, 4.0]],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_fixes_csv_round_trips_exactly(tmp_path):
    fixes = [
        Fix(tag_id="T1", blink_seq=3, x=2.0000000001, y=1.5, vx=-0.25, vy=0.125,
            pos_std=0.03125, residual_norm=0.0),
        Fix(tag_id="T2", blink_seq=4, x=-1.0, y=0.1, vx=0.0, vy=0.0,
            pos_std=0.5, residual_norm=0.0),
    ]
    path = tmp_path / "fixes.csv"
    path.write_text(fixes_to_csv(fixes))
    assert read_fixes_csv(path) == (fixes, 0)


def test_synced_csv_round_trips_exactly(tmp_path):
    synced = [
        SyncedTdoa(anchor_a="MA1", anchor_b="SA2", tag_id="T1", blink_seq=9,
                   tdoa_sync=1.0000251204e-9, k_used=0.9999901),
    ]
    path = tmp_path / "synced.csv"
    path.write_text(synced_to_csv(synced))
    assert read_synced_csv(path) == (synced, 0)


def test_simulate_locate_eval_pipeline(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert (out / "reports.jsonl").exists()
    assert (out / "truth.jsonl").exists()

    assert main(["locate", "--config", str(config_path), "--out", str(out),
                 "--reports", str(out / "reports.jsonl")]) == EXIT_OK
    assert (out / "fixes.csv").exists()
    assert (out / "synced.csv").exists()

    assert main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"),
                 "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["availability"] == 1.0
    assert payload["fix_rmse"] < 0.3
    assert json.loads((out / "summary.json").read_text()) == payload
    assert (out / "errors.csv").read_text().startswith("tag_id,blink_seq,err_m")


def test_file_pipeline_matches_the_library_exactly(tmp_path, config_path):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])

    cfg = load_config(config_path)
    sim = run_scenario(cfg.scenario)
    from uwb_rtls.cli import _engine_params, _eval

    result = locate_reports(sim.reports, cfg.scenario.topology, _engine_params(cfg))
    assert (out / "fixes.csv").read_text() == fixes_to_csv(result.fixes)
    assert (out / "synced.csv").read_text() == synced_to_csv(result.synced)

    # Eval from the files and eval from the in-memory pair view agree.
    main(["eval", "--config", str(config_path), "--out", str(out),
          "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
          "--synced", str(out / "synced.csv")])
    lib = tmp_path / "lib"
    _eval(cfg, result.fixes, sim.truth_blinks, result.synced, lib)
    assert (out / "summary.json").read_bytes() == (lib / "summary.json").read_bytes()
    assert (out / "errors.csv").read_bytes() == (lib / "errors.csv").read_bytes()


def test_seed_override_changes_the_traffic(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(a), "--seed", "1"])
    main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "2"])
    assert (a / "reports.jsonl").read_text() != (b / "reports.jsonl").read_text()


def test_malformed_report_lines_are_skipped(tmp_path, config_path, caplog):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    reports_path = out / "reports.jsonl"
    lines = reports_path.read_text().splitlines()
    lines.insert(5, "not json at all")
    lines.insert(10, '{"anchor_id": "MA1"}')
    reports_path.write_text("\n".join(lines) + "\n")

    parsed, skipped = read_reports(reports_path)
    assert skipped == 2
    assert len(parsed) == len(lines) - 2

    code = main(["locate", "--config", str(config_path), "--out", str(out),
                 "--reports", str(reports_path)])
    assert code == EXIT_OK


@pytest.mark.parametrize("name, reader", [("synced.csv", read_synced_csv),
                                          ("fixes.csv", read_fixes_csv)])
def test_malformed_csv_rows_are_skipped(tmp_path, config_path, caplog, name, reader):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / name
    lines = path.read_text().splitlines()
    rows = len(lines) - 1
    lines[3] = lines[3].rsplit(",", 2)[0]  # truncated: two fields short
    fields = lines[7].split(",")
    fields[3] = "seven"  # unparsable number: blink_seq in synced.csv, y in fixes.csv
    lines[7] = ",".join(fields)
    lines.insert(9, "")  # blank lines are not rows
    path.write_text("\n".join(lines) + "\n")

    parsed, skipped = reader(path)
    assert skipped == 2
    assert len(parsed) == rows - 2
    assert sum("skipped" in r.getMessage() for r in caplog.records) == 3

    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")])
    assert code == EXIT_OK


def test_malformed_truth_lines_are_skipped(tmp_path, config_path, caplog):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / "truth.jsonl"
    blinks, skipped = read_truth(path)
    assert skipped == 0
    lines = path.read_text().splitlines()
    lines[2] = '{"kind": "blink", "tag_id": "T1"}'  # a blink without seq, time, x, y
    lines.insert(6, "not json at all")
    lines.insert(9, "")  # blank lines are not records
    path.write_text("\n".join(lines) + "\n")

    parsed, skipped = read_truth(path)
    assert skipped == 2
    assert len(parsed) == len(blinks) - 1
    assert sum("skipped" in r.getMessage() for r in caplog.records) == 3

    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"), "--truth", str(path)])
    assert code == EXIT_OK


@pytest.mark.parametrize("resolution", ["0", "-0.5", "nan", "inf", "half"])
def test_deploy_check_rejects_a_bad_resolution(tmp_path, config_path, capsys, resolution):
    with pytest.raises(SystemExit) as exc:
        main(["deploy-check", "--config", str(config_path), "--out", str(tmp_path / "d"),
              "--resolution", resolution])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--resolution" in err
    assert not (tmp_path / "d").exists()


def test_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"anchors": [], "duration": 1.0}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(dict(CONFIG, durration=5.0)))
    assert main(["simulate", "--config", str(typo), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_reports_without_blinks_exit_3(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    full = (out / "reports.jsonl").read_text().splitlines()
    ccp_only = [l for l in full if '"blink_rx"' not in l]
    empty_path = tmp_path / "ccp_only.jsonl"
    empty_path.write_text("\n".join(ccp_only) + "\n")
    code = main(["locate", "--config", str(config_path), "--out", str(out),
                 "--reports", str(empty_path)])
    assert code == EXIT_EMPTY
    assert "no fixes" in capsys.readouterr().err


def test_missing_input_file_exits_4(tmp_path, config_path, capsys):
    code = main(["locate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                 "--reports", str(tmp_path / "nowhere.jsonl")])
    assert code == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_deploy_check_writes_report_and_grid(tmp_path, config_path):
    out = tmp_path / "deploy"
    code = main(["deploy-check", "--config", str(config_path), "--out", str(out),
                 "--resolution", "0.5"])
    assert code == EXIT_OK
    report = json.loads((out / "deploy_report.json").read_text())
    assert {r["rule"] for r in report["rules"]} == set("abcdef")
    assert report["worst_hdop_in_hull"] > 0.0
    grid_lines = (out / "hdop.csv").read_text().splitlines()
    assert grid_lines[0] == "x,y,hdop"
    assert len(grid_lines) == 1 + 13 * 9


def test_demo_runs_the_whole_pipeline(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == EXIT_OK
    for name in ("demo_config.json", "reports.jsonl", "truth.jsonl",
                 "fixes.csv", "synced.csv", "summary.json", "errors.csv"):
        assert (out / name).exists(), name
    payload = json.loads(capsys.readouterr().out)
    assert payload["availability"] == 1.0
    assert payload["fix_rmse"] < 0.2
