"""Command-line interface: subcommands, file formats, exit codes."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

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
from uwb_rtls.wcs import Arrival, synced_pairs

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
    blinks = {
        ("T1", 9): {"MA1": Arrival(0.0123456789012345, 41, 1.0000080000001),
                    "SA2": Arrival(-1.0000251204e-9, 42, 0.9999901)},
    }
    path = tmp_path / "synced.csv"
    path.write_text(synced_to_csv(blinks))
    assert read_synced_csv(path) == (blinks, 0)


def test_synced_csv_holds_one_row_per_arrival_and_every_pair_exactly(tmp_path, config_path):
    cfg = load_config(config_path)
    sim = run_scenario(cfg.scenario)
    result = locate_reports(sim.reports, cfg.scenario.topology, cfg.engine_params())
    path = tmp_path / "synced.csv"
    path.write_text(synced_to_csv(result.blinks))
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == sum(len(arrivals) for arrivals in result.blinks.values())

    blinks, skipped = read_synced_csv(path)
    assert skipped == 0
    assert blinks == result.blinks  # offsets and rates compare bit for bit
    assert list(synced_pairs(blinks, result.ccp_period)) == result.synced


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
    from uwb_rtls.cli import _eval

    result = locate_reports(sim.reports, cfg.scenario.topology, cfg.engine_params())
    assert (out / "fixes.csv").read_text() == fixes_to_csv(result.fixes)
    assert (out / "synced.csv").read_text() == synced_to_csv(result.blinks)

    # Eval from the files and eval from the in-memory sync output agree.
    main(["eval", "--config", str(config_path), "--out", str(out),
          "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
          "--synced", str(out / "synced.csv")])
    lib = tmp_path / "lib"
    _eval(cfg, result.fixes, sim.truth_blinks, result.blinks, lib)
    assert (out / "summary.json").read_bytes() == (lib / "summary.json").read_bytes()
    assert (out / "errors.csv").read_bytes() == (lib / "errors.csv").read_bytes()


def test_readme_library_example_gets_the_cli_fixes(tmp_path, monkeypatch, capsys):
    # Both periods off their defaults: the library path must read them from
    # the config, as the CLI does.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("room.json").write_text(
        json.dumps(dict(CONFIG, duration=20.0, blink_period=0.2, ccp_period=0.2))
    )
    namespace: dict = {}
    exec(example, namespace)
    summary = json.loads(capsys.readouterr().out)
    assert summary["availability"] == 1.0

    assert main(["simulate", "--config", "room.json", "--out", "run"]) == EXIT_OK
    assert main(["locate", "--config", "room.json", "--out", "run",
                 "--reports", "run/reports.jsonl"]) == EXIT_OK
    fixes = namespace["result"].fixes
    assert len(fixes) == 100
    assert Path("run/fixes.csv").read_text() == fixes_to_csv(fixes)


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
    fields[3] = "seven"  # unparsable number: ccp_seq in synced.csv, y in fixes.csv
    lines[7] = ",".join(fields)
    lines.insert(9, "")  # blank lines are not rows
    path.write_text("\n".join(lines) + "\n")

    parsed, skipped = reader(path)
    assert skipped == 2
    if name == "synced.csv":  # a map of blinks: count its arrivals
        parsed = [a for arrivals in parsed.values() for a in arrivals]
    assert len(parsed) == rows - 2
    assert sum("skipped" in r.getMessage() for r in caplog.records) == 3

    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")])
    assert code == EXIT_OK


def test_repeated_synced_arrival_is_skipped(tmp_path, caplog):
    blinks = {("T1", 9): {"MA1": Arrival(0.5, 41, 1.0), "SA2": Arrival(0.25, 41, 1.0)}}
    path = tmp_path / "synced.csv"
    text = synced_to_csv(blinks)
    path.write_text(text + "SA2,T1,9,41,0.75,1.0\n")
    assert read_synced_csv(path) == (blinks, 1)
    assert "repeated arrival of T1#9 at SA2" in caplog.text


PAIR_FORMAT_SYNCED = """anchor_a,anchor_b,tag_id,blink_seq,tdoa_sync,k_used
MA1,SA2,T1,0,-1.5e-09,0.99999
MA1,SA3,T1,0,2.5e-09,1.00002
"""


@pytest.mark.parametrize("name", ["synced.csv", "fixes.csv"])
def test_csv_without_its_header_is_rejected(tmp_path, config_path, capsys, name):
    run = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(run)])
    main(["locate", "--config", str(config_path), "--out", str(run),
          "--reports", str(run / "reports.jsonl")])
    path = run / name
    if name == "synced.csv":  # the pair format of earlier builds
        path.write_text(PAIR_FORMAT_SYNCED)
        expected = "anchor_id,tag_id,blink_seq,ccp_seq,offset,rate"
    else:  # rows without their header line
        expected, *rows = path.read_text().splitlines()
        path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()

    out = tmp_path / "eval"
    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(run / "fixes.csv"), "--truth", str(run / "truth.jsonl"),
                 "--synced", str(run / "synced.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert name in err and repr(expected) in err
    assert not out.exists()


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

    band = tmp_path / "band.json"
    band.write_text(json.dumps(dict(CONFIG, wcs={"k_band": -1e-4})))
    assert main(["locate", "--config", str(band), "--out", str(tmp_path / "o"),
                 "--reports", str(tmp_path / "nowhere.jsonl")]) == EXIT_CONFIG

    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(dict(CONFIG, solver={"sigma_t": 0})))
    assert main(["locate", "--config", str(sigma), "--out", str(tmp_path / "o"),
                 "--reports", str(tmp_path / "nowhere.jsonl")]) == EXIT_CONFIG

    skew = tmp_path / "skew.json"
    anchors = [dict(CONFIG["anchors"][0], clock={"skew": 2e-4}), *CONFIG["anchors"][1:]]
    skew.write_text(json.dumps(dict(CONFIG, anchors=anchors)))
    assert main(["simulate", "--config", str(skew), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def _with_first_anchor(**fields):
    return dict(CONFIG, anchors=[dict(CONFIG["anchors"][0], **fields), *CONFIG["anchors"][1:]])


@pytest.mark.parametrize("config, key", [
    (dict(CONFIG, duration=float("inf")), "duration"),
    (dict(CONFIG, blink_period=float("nan")), "blink_period"),
    (dict(CONFIG, reception_radius=float("nan")), "reception_radius"),
    (_with_first_anchor(clock={"offset": float("nan")}), "offset"),
    (_with_first_anchor(clock={"drift_rate": float("inf")}), "drift_rate"),
    (_with_first_anchor(clock={"jitter_std": -1e-10}), "jitter_std"),
    (_with_first_anchor(position=[0.0, float("nan")]), "anchors[0].position"),
    (dict(CONFIG, tags=[{"id": "T1", "trajectory": {"kind": "static", "position": [float("nan"), 1.5]}}]),
     "tags[0].trajectory.position"),
    (dict(CONFIG, area=[[0.0, 0.0], [float("inf"), 4.0]]), "area[1]"),
])
def test_non_finite_config_exits_2_with_one_error_line(tmp_path, capsys, config, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))  # NaN and Infinity, as Python's json reads them
    code = main(["locate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--reports", str(tmp_path / "nowhere.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]


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
