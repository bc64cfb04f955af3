"""Command-line interface: subcommands, file formats, exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from uwb_rtls.cli import (
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_IO,
    EXIT_OK,
    FIXES_HEADER,
    SYNCED_HEADER,
    fixes_to_csv,
    main,
    read_fixes_csv,
    read_reports,
    read_synced_csv,
    read_truth,
    synced_to_csv,
)
from uwb_rtls.config import load_config, parse_config
from uwb_rtls.constants import ROW_BLOCK
from uwb_rtls.engine import locate_reports
from uwb_rtls.protocol import KIND_BLINK_RX, encode_reports
from uwb_rtls.simnet import run_scenario

from conftest import (arrival_table, assert_reads_among_as_alone, fix_table, hall_config,
                      read_file, report_columns, same_columns)

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
    fixes = fix_table([("T1", 3, 2.0000000001, 1.5, -0.25, 0.125, 0.03125, 0.0),
                       ("T2", 4, -1.0, 0.1, 0.0, 0.0, 0.5, 0.0)])
    path = tmp_path / "fixes.csv"
    path.write_text("".join(fixes_to_csv(fixes)))
    read, skipped = read_fixes_csv(path)
    assert same_columns(read, fixes) and skipped == 0


def test_synced_csv_round_trips_exactly(tmp_path):
    blinks = arrival_table({
        ("T1", 9): {"MA1": (0.0123456789012345, 41, 1.0000080000001),
                    "SA2": (-1.0000251204e-9, 42, 0.9999901)},
    })
    path = tmp_path / "synced.csv"
    path.write_text("".join(synced_to_csv(blinks)))
    table, skipped = read_synced_csv(path)
    assert skipped == 0
    assert same_columns(table, blinks)


def test_synced_csv_holds_one_row_per_arrival_and_every_pair_exactly(tmp_path, config_path):
    cfg = load_config(config_path)
    sim = run_scenario(cfg.scenario)
    result = locate_reports(sim.reports, cfg.scenario.topology,
                            cfg.engine_params())
    path = tmp_path / "synced.csv"
    path.write_text("".join(synced_to_csv(result.blinks)))
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == len(result.blinks)

    blinks, skipped = read_synced_csv(path)
    assert skipped == 0
    assert same_columns(blinks, result.blinks)  # offsets and rates compare bit for bit


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

    result = locate_reports(sim.reports, cfg.scenario.topology,
                            cfg.engine_params())
    assert (out / "fixes.csv").read_text() == "".join(fixes_to_csv(result.fixes))
    assert (out / "synced.csv").read_text() == "".join(synced_to_csv(result.blinks))

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
    assert Path("run/fixes.csv").read_text() == "".join(fixes_to_csv(fixes))


def test_seed_override_changes_the_traffic(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(a), "--seed", "1"])
    main(["simulate", "--config", str(config_path), "--out", str(b), "--seed", "2"])
    assert (a / "reports.jsonl").read_text() != (b / "reports.jsonl").read_text()


def test_negative_seed_override_exits_2_and_writes_nothing(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(config_path), "--out", str(out), "--seed", "-1"])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert not out.exists()


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
    assert len(parsed) == rows - 2  # fixes, or rows of the arrival table
    assert sum("skipped" in r.getMessage() for r in caplog.records) == 3

    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")])
    assert code == EXIT_OK


def _strict_json(text: str):
    """``json.loads`` refusing NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name, reader, field, value", [
    ("fixes.csv", read_fixes_csv, 2, "nan"),  # x
    ("fixes.csv", read_fixes_csv, 6, "inf"),  # pos_std
    ("synced.csv", read_synced_csv, 4, "nan"),  # offset
    ("synced.csv", read_synced_csv, 5, "-inf"),  # rate
])
def test_a_non_finite_csv_number_is_skipped_and_counted(
    tmp_path, config_path, name, reader, field, value
):
    # Read as numbers, a nan x in fixes.csv would reach summary.json as NaN,
    # which is not JSON, and a nan offset in synced.csv would become a
    # repeated smoother sample.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / name
    lines = path.read_text().splitlines()
    fields = lines[20].split(",")
    fields[field] = value
    summaries = []
    for row in ([], [",".join(fields)]):
        path.write_text("\n".join(lines[:20] + row + lines[21:]) + "\n")
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                     "--synced", str(out / "synced.csv")]) == EXIT_OK
        summaries.append((out / "summary.json").read_text())
    assert reader(path)[1] == 1
    assert summaries[1] == summaries[0]
    _strict_json(summaries[1])


@pytest.mark.parametrize("name, reader, field, value", [
    ("synced.csv", read_synced_csv, 3, "99999999999999999999"),  # ccp_seq
    ("synced.csv", read_synced_csv, 3, "-5"),  # ccp_seq
    ("fixes.csv", read_fixes_csv, 1, "99999999999999999999"),  # blink_seq
])
def test_a_seq_outside_32_bits_is_skipped_and_counted(
    tmp_path, config_path, caplog, name, reader, field, value
):
    # Seqs are 32-bit counters in every file.  A huge one used to crash eval
    # with an OverflowError, and a negative CCP seq moved a pair's TDoA
    # stream by whole CCP periods.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / name
    lines = path.read_text().splitlines()
    fields = lines[20].split(",")
    fields[field] = value
    summaries = []
    for row in ([], [",".join(fields)]):
        path.write_text("\n".join(lines[:20] + row + lines[21:]) + "\n")
        assert main(["eval", "--config", str(config_path), "--out", str(out),
                     "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                     "--synced", str(out / "synced.csv")]) == EXIT_OK
        summaries.append((out / "summary.json").read_text())
    assert reader(path)[1] == 1
    column = lines[0].split(",")[field]
    assert (f"{name} line 21 skipped: {column} must be an integer in [0, 2**32), got {value}"
            in caplog.text)
    assert summaries[1] == summaries[0]


def test_repeated_synced_arrival_is_skipped(tmp_path, caplog):
    blinks = arrival_table({("T1", 9): {"MA1": (0.5, 41, 1.0), "SA2": (0.25, 41, 1.0)}})
    path = tmp_path / "synced.csv"
    text = "".join(synced_to_csv(blinks))
    path.write_text(text + "SA2,T1,9,41,0.75,1.0\n")
    table, skipped = read_synced_csv(path)
    assert skipped == 1
    assert same_columns(table, blinks)
    assert "repeated arrival of T1#9 at SA2" in caplog.text


@pytest.mark.parametrize("name, reader, text", [
    ("reports.jsonl", read_reports, "\n"),
    ("truth.jsonl", read_truth, ""),
    ("fixes.csv", read_fixes_csv, FIXES_HEADER + "\n"),
    ("synced.csv", read_synced_csv, SYNCED_HEADER + "\n\nnot a row\n"),
])
def test_a_file_with_no_rows_reads_as_empty_typed_columns(tmp_path, name, reader, text):
    # The parser of an empty block types the columns: int32 id codes,
    # int8 kinds, int64 seqs and float64 numbers.
    path = tmp_path / name
    path.write_text(text)
    read, skipped = reader(path)
    columns = {n: c for n, c in vars(read).items() if n != "ids"}
    assert skipped == text.count("not a row") and read.ids == ()
    assert all(c.shape == (0,) for c in columns.values())
    assert {n: c.dtype for n, c in columns.items()} == {
        n: np.int32 if n in ("anchor", "src", "tag") else np.int8 if n == "kind"
        else np.int64 if n.endswith("seq") else np.float64 for n in columns}


def _read_through_a_pipe(reader, path: Path, tmp_path: Path):
    """``reader`` of a FIFO that a thread fills with the bytes of ``path``,
    as ``--reports <(cat reports.jsonl)`` hands a file over."""
    fifo = tmp_path / f"fifo-{path.name}"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        return reader(fifo)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_readers_read_a_pipe_and_lone_carriage_returns_as_the_file(hall_run, tmp_path):
    # Columns are sized from a regular file's newline count; a pipe cannot
    # be counted, and a file whose lines end in a lone '\r' counts none, so
    # both grow their columns block by block, and read as the file reads.
    cfg = parse_config(hall_config())
    blinks = locate_reports(hall_run.reports, cfg.scenario.topology, cfg.engine_params()).blinks
    files = {"reports.jsonl": (read_reports, encode_reports(hall_run.reports)),
             "synced.csv": (read_synced_csv, "".join(synced_to_csv(blinks)))}
    for name, (reader, text) in files.items():
        path = tmp_path / name
        path.write_text(text)
        read, skipped = reader(path)
        assert skipped == 0 and len(read) > 4 * ROW_BLOCK
        piped, skipped = _read_through_a_pipe(reader, path, tmp_path)
        assert skipped == 0 and same_columns(piped, read)
        path.write_bytes(text.replace("\n", "\r").encode())
        lone_cr, skipped = reader(path)
        assert skipped == 0 and same_columns(lone_cr, read)
    assert same_columns(read, blinks)


def test_an_id_only_on_a_skipped_line_is_not_in_the_id_table(tmp_path):
    # Each block's ids are coded once the block parses, so a skipped line
    # leaves no id behind; here the ids SA9 and T9 appear on it alone.
    reports = report_columns([("MA1", "ccp_tx", "MA1", 4, 10.0),
                              ("SA2", "blink_rx", "T1", 9, 12.5)])
    path = tmp_path / "reports.jsonl"
    path.write_text(encode_reports(reports)
                    + '{"anchor_id":"SA9","kind":"blink_rx","src_id":"T9","seq":-1,"ticks":3}\n')
    read, skipped = read_reports(path)
    assert skipped == 1 and read.ids == ("MA1", "SA2", "T1") and same_columns(read, reports)
    blinks = arrival_table({("T1", 9): {"MA1": (0.5, 41, 1.0), "SA2": (0.25, 41, 1.0)}})
    path = tmp_path / "synced.csv"
    path.write_text("".join(synced_to_csv(blinks)) + "SA9,T9,9,41,half,1.0\n")
    table, skipped = read_synced_csv(path)
    assert skipped == 1 and table.ids == ("MA1", "SA2", "T1") and same_columns(table, blinks)


def test_repeated_fix_is_skipped_and_counted(tmp_path, config_path, capsys, caplog):
    # A fixes.csv with its first rows appended again, the first of them
    # altered: eval must count each blink once and keep the first row read.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / "fixes.csv"
    text = path.read_text()
    repeats = text.splitlines()[1:31]
    fields = repeats[0].split(",")
    fields[2] = "99.0"  # x
    repeats[0] = ",".join(fields)
    path.write_text(text + "\n".join(repeats) + "\n")

    fixes, skipped = read_fixes_csv(path)
    assert skipped == 30
    assert "".join(fixes_to_csv(fixes)) == text
    assert f"repeated fix of {fixes.ids[fixes.tag[0]]}#{fixes.blink_seq[0]}" in caplog.text

    capsys.readouterr()
    assert main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(path), "--truth", str(out / "truth.jsonl")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["availability"] == 1.0


def test_a_repeated_truth_blink_is_skipped_and_counted(tmp_path, config_path, capsys, caplog):
    # A truth.jsonl with one blink appended again, its x moved by 5 m: eval
    # must keep the blink read first, count the repeat and score as before.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    argv = ["eval", "--config", str(config_path), "--out", str(out),
            "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl")]
    assert main(argv) == EXIT_OK
    summary = (out / "summary.json").read_text()
    path = out / "truth.jsonl"
    text = path.read_text()
    repeat = json.loads(text.splitlines()[30])
    assert repeat["kind"] == "blink"
    repeat["x"] += 5.0
    path.write_text(text + json.dumps(repeat, separators=(",", ":")) + "\n")

    blinks, skipped = read_truth(path)
    assert skipped == 1
    assert same_columns(blinks, run_scenario(load_config(config_path).scenario).truth_blinks)
    assert f"repeated truth blink of {repeat['tag_id']}#{repeat['seq']} skipped" in caplog.text
    assert main(argv) == EXIT_OK
    assert (out / "summary.json").read_text() == summary


def test_truth_columns_round_trip_through_the_file(tmp_path, config_path):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    truth, skipped = read_truth(out / "truth.jsonl")
    assert skipped == 0
    assert same_columns(truth, run_scenario(load_config(config_path).scenario).truth_blinks)


def _with_csv_field(line: str, index: int, text: str) -> str:
    fields = line.split(",")
    fields[index] = text
    return ",".join(fields)


@pytest.mark.parametrize("name, line, index, field", [
    *(("fixes.csv", "T1,10,1.5,2.0,0.0,0.0,0.1", i, f)
      for i, f in enumerate(["blink_seq", "x", "y", "vx", "vy", "pos_std"], 1)),
    *(("synced.csv", "SA2,T1,10,3,0.0123,1.00001", i, f)
      for i, f in enumerate(["blink_seq", "ccp_seq", "offset", "rate"], 2)),
])
@pytest.mark.parametrize("text", ["1_0", "1_0.5", " 7", "\t7", "\xa07", "\u0667", "1\u0660.5"])
def test_a_number_python_reads_but_no_writer_writes_is_skipped(simulated_lines, name, line,
                                                                index, field, text):
    # int() and float() read '_' between digits, whitespace around a number
    # and non-ASCII digits; a CSV number here holds none of them.  A line is
    # stripped before it is split, so no text here sits at either end of it.
    bad = _with_csv_field(line, index, text)
    assert read_file(name, [bad]) == (
        [], 1, [f"{name} line 2 skipped: {field} must be a plain number, got {text!r}",
                f"skipped 1 malformed line(s) in <path>"])
    assert_reads_among_as_alone(simulated_lines, name, bad)


@pytest.mark.parametrize("canonical", [True, False])
def test_a_report_whose_src_id_is_not_plain_is_skipped_and_counted(tmp_path, caplog, canonical):
    # The same line in the form encode_reports writes and with spaces after
    # its separators, which decode_reports reads through json.loads.
    one = report_columns([("SA2", KIND_BLINK_RX, "T1", 7, 12345.0)])
    good = encode_reports(one).rstrip("\n")
    bad = good.replace('"T1"', '"T,1"')
    if not canonical:
        good, bad = (line.replace(":", ": ").replace(",\"", ", \"") for line in (good, bad))
    path = tmp_path / "reports.jsonl"
    path.write_text(f"{good}\n{bad}\n")
    reports, skipped = read_reports(path)
    assert same_columns(reports, one)
    assert skipped == 1
    assert "reports.jsonl line 2 skipped: src_id must be a plain id, got 'T,1'" in caplog.text


@pytest.mark.parametrize("name, reader", [("truth.jsonl", read_truth),
                                          ("fixes.csv", read_fixes_csv),
                                          ("synced.csv", read_synced_csv)])
def test_a_line_whose_id_is_not_plain_is_skipped_and_counted(
    tmp_path, config_path, caplog, name, reader
):
    # A quoted id, as a spreadsheet might write it back.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / name
    lines = path.read_text().splitlines()
    if name == "truth.jsonl":
        first = "T1"
        lines[3] = lines[3].replace('"tag_id":"T1"', '"tag_id":"\\"T1\\""')
    else:
        first, rest = lines[3].split(",", 1)
        lines[3] = f'"{first}",{rest}'
    path.write_text("\n".join(lines) + "\n")

    _, skipped = reader(path)
    assert skipped == 1
    field, quoted = "anchor_id" if name == "synced.csv" else "tag_id", f'"{first}"'
    assert f"{name} line 4 skipped: {field} must be a plain id, got {quoted!r}" in caplog.text
    code = main(["eval", "--config", str(config_path), "--out", str(out),
                 "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")])
    assert code == EXIT_OK


def test_crlf_files_read_as_lf_files_and_blank_lines_are_ignored(tmp_path, config_path, caplog):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    readers = {"reports.jsonl": read_reports, "truth.jsonl": read_truth,
               "fixes.csv": read_fixes_csv, "synced.csv": read_synced_csv}
    for name, reader in readers.items():
        path = out / name
        want = reader(path)
        lines = path.read_bytes().splitlines()
        lines[2:2] = [b"", b"   ", b"\t"]  # blank and whitespace-only lines
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        got = reader(path)
        assert got[1] == want[1]
        assert same_columns(got[0], want[0])
    assert "skipped" not in caplog.text


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


@pytest.mark.parametrize("key", ["tags[0].id", "anchors[3].id"])
@pytest.mark.parametrize("bad", ["T,1", 'T"1', "T\n1", "T\t1", "", " T1", "T1 ", "T1\u2028"])
def test_a_config_id_that_is_not_plain_exits_2_naming_the_key(tmp_path, capsys, key, bad):
    # A comma or quote would break the CSV outputs, a newline or control
    # character their lines, and leading whitespace a stripped line's
    # first field.
    if key.startswith("tags"):
        config = dict(CONFIG, tags=[dict(CONFIG["tags"][0], id=bad)])
    else:
        config = dict(CONFIG, anchors=[*CONFIG["anchors"][:3], dict(CONFIG["anchors"][3], id=bad)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith(f"error: {key}: ")
    assert not (tmp_path / "o").exists()


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


def test_a_scenario_without_tags_simulates_ccps_alone_and_locate_exits_3(tmp_path, capsys):
    path = tmp_path / "no_tags.json"
    path.write_text(json.dumps({**CONFIG, "tags": []}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    reports = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    assert reports and {r["kind"] for r in reports} == {"ccp_tx", "ccp_rx"}
    truth = [json.loads(line) for line in (out / "truth.jsonl").read_text().splitlines()]
    assert [t["kind"] for t in truth] == ["clock"] * len(CONFIG["anchors"])
    capsys.readouterr()
    code = main(["locate", "--config", str(path), "--out", str(out),
                 "--reports", str(out / "reports.jsonl")])
    assert code == EXIT_EMPTY
    assert "no fixes produced" in capsys.readouterr().err


def test_eval_of_a_fixes_csv_holding_only_its_header_exits_3_and_writes_nothing(
    tmp_path, config_path, capsys
):
    # Locate on reports without blinks writes fixes.csv with its header alone
    # (and exits 3): eval reads it as an empty fix table, and exits 3 too.
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    path = out / "reports.jsonl"
    path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                            if '"blink_rx"' not in line))
    assert main(["locate", "--config", str(config_path), "--out", str(out),
                 "--reports", str(path)]) == EXIT_EMPTY
    fixes_path = out / "fixes.csv"
    assert fixes_path.read_text() == FIXES_HEADER + "\n"
    fixes, skipped = read_fixes_csv(fixes_path)
    assert same_columns(fixes, fix_table([])) and skipped == 0
    capsys.readouterr()
    evaluated = tmp_path / "eval"
    code = main(["eval", "--config", str(config_path), "--out", str(evaluated),
                 "--fixes", str(fixes_path), "--truth", str(out / "truth.jsonl"),
                 "--synced", str(out / "synced.csv")])
    assert code == EXIT_EMPTY
    assert "no fixes match" in capsys.readouterr().err
    assert not (evaluated / "summary.json").exists() and not (evaluated / "errors.csv").exists()


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


# Two cells: MA2 follows MA1 one lag slot later, SA2 bridges both cells, and
# the tags sit in each cell and across the boundary.
TWO_CELL_CONFIG = {
    "anchors": [
        {"id": "MA1", "role": "master", "position": [0.0, 0.0], "level": 1,
         "clock": {"offset": 0.0012, "skew": 8e-6, "jitter_std": 1e-10}},
        {"id": "MA2", "role": "master", "position": [20.0, 0.0], "level": 2, "lag_slot": 1,
         "follows": "MA1", "clock": {"offset": 0.0041, "skew": -5e-6, "jitter_std": 1e-10}},
        {"id": "SA1", "role": "slave", "position": [2.0, 6.0], "follows": "MA1",
         "clock": {"offset": -0.0034, "skew": -1.2e-5, "jitter_std": 1e-10}},
        {"id": "SA2", "role": "slave", "position": [10.0, -2.0], "follows": ["MA1", "MA2"],
         "clock": {"offset": 0.0075, "skew": 2.1e-5, "jitter_std": 1e-10}},
        {"id": "SA3", "role": "slave", "position": [10.0, 6.0], "follows": ["MA1", "MA2"],
         "clock": {"offset": -0.0006, "skew": -3.3e-5, "jitter_std": 1e-10}},
        {"id": "SA5", "role": "slave", "position": [18.0, 6.0], "follows": "MA2",
         "clock": {"offset": 0.0021, "skew": 1.5e-5, "jitter_std": 1e-10}},
        {"id": "SA6", "role": "slave", "position": [22.0, -4.0], "follows": "MA2",
         "clock": {"offset": -0.0052, "skew": 6e-6, "jitter_std": 1e-10}},
    ],
    "tags": [
        {"id": "T1", "trajectory": {"kind": "static", "position": [4.0, 2.0]}},
        {"id": "T2", "trajectory": {"kind": "static", "position": [16.0, 1.0]}},
        {"id": "T3", "trajectory": {"kind": "waypoints",
                                     "points": [[0.0, 6.0, 2.0], [2.0, 14.0, 3.0]]}},
    ],
    "duration": 2.0,
    "seed": 11,
    "area": [[0.0, -4.0], [22.0, 6.0]],
}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    config = tmp_path / "two_cell.json"
    config.write_text(json.dumps(TWO_CELL_CONFIG))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in (
            ["simulate", "--config", str(config), "--out", str(out)],
            ["locate", "--config", str(config), "--out", str(out),
             "--reports", str(out / "reports.jsonl")],
            ["eval", "--config", str(config), "--out", str(out), "--fixes", str(out / "fixes.csv"),
             "--truth", str(out / "truth.jsonl"), "--synced", str(out / "synced.csv")],
            ["deploy-check", "--config", str(config), "--out", str(out), "--resolution", "1.0"],
        ):
            subprocess.run([sys.executable, "-m", "uwb_rtls.cli", *argv], env=env, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["deploy_report.json", "errors.csv", "fixes.csv", "hdop.csv",
                                  "reports.jsonl", "summary.json", "synced.csv", "truth.jsonl"]
    assert outputs[0] == outputs[1]


def test_eval_in_a_fresh_interpreter_leaves_numpy_ma_unimported(tmp_path):
    # np.isin over keys of several tags, and np.unique without indexes, call
    # np.ma.is_masked, whose lazy import of numpy.ma costs about 9 ms per eval.
    config = tmp_path / "hall.json"
    config.write_text(json.dumps({**hall_config(duration=4.0), "eval": {"warmup": 5}}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert main(["locate", "--config", str(config), "--out", str(out),
                 "--reports", str(out / "reports.jsonl")]) == EXIT_OK
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from uwb_rtls.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "eval", "--config", str(config), "--out", str(out),
         "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
         "--synced", str(out / "synced.csv")], env=env, check=True, capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


@pytest.mark.parametrize("name", ["reports.jsonl", "truth.jsonl", "fixes.csv", "synced.csv"])
def test_a_line_that_is_not_utf8_is_skipped_and_counted(tmp_path, config_path, caplog, name):
    out = tmp_path / "run"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    main(["locate", "--config", str(config_path), "--out", str(out),
          "--reports", str(out / "reports.jsonl")])
    path = out / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b"1", b"\xff", 1)  # one stray byte on line 5
    path.write_bytes(b"".join(lines))

    reader = {"reports.jsonl": read_reports, "truth.jsonl": read_truth,
              "fixes.csv": read_fixes_csv, "synced.csv": read_synced_csv}[name]
    assert reader(path)[1] == 1
    assert f"{name} line 5 skipped: not valid UTF-8" in caplog.text

    if name == "reports.jsonl":
        argv = ["locate", "--config", str(config_path), "--out", str(tmp_path / "again"),
                "--reports", str(path)]
    else:
        argv = ["eval", "--config", str(config_path), "--out", str(out),
                "--fixes", str(out / "fixes.csv"), "--truth", str(out / "truth.jsonl"),
                "--synced", str(out / "synced.csv")]
    assert main(argv) == EXIT_OK


def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(CONFIG).replace('"T1"', '"T\xfc1"').encode("latin-1"))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and str(path) in err[0] and "not UTF-8" in err[0]
    assert not (tmp_path / "o").exists()


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    # Under LC_ALL=C without UTF-8 mode, Python's default file encoding is
    # ASCII; a non-ASCII tag id must still be read and written as UTF-8.
    config = tmp_path / "utf8.json"
    tags = [dict(CONFIG["tags"][0], id="TüT1")]
    config.write_bytes(json.dumps(dict(CONFIG, tags=tags), ensure_ascii=False).encode("utf-8"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for locale_env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0"}):
        out = tmp_path / ("c" if locale_env else "default")
        env = dict(os.environ, **locale_env,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in (
            ["simulate", "--config", str(config), "--out", str(out)],
            ["locate", "--config", str(config), "--out", str(out),
             "--reports", str(out / "reports.jsonl")],
            ["eval", "--config", str(config), "--out", str(out), "--fixes", str(out / "fixes.csv"),
             "--truth", str(out / "truth.jsonl"), "--synced", str(out / "synced.csv")],
        ):
            subprocess.run([sys.executable, "-m", "uwb_rtls.cli", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["errors.csv", "fixes.csv", "reports.jsonl", "summary.json",
                                  "synced.csv", "truth.jsonl"]
    assert "TüT1,".encode() in outputs[0]["fixes.csv"]
    assert outputs[0] == outputs[1]
