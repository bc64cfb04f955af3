"""Command-line harness: simulate, locate, eval, deploy-check, demo.

Each subcommand reads a JSON scenario config and writes flat files
(JSON lines for radio traffic and ground truth, CSV for fixes and grids,
JSON for summaries) so runs diff cleanly and compose through the shell.

Exit codes: 0 success, 2 configuration or validation error, 3 empty
result, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .config import ConfigError, ScenarioConfig, load_config
from .deploy import build_deployment_report, grid_to_csv
from .engine import EngineParams, LocateResult, locate_reports
from .metrics import EmptyEvalError, errors_csv, evaluate
from .protocol import ToaReport, decode_report, encode_report
from .simnet import ScenarioError, SimResult, TruthBlink, decode_truth, encode_truth, run_scenario
from .solver import Fix
from .topology import TopologyError
from .wcs import SyncedTdoa, synced_pairs

log = logging.getLogger(__name__)

T = TypeVar("T")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_IO = 4

FIXES_HEADER = "tag_id,blink_seq,x,y,vx,vy,pos_std"
SYNCED_HEADER = "anchor_a,anchor_b,tag_id,blink_seq,tdoa_sync,k_used"


# ---------------------------------------------------------------------------
# File formats


def fixes_to_csv(fixes: Sequence[Fix]) -> str:
    lines = [FIXES_HEADER]
    for f in fixes:
        lines.append(
            f"{f.tag_id},{f.blink_seq},{f.x!r},{f.y!r},{f.vx!r},{f.vy!r},{f.pos_std!r}"
        )
    return "\n".join(lines) + "\n"


def _read_csv_rows(
    path: Path, header: str, parse: Callable[[list[str]], T]
) -> tuple[list[T], int]:
    """Parse the rows of a CSV file written under ``header``.

    ``parse`` turns one row's fields into a value and raises ``ValueError``
    on a wrong field count or an unparsable field; such rows are skipped
    with a warning and counted.  Blank lines are ignored.
    """
    fields = header.split(",")
    rows: list[T] = []
    skipped = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or (reader.line_num == 1 and row == fields):
                continue
            try:
                rows.append(parse(row))
            except ValueError as exc:
                skipped += 1
                log.warning("%s line %d skipped: %s", path.name, reader.line_num, exc)
    if skipped:
        log.warning("skipped %d malformed row(s) in %s", skipped, path)
    return rows, skipped


def _read_json_lines(path: Path, decode: Callable[[str], T]) -> tuple[list[T], int]:
    """Decode the non-blank lines of a JSON-lines file; a line on which ``decode``
    raises ``ValueError`` is skipped with a warning and counted."""
    records: list[T] = []
    skipped = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(decode(line))
            except ValueError as exc:
                skipped += 1
                log.warning("%s line %d skipped: %s", path.name, lineno, exc)
    if skipped:
        log.warning("skipped %d malformed line(s) in %s", skipped, path)
    return records, skipped


def _fix_row(row: list[str]) -> Fix:
    tag_id, blink_seq, x, y, vx, vy, pos_std = row
    return Fix(tag_id, int(blink_seq), float(x), float(y), float(vx), float(vy),
               float(pos_std), residual_norm=0.0)


def read_fixes_csv(path: Path) -> tuple[list[Fix], int]:
    """Parse a fixes.csv file, skipping malformed rows with a count."""
    return _read_csv_rows(path, FIXES_HEADER, _fix_row)


def synced_to_csv(synced: Iterable[SyncedTdoa]) -> str:
    lines = [SYNCED_HEADER]
    for a, b, tag_id, blink_seq, tdoa, k in synced:
        lines.append(f"{a},{b},{tag_id},{blink_seq},{tdoa!r},{k!r}")
    return "\n".join(lines) + "\n"


def _synced_row(row: list[str]) -> SyncedTdoa:
    a, b, tag_id, blink_seq, tdoa, k = row
    # Ids repeat on every row: interned, each is stored once.
    return SyncedTdoa(
        sys.intern(a), sys.intern(b), sys.intern(tag_id), int(blink_seq), float(tdoa), float(k)
    )


def read_synced_csv(path: Path) -> tuple[list[SyncedTdoa], int]:
    """Parse a synced.csv file, skipping malformed rows with a count."""
    return _read_csv_rows(path, SYNCED_HEADER, _synced_row)


def read_reports(path: Path) -> tuple[list[ToaReport], int]:
    """Parse a reports.jsonl file, skipping malformed lines with a count."""
    return _read_json_lines(path, decode_report)


def read_truth(path: Path) -> tuple[list[TruthBlink], int]:
    """Parse the blinks of a truth.jsonl file, skipping malformed lines with a count."""
    records, skipped = _read_json_lines(path, decode_truth)
    return [r for r in records if isinstance(r, TruthBlink)], skipped


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Pipeline pieces shared by subcommands


def _simulate(cfg: ScenarioConfig, out: Path, seed: int | None) -> SimResult:
    scenario = cfg.scenario
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    result = run_scenario(scenario)
    _write(out / "reports.jsonl", "".join(encode_report(r) + "\n" for r in result.reports))
    truth_lines = [encode_truth(b) for b in result.truth_blinks]
    truth_lines += [encode_truth(c) for c in result.truth_clocks]
    _write(out / "truth.jsonl", "".join(line + "\n" for line in truth_lines))
    return result


def _engine_params(cfg: ScenarioConfig) -> EngineParams:
    return EngineParams(
        ccp_period=cfg.scenario.ccp_period,
        blink_period=cfg.scenario.blink_period,
        tracker=cfg.tracker,
        k_band=cfg.wcs.k_band,
        stale_intervals=cfg.wcs.stale_intervals,
    )


def _locate(cfg: ScenarioConfig, reports: Sequence[ToaReport], out: Path) -> LocateResult:
    result = locate_reports(reports, cfg.scenario.topology, _engine_params(cfg))
    _write(out / "fixes.csv", fixes_to_csv(result.fixes))
    # Rendered straight from the per-blink arrivals, without a pair list.
    _write(out / "synced.csv", synced_to_csv(synced_pairs(result.blinks, result.ccp_period)))
    return result


def _eval(
    cfg: ScenarioConfig,
    fixes: Sequence[Fix],
    truth: Sequence[TruthBlink],
    synced: Iterable[SyncedTdoa],
    out: Path,
) -> str:
    summary = evaluate(
        fixes,
        truth,
        synced,
        warmup=cfg.warmup,
        process_var=cfg.wcs.process_var,
        measurement_var=cfg.wcs.measurement_var,
    )
    text = summary.to_json()
    _write(out / "summary.json", text)
    _write(out / "errors.csv", errors_csv(fixes, truth))
    return text


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    _simulate(cfg, Path(args.out), args.seed)
    return EXIT_OK


def cmd_locate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    reports, _ = read_reports(Path(args.reports))
    result = _locate(cfg, reports, Path(args.out))
    if not result.fixes:
        print("error: no fixes produced from the given reports", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    fixes, _ = read_fixes_csv(Path(args.fixes))
    truth, _ = read_truth(Path(args.truth))
    synced, _ = read_synced_csv(Path(args.synced)) if args.synced else ([], 0)
    try:
        text = _eval(cfg, fixes, truth, synced, Path(args.out))
    except EmptyEvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    sys.stdout.write(text)
    return EXIT_OK


def cmd_deploy_check(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = build_deployment_report(
        cfg.scenario.topology, area=cfg.area, resolution=args.resolution
    )
    out = Path(args.out)
    _write(out / "deploy_report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    _write(out / "hdop.csv", grid_to_csv(report.hdop_rows))
    return EXIT_OK


DEMO_CONFIG = {
    "anchors": [
        {
            "id": "MA1",
            "role": "master",
            "level": 1,
            "position": [0.0, 0.0],
            "clock": {"offset": 0.0012, "skew": 8e-06, "jitter_std": 1e-10},
        },
        {
            "id": "SA2",
            "role": "slave",
            "position": [6.0, 0.0],
            "follows": ["MA1"],
            "clock": {"offset": -0.0034, "skew": -1.2e-05, "jitter_std": 1e-10},
        },
        {
            "id": "SA3",
            "role": "slave",
            "position": [6.0, 4.0],
            "follows": ["MA1"],
            "clock": {"offset": 0.0075, "skew": 2.1e-05, "jitter_std": 1e-10},
        },
        {
            "id": "SA4",
            "role": "slave",
            "position": [0.0, 4.0],
            "follows": ["MA1"],
            "clock": {"offset": -0.0006, "skew": -3.3e-05, "jitter_std": 1e-10},
        },
    ],
    "tags": [
        {"id": "T1", "trajectory": {"kind": "static", "position": [2.0, 1.5]}}
    ],
    "duration": 60.0,
    "blink_period": 0.1,
    "ccp_period": 0.15,
    "seed": 42,
    "area": [[0.0, 0.0], [6.0, 4.0]],
}


def cmd_demo(args: argparse.Namespace) -> int:
    """Full pipeline on a small rectangular deployment with one static tag."""
    out = Path(args.out)
    config_path = out / "demo_config.json"
    _write(config_path, json.dumps(DEMO_CONFIG, indent=2) + "\n")
    cfg = load_config(config_path)
    sim = _simulate(cfg, out, args.seed)
    result = _locate(cfg, sim.reports, out)
    if not result.fixes:
        print("error: demo produced no fixes", file=sys.stderr)
        return EXIT_EMPTY
    text = _eval(cfg, result.fixes, sim.truth_blinks, result.synced, out)
    sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _grid_step(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwb-rtls",
        description="UWB time-difference-of-arrival localization toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--verbose", action="store_true", help="chatty logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run a scenario, write radio reports")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("locate", parents=[common], help="turn ToA reports into position fixes")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--reports", required=True, help="reports.jsonl from simulate")
    p.set_defaults(handler=cmd_locate)

    p = sub.add_parser("eval", parents=[common], help="score fixes against ground truth")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--fixes", required=True, help="fixes.csv from locate")
    p.add_argument("--truth", required=True, help="truth.jsonl from simulate")
    p.add_argument("--synced", default=None, help="synced.csv from locate (optional)")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("deploy-check", parents=[common], help="audit anchor placement and HDoP")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--resolution", type=_grid_step, default=0.5, help="HDoP grid step in metres")
    p.set_defaults(handler=cmd_deploy_check)

    p = sub.add_parser("demo", parents=[common], help="simulate, locate, and eval a sample room")
    p.add_argument("--seed", type=int, default=None, help="override the built-in seed")
    p.set_defaults(handler=cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ConfigError, ScenarioError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
