"""Command-line harness: simulate, locate, eval, deploy-check, demo.

Each subcommand reads a JSON scenario config and writes flat files
(JSON lines for radio traffic and ground truth, CSV for fixes and grids,
JSON for summaries) so runs diff cleanly and compose through the shell.
Every id is a plain id (``protocol.is_plain_id``), so no CSV field is ever
quoted and the readers split CSV lines on commas.

Exit codes: 0 success, 2 configuration or validation error (including an
input CSV without its expected header), 3 empty result, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

from .config import ConfigError, ScenarioConfig, load_config
from .deploy import build_deployment_report, grid_to_csv
from .engine import LocateResult, locate_reports
from .metrics import EmptyEvalError, errors_csv, evaluate
from .protocol import ToaReport, decode_report, encode_report, plain_id
from .simnet import ScenarioError, SimResult, TruthBlink, decode_truth, encode_truth, run_scenario
from .solver import Fix
from .topology import TopologyError
from .wcs import Arrival, SyncedBlinks

log = logging.getLogger(__name__)

T = TypeVar("T")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_IO = 4

FIXES_HEADER = "tag_id,blink_seq,x,y,vx,vy,pos_std"
SYNCED_HEADER = "anchor_id,tag_id,blink_seq,ccp_seq,offset,rate"


class CsvHeaderError(ValueError):
    """An input CSV whose first line is not the header its reader expects."""


# ---------------------------------------------------------------------------
# File formats


def fixes_to_csv(fixes: Sequence[Fix]) -> str:
    lines = [FIXES_HEADER]
    for f in fixes:
        lines.append(
            f"{f.tag_id},{f.blink_seq},{f.x!r},{f.y!r},{f.vx!r},{f.vy!r},{f.pos_std!r}"
        )
    return "\n".join(lines) + "\n"


def _check_utf8(text: str) -> None:
    """Raise ``ValueError`` if ``text``, read with ``errors="surrogateescape"``,
    holds a byte that is not UTF-8: such a byte reads as a lone surrogate."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("not valid UTF-8") from None


def _read_lines(
    path: Path, parse: Callable[[str], T], header: str | None = None
) -> tuple[list[T], int]:
    """Parse the non-blank lines of a UTF-8 text file, each stripped.

    With ``header``, a file whose first line is not ``header`` (another
    format, or an older one) raises ``CsvHeaderError``.  A line that is not
    UTF-8, or on which ``parse`` raises ``ValueError`` (a wrong field count,
    an unparsable or non-finite number, an id that is not a plain id), is
    skipped with a warning and counted.
    """
    records: list[T] = []
    skipped = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if header is not None and fh.readline().strip() != header:
            raise CsvHeaderError(f"{path}: the first line is not the header {header!r}")
        for lineno, line in enumerate(fh, start=1 if header is None else 2):
            line = line.strip()
            if not line:
                continue
            try:
                _check_utf8(line)
                records.append(parse(line))
            except ValueError as exc:
                skipped += 1
                log.warning("%s line %d skipped: %s", path.name, lineno, exc)
    if skipped:
        log.warning("skipped %d malformed line(s) in %s", skipped, path)
    return records, skipped


def _fix_row(line: str) -> Fix:
    tag_id, blink_seq, *numbers = line.split(",")
    x, y, vx, vy, pos_std = values = [float(v) for v in numbers]
    if not all(map(math.isfinite, values)):
        raise ValueError("a number is NaN or infinite")
    return Fix(plain_id(tag_id), int(blink_seq), x, y, vx, vy, pos_std, residual_norm=0.0)


def read_fixes_csv(path: Path) -> tuple[list[Fix], int]:
    """Parse a fixes.csv file, skipping malformed rows, and repeats of a
    (tag_id, blink_seq) fix already read, with a count."""
    rows, skipped = _read_lines(path, _fix_row, FIXES_HEADER)
    fixes: dict[tuple[str, int], Fix] = {}
    for fix in rows:
        key = (fix.tag_id, fix.blink_seq)
        if key in fixes:
            skipped += 1
            log.warning("%s: repeated fix of %s#%d skipped", path.name, *key)
            continue
        fixes[key] = fix
    return list(fixes.values()), skipped


def synced_to_csv(blinks: Mapping[tuple[str, int], Mapping[str, Arrival]]) -> str:
    """One row per synchronized arrival, blinks in (tag_id, blink_seq) order
    and anchors in id order.  Floats are written as ``repr``, which reads
    back exactly, so every pair's TDoA and rate ratio can be rebuilt bit for
    bit from the file."""
    lines = [SYNCED_HEADER]
    for tag_id, blink_seq in sorted(blinks):
        arrivals = blinks[(tag_id, blink_seq)]
        for anchor_id in sorted(arrivals):
            offset, ccp_seq, rate = arrivals[anchor_id]
            lines.append(f"{anchor_id},{tag_id},{blink_seq},{ccp_seq},{offset!r},{rate!r}")
    return "\n".join(lines) + "\n"


def _arrival_row(line: str) -> tuple[tuple[str, int], str, Arrival]:
    anchor_id, tag_id, blink_seq, ccp_seq, offset, rate = line.split(",")
    offset, rate = float(offset), float(rate)
    if not (math.isfinite(offset) and math.isfinite(rate)):
        raise ValueError("a number is NaN or infinite")
    return (
        (plain_id(tag_id), int(blink_seq)),
        plain_id(anchor_id),
        Arrival(offset, int(ccp_seq), rate),
    )


def read_synced_csv(path: Path) -> tuple[SyncedBlinks, int]:
    """Parse a synced.csv file back into the sync output's per-blink map,
    skipping malformed rows, and repeats of an anchor's arrival for a blink
    already read, with a count."""
    rows, skipped = _read_lines(path, _arrival_row, SYNCED_HEADER)
    blinks: SyncedBlinks = {}
    for (tag_id, blink_seq), anchor_id, arrival in rows:
        arrivals = blinks.setdefault((tag_id, blink_seq), {})
        if anchor_id in arrivals:
            skipped += 1
            log.warning("%s: repeated arrival of %s#%d at %s skipped",
                        path.name, tag_id, blink_seq, anchor_id)
            continue
        arrivals[anchor_id] = arrival
    return blinks, skipped


def read_reports(path: Path) -> tuple[list[ToaReport], int]:
    """Parse a reports.jsonl file, skipping malformed lines with a count."""
    return _read_lines(path, decode_report)


def read_truth(path: Path) -> tuple[list[TruthBlink], int]:
    """Parse the blinks of a truth.jsonl file, skipping malformed lines with a count."""
    records, skipped = _read_lines(path, decode_truth)
    return [r for r in records if isinstance(r, TruthBlink)], skipped


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
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


def _locate(cfg: ScenarioConfig, reports: Sequence[ToaReport], out: Path) -> LocateResult:
    result = locate_reports(reports, cfg.scenario.topology, cfg.engine_params())
    _write(out / "fixes.csv", fixes_to_csv(result.fixes))
    _write(out / "synced.csv", synced_to_csv(result.blinks))
    return result


def _eval(
    cfg: ScenarioConfig,
    fixes: Sequence[Fix],
    truth: Sequence[TruthBlink],
    blinks: SyncedBlinks,
    out: Path,
) -> str:
    summary = evaluate(
        fixes,
        truth,
        blinks,
        cfg.scenario.ccp_period,
        warmup=cfg.warmup,
        params=cfg.wcs,
    )
    text = summary.to_json()
    _write(out / "summary.json", text)
    _write(out / "errors.csv", errors_csv(summary.errors))
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
    blinks, _ = read_synced_csv(Path(args.synced_csv)) if args.synced_csv else ({}, 0)
    try:
        text = _eval(cfg, fixes, truth, blinks, Path(args.out))
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
    text = _eval(cfg, result.fixes, sim.truth_blinks, result.blinks, out)
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
    p.add_argument("--synced", dest="synced_csv", default=None,
                   help="synced.csv from locate (optional)")
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
    except (ConfigError, ScenarioError, TopologyError, CsvHeaderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
