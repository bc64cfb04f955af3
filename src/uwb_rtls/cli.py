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
import itertools
import json
import logging
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig, load_config
from .constants import ROW_BLOCK, row_blocks
from .deploy import build_deployment_report, grid_to_csv
from .engine import LocateResult, locate_reports
from .metrics import EmptyEvalError, errors_csv, evaluate
from .protocol import (REPORT_KINDS, ReportColumns, check_id, check_number, check_seq,
                       decode_reports, encode_reports)
from .simnet import (ScenarioError, SimResult, TruthBlinks, decode_truths, encode_clock,
                     encode_truth, run_scenario)
from .solver import FixTable
from .topology import TopologyError
from .wcs import ArrivalTable, run_starts

log = logging.getLogger(__name__)

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


def fixes_to_csv(fixes: FixTable) -> Iterator[str]:
    """fixes.csv as blocks of text, one row per fix in table order."""
    yield FIXES_HEADER + "\n"
    columns = (fixes.tag, fixes.blink_seq, fixes.x, fixes.y, fixes.vx, fixes.vy, fixes.pos_std)
    for rows in row_blocks(len(fixes)):
        yield "".join(f"{fixes.ids[t]},{s},{x!r},{y!r},{vx!r},{vy!r},{p!r}\n"
                      for t, s, x, y, vx, vy, p in zip(*(c[rows].tolist() for c in columns)))


def _check_utf8(text: str) -> None:
    """Raise ``ValueError`` if ``text``, read with ``errors="surrogateescape"``,
    holds a byte that is not UTF-8: such a byte reads as a lone surrogate."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("not valid UTF-8") from None


def _read_lines(path: Path, parse: Callable[[list[str]], Sequence], header: str | None = None
                ) -> tuple[tuple[str, ...], list[np.ndarray], int]:
    """Parse the non-blank lines of a UTF-8 text file, each stripped, in
    blocks: ``parse`` turns a block of lines into columns, each a list of
    ids or an array, and ``parse([])`` types those of a file with no rows.
    Returns the file's sorted ids, each column over the blocks in file
    order, an id column as int32 codes into those ids, and the count of
    skipped lines.  Each column is sized once, from a regular file's
    newline count, and filled block by block; it grows only past that (a
    pipe, which cannot be counted, starts at ``ROW_BLOCK`` rows).  A
    block's ids are coded as soon as ``parse`` accepts it, so only the ids
    of lines read go into the table; codes are ranked in place at the end.

    With ``header``, a file whose first line is not ``header`` (another
    format, or an older one) raises ``CsvHeaderError``.  A block that is not
    UTF-8, or on which ``parse`` raises ``ValueError``, is parsed again line
    by line; a line that fails (a wrong field count, an unparsable,
    out-of-range or non-finite number, a non-plain id) is skipped with a
    warning and counted.  Lines are numbered only then."""
    code: dict[str, int] = defaultdict(lambda: len(code))  # an id read first gets the next code
    empty = parse([])
    id_column = [isinstance(c, list) for c in empty]
    filled = skipped = 0

    def parse_block(lines: list[str]) -> None:
        nonlocal columns, filled
        _check_utf8("".join(lines))
        block = parse(lines)
        if filled + (n := len(block[0])) > len(columns[0]):
            columns = [np.resize(c, max(2 * len(c), filled + n)) for c in columns]
        for column, values, is_id in zip(columns, block, id_column):
            column[filled:filled + n] = (np.fromiter(map(code.__getitem__, values), np.int32, n)
                                         if is_id else values)
        filled += n

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        if header is not None and fh.readline().strip() != header:
            raise CsvHeaderError(f"{path}: the first line is not the header {header!r}")
        rows = ROW_BLOCK
        if path.is_file():  # one pass over the bytes: newlines bound the lines
            with open(path, "rb") as raw:
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: raw.read(1 << 16), b""))
        columns = [np.empty(rows + 1, np.int32 if is_id else c.dtype)
                   for c, is_id in zip(empty, id_column)]
        lineno = 1 if header is None else 2
        while lines := list(itertools.islice(fh, ROW_BLOCK)):
            try:
                if block := list(filter(None, map(str.strip, lines))):
                    parse_block(block)
            except ValueError:
                for n, line in enumerate(map(str.strip, lines), lineno):
                    try:
                        if line:
                            parse_block([line])
                    except ValueError as exc:
                        skipped += 1
                        log.warning("%s line %d skipped: %s", path.name, n, exc)
            lineno += len(lines)
    if skipped:
        log.warning("skipped %d malformed line(s) in %s", skipped, path)
    ids = sorted(code)
    rank = np.zeros(len(ids), np.int32)  # each code's place in the sorted ids
    rank[[code[value] for value in ids]] = np.arange(len(ids))
    columns = [c[:filled] for c in columns]
    for column in itertools.compress(columns, id_column):
        np.take(rank, column, out=column, mode="clip")  # codes are in range: no copy
    return tuple(ids), columns, skipped


def _plain_number(text: str) -> bool:
    """Whether ``text`` holds no whitespace, '_' or non-ASCII: int() reads them, no writer here."""
    return text.isascii() and not any(map(text.__contains__, " \t\v\f_"))


def _csv_columns(lines: list[str], header: str, ids: int) -> list[list[str]]:
    """The fields of CSV rows by column, named by ``header``; ValueError unless each row
    has a field per name and its fields after the first ``ids`` are plain numbers."""
    names = header.split(",")
    if set(map(str.count, lines, itertools.repeat(","))) - {len(names) - 1}:
        raise ValueError(f"a row does not have {len(names)} fields")
    fields = ",".join(lines).split(",") if lines else []
    columns = [fields[i::len(names)] for i in range(len(names))]
    for name, texts in zip(names[ids:], columns[ids:]):
        if not _plain_number("".join(texts)):
            bad = next(itertools.filterfalse(_plain_number, texts))
            raise ValueError(f"{name} must be a plain number, got {bad!r}")
    return columns


def _by_value(parse: Callable, check: Callable, name: str, texts: list[str]) -> list:
    """``parse`` of each text of the column ``name``, parsed and checked by
    ``check`` once per distinct text."""
    distinct = list(set(texts))
    value = dict(zip(distinct, check(name, list(map(parse, distinct)))))
    return list(map(value.__getitem__, texts))


def _fix_block(lines: list[str]) -> tuple[list | np.ndarray, ...]:
    tag_id, blink_seq, *numbers = _csv_columns(lines, FIXES_HEADER, 1)
    return (check_id("tag_id", tag_id),
            np.array(_by_value(int, check_seq, "blink_seq", blink_seq), np.int64),
            *(check_number(name, np.array(list(map(float, c))))
              for name, c in zip(FIXES_HEADER.split(",")[2:], numbers)))


def _first_reads(path: Path, what: str, ids: Sequence[str], tag: np.ndarray, seq: np.ndarray,
                 *anchor: np.ndarray) -> np.ndarray:
    """The row of the first read of each (tag, seq[, anchor]) key, codes into ``ids``, in
    key order; each later read is warned of as a repeated ``what`` and skipped."""
    order = np.lexsort((*anchor, seq, tag))  # stable: a repeat follows the row read first
    repeat = ~run_starts(tag, seq, *anchor, order=order)
    for i in np.sort(order[repeat]).tolist():
        log.warning("%s: repeated %s of %s#%d%s skipped", path.name, what, ids[tag[i]], seq[i],
                    "".join(f" at {ids[a[i]]}" for a in anchor))
    return order[~repeat]


def read_fixes_csv(path: Path) -> tuple[FixTable, int]:
    """Parse a fixes.csv file into a fix table, in file order, skipping malformed
    rows, and repeats of a (tag_id, blink_seq) fix already read, with a count."""
    ids, (tag, seq, *numbers), skipped = _read_lines(path, _fix_block, FIXES_HEADER)
    rows = np.sort(_first_reads(path, "fix", ids, tag, seq))
    return (FixTable(ids, tag[rows], seq[rows], *(c[rows] for c in numbers), np.zeros(len(rows))),
            skipped + len(seq) - len(rows))


def synced_to_csv(blinks: ArrivalTable) -> Iterator[str]:
    """synced.csv as blocks of text: one row per arrival, in table order.
    Floats are written as ``repr``, which reads back exactly, so every
    pair's TDoA and rate ratio can be rebuilt bit for bit from the file."""
    yield SYNCED_HEADER + "\n"
    name = blinks.ids.__getitem__
    for rows in row_blocks(len(blinks)):
        rates, rate_index = np.unique(blinks.rate[rows].view(np.int64), return_inverse=True)
        rate_text = list(map(float.__repr__, rates.view(np.float64).tolist()))
        yield "".join(map(
            "{},{},{},{},{!r},{}\n".format, map(name, blinks.anchor[rows].tolist()),
            map(name, blinks.tag[rows].tolist()), blinks.blink_seq[rows].tolist(),
            blinks.ccp_seq[rows].tolist(), blinks.offset[rows].tolist(),
            map(rate_text.__getitem__, rate_index.tolist()),
        ))


def _arrival_block(lines: list[str]) -> tuple[list | np.ndarray, ...]:
    anchor_id, tag_id, blink_seq, ccp_seq, offset, rate = _csv_columns(lines, SYNCED_HEADER, 2)
    return (check_id("anchor_id", anchor_id), check_id("tag_id", tag_id),
            np.array(_by_value(int, check_seq, "blink_seq", blink_seq), np.int64),
            np.array(_by_value(int, check_seq, "ccp_seq", ccp_seq), np.int64),
            check_number("offset", np.array(list(map(float, offset)))),
            np.array(_by_value(float, check_number, "rate", rate)))


def read_synced_csv(path: Path) -> tuple[ArrivalTable, int]:
    """Parse a synced.csv file back into an arrival table, skipping malformed
    rows, and repeats of an arrival already read, with a count."""
    ids, columns, skipped = _read_lines(path, _arrival_block, SYNCED_HEADER)
    n, rows = len(columns[0]), _first_reads(path, "arrival", ids, *columns[1:3], columns[0])
    for i, column in enumerate(columns):  # one at a time: each copy replaces its column
        columns[i] = column[rows]
    anchor, tag, blink_seq, ccp_seq, offset, rate = columns
    return ArrivalTable(ids, tag, blink_seq, anchor, offset, ccp_seq, rate), skipped + n - len(rows)


def _report_block(lines: list[str]) -> tuple[list | np.ndarray, ...]:
    """``decode_reports`` of a block, its kinds coded and its seqs and ticks as arrays."""
    anchor_ids, kinds, src_ids, seqs, ticks = decode_reports(lines)
    return (anchor_ids, np.fromiter(map(REPORT_KINDS.index, kinds), np.int8, len(kinds)),
            src_ids, np.array(seqs, np.int64), np.array(ticks, np.float64))


def read_reports(path: Path) -> tuple[ReportColumns, int]:
    """Parse a reports.jsonl file into columns, skipping malformed lines with a count."""
    ids, columns, skipped = _read_lines(path, _report_block)
    return ReportColumns(ids, *columns), skipped


def _truth_block(lines: list[str]) -> tuple[list | np.ndarray, ...]:
    """``decode_truths``' blink columns of a block, its seqs and numbers as arrays."""
    tag_ids, seqs, *numbers, _ = decode_truths(lines)
    return tag_ids, np.array(seqs, np.int64), *(np.array(c, float) for c in numbers)


def read_truth(path: Path) -> tuple[TruthBlinks, int]:
    """Parse the blinks of a truth.jsonl file into columns, in file order,
    skipping malformed lines, and repeats of a (tag_id, seq) blink already
    read, with a count."""
    ids, (tag, seq, *numbers), skipped = _read_lines(path, _truth_block)
    rows = np.sort(_first_reads(path, "truth blink", ids, tag, seq))
    return (TruthBlinks(ids, tag[rows], seq[rows], *(c[rows] for c in numbers)),
            skipped + len(seq) - len(rows))


def _write(path: Path, blocks: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Pipeline pieces shared by subcommands


def _simulate(cfg: ScenarioConfig, out: Path, seed: int | None) -> SimResult:
    scenario = cfg.scenario
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    result = run_scenario(scenario)
    _write(out / "reports.jsonl", (encode_reports(result.reports, rows)
                                   for rows in row_blocks(len(result.reports))))
    _write(out / "truth.jsonl", itertools.chain(
        (encode_truth(result.truth_blinks, rows) for rows in row_blocks(len(result.truth_blinks))),
        map(encode_clock, result.truth_clocks)))
    return result


def _locate(cfg: ScenarioConfig, reports: ReportColumns, out: Path) -> LocateResult:
    result = locate_reports(reports, cfg.scenario.topology, cfg.engine_params())
    _write(out / "fixes.csv", fixes_to_csv(result.fixes))
    _write(out / "synced.csv", synced_to_csv(result.blinks))
    return result


def _eval(cfg: ScenarioConfig, fixes: FixTable, truth: TruthBlinks,
          blinks: ArrivalTable | None, out: Path) -> str:
    summary = evaluate(fixes, truth, blinks, cfg.scenario.ccp_period, warmup=cfg.warmup,
                       params=cfg.wcs)
    text = summary.to_json()
    _write(out / "summary.json", [text])
    _write(out / "errors.csv", [errors_csv(summary.errors)])
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
    if not len(result.fixes):
        print("error: no fixes produced from the given reports", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    fixes, _ = read_fixes_csv(Path(args.fixes))
    truth, _ = read_truth(Path(args.truth))
    blinks, _ = read_synced_csv(Path(args.synced_csv)) if args.synced_csv else (None, 0)
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
    _write(out / "deploy_report.json", [json.dumps(report.to_dict(), indent=2) + "\n"])
    _write(out / "hdop.csv", grid_to_csv(report.grid))
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
    _write(config_path, [json.dumps(DEMO_CONFIG, indent=2) + "\n"])
    cfg = load_config(config_path)
    sim = _simulate(cfg, out, args.seed)
    result = _locate(cfg, sim.reports, out)
    if not len(result.fixes):
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
