"""Command-line harness: simulate, locate, eval, deploy-check, demo.

Each subcommand reads a JSON scenario config and writes flat files
(JSON lines for radio traffic and ground truth, CSV for fixes and grids,
JSON for summaries) so runs diff cleanly and compose through the shell.
Every id is a plain id (``protocol.is_plain_id``), so no CSV field is ever
quoted and the readers split CSV lines on commas.  Each file's fields are
declared once, in a field table here; one renderer (``_lines``) writes all
six files, and one parser per format (``_jsonl_columns``, ``_csv_columns``)
reads them back through one typed-column step (``_typed``).

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
import operator
import sys
from collections import defaultdict
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .clock import TICK_WRAP
from .config import ConfigError, ScenarioConfig, load_config
from .constants import ROW_BLOCK, row_blocks
from .deploy import HdopGrid, build_deployment_report
from .engine import LocateResult, locate_reports
from .metrics import EmptyEvalError, evaluate
from .protocol import REPORT_KINDS, ReportColumns, check_id, check_number, check_seq
from .simnet import ScenarioError, SimResult, TruthBlinks, TruthClock, run_scenario
from .solver import FixTable
from .topology import TopologyError
from .wcs import ArrivalTable, run_starts

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_IO = 4

# Ticks are numbers in [0, 2**40), written as an int when integer-valued.  REPEATING fields
# have few distinct values in a row block, each written and parsed once: seqs (shared by a
# blink's receivers, by tags that blink together, by the blinks between two CCPs) and
# repeating numbers (each anchor's clock rate, a grid's coordinates, the blink times).
check_ticks = partial(check_number, low=0, high=TICK_WRAP)
check_repeating = partial(check_number)
REPEATING = (check_seq, check_repeating)

# Each file's fields in line order, each the check that types it as it is read back and
# says how it is written: a str is a constant, a tuple a column of codes into its texts (a
# report's kind), ``check_id`` of codes into the ids.  A JSON-lines file's kinds map to them.
REPORTS_FIELDS = {"anchor_id": check_id, "kind": REPORT_KINDS, "src_id": check_id,
                  "seq": check_seq, "ticks": check_ticks}
TRUTH_BLINK_FIELDS = {"kind": "blink", "tag_id": check_id, "seq": check_seq,
                      "time": check_repeating, "x": check_number, "y": check_number}
TRUTH_CLOCK_FIELDS = {"kind": "clock", "anchor_id": check_id, **dict.fromkeys(
    ("offset", "skew", "drift_rate", "jitter_std"), check_number)}
FIXES_FIELDS = {"tag_id": check_id, "blink_seq": check_seq,
                **dict.fromkeys(("x", "y", "vx", "vy", "pos_std"), check_number)}
SYNCED_FIELDS = {"anchor_id": check_id, "tag_id": check_id, "blink_seq": check_seq,
                 "ccp_seq": check_seq, "offset": check_number, "rate": check_repeating}
ERRORS_FIELDS = {"tag_id": check_id, "blink_seq": check_seq, "err_m": check_number}
HDOP_FIELDS = {"x": check_repeating, "y": check_repeating, "hdop": check_number}
REPORTS_KINDS = dict.fromkeys(REPORT_KINDS, REPORTS_FIELDS)
TRUTH_KINDS = {"blink": TRUTH_BLINK_FIELDS, "clock": TRUTH_CLOCK_FIELDS}
FIXES_HEADER, SYNCED_HEADER = ",".join(FIXES_FIELDS), ",".join(SYNCED_FIELDS)


class CsvHeaderError(ValueError):
    """An input CSV whose first line is not the header its reader expects."""


# ---------------------------------------------------------------------------
# File formats


def _cells(name: str, check: Callable, values: np.ndarray, jsonl: bool) -> Iterable:
    """A block of a seq or number column as ``_lines`` writes it: each value's ``repr``
    (a float's reads back bit for bit), once per distinct value of a REPEATING field,
    integer-valued ticks as ints; in JSON lines a seq as the int ``str.format`` writes."""
    if check is check_seq:
        if values.dtype.kind not in "iu":
            raise TypeError(f"cannot write {name} of dtype {values.dtype} as integers")
        if jsonl:
            return values.tolist()
        text, bits = int.__repr__, values
    else:
        if jsonl and not np.isfinite(values).all():
            raise ValueError(f"cannot write a non-finite {name}")  # no reader here accepts it
        text, bits = float.__repr__, values.view(np.int64)  # by bits, so -0.0 is kept
    if check in REPEATING:
        distinct, index = np.unique(bits, return_inverse=True)
        return map(list(map(text, distinct.view(values.dtype).tolist())).__getitem__,
                   index.tolist())
    if check is not check_ticks:
        return map(text, values.tolist())
    cells = list(map(text, values.tolist()))
    for i in np.flatnonzero(values == np.trunc(values)).tolist():
        cells[i] = int.__repr__(int(values[i]))
    return cells


def _lines(fields: Mapping[str, object], ids: Sequence[str], *columns: np.ndarray,
           jsonl: bool = False) -> Iterator[str]:
    """A file as blocks of ``ROW_BLOCK`` lines, one per index of ``columns`` (one per field
    of ``fields`` but a constant): JSON lines (``jsonl``), each the object ``json.dumps``
    writes, or CSV after its header.  Codes are written as their texts, JSON-quoted in JSON,
    other fields by ``_cells``; the leading constant and code fields once per distinct
    combination in a block, whose lines are listed before they are joined.  A non-integer
    seq column raises ``TypeError``; a non-finite number in JSON lines ``ValueError``."""
    items = list(fields.items())
    lead = next((i for i, (_, f) in enumerate(items) if callable(f) and f is not check_id),
                len(items))
    quote = json.dumps if jsonl else str
    texts = [list(map(quote, ids if f is check_id else f)) for _, f in items[:lead]
             if not isinstance(f, str)]
    coded, rest = columns[:len(texts)], list(zip(items[lead:], columns[len(texts):]))
    if jsonl:
        head = "{{" + ",".join(f'"{name}":' + (json.dumps(f) if isinstance(f, str) else "{}")
                              for name, f in items[:lead])
        line = ("{}" + "".join(f',"{name}":{{}}' for (name, _), _ in rest) + "}}").format
    else:
        head = ",".join(["{}"] * lead)
        yield ",".join(name for name, _ in items) + "\n"

    def block(rows: slice) -> list[str]:  # its values are freed before the lines are joined
        cells = [_cells(name, f, c[rows], jsonl) for (name, f), c in rest]
        if lead:  # the line starts of a block, each written once
            key = np.zeros(len(columns[0][rows]), np.int64)
            for c, t in zip(coded, texts):
                key = key * len(t) + c[rows]
            distinct, index = np.unique(key, return_inverse=True)
            first = np.empty(len(distinct), np.intp)
            first[index] = np.arange(len(index))  # a row of each combination
            starts = list(map(head.format, *(map(t.__getitem__, c[rows][first].tolist())
                                             for c, t in zip(coded, texts))))
            cells.insert(0, map(starts.__getitem__, index.tolist()))
        return list(map(line, *cells) if jsonl else map(",".join, zip(*cells)))

    for rows in row_blocks(len(columns[0])):
        yield "\n".join(block(rows))
        yield "\n"


def reports_to_jsonl(reports: ReportColumns) -> Iterator[str]:
    """reports.jsonl as blocks of text, one line per report in column order."""
    return _lines(REPORTS_FIELDS, reports.ids, reports.anchor, reports.kind, reports.src,
                  reports.seq, reports.ticks, jsonl=True)


def truth_to_jsonl(blinks: TruthBlinks, clocks: Sequence[TruthClock]) -> Iterator[str]:
    """truth.jsonl as blocks of text: a line per blink in table order, then per clock."""
    numbers = np.array([dataclasses.astuple(c)[1:] for c in clocks], float).reshape(-1, 4).T
    return itertools.chain(
        _lines(TRUTH_BLINK_FIELDS, blinks.ids, blinks.tag, blinks.seq, blinks.time, blinks.x,
               blinks.y, jsonl=True),
        _lines(TRUTH_CLOCK_FIELDS, [c.anchor_id for c in clocks],
               np.arange(len(clocks), dtype=np.int32), *numbers, jsonl=True))


def fixes_to_csv(fixes: FixTable) -> Iterator[str]:
    """fixes.csv as blocks of text, one row per fix in table order."""
    return _lines(FIXES_FIELDS, fixes.ids, fixes.tag, fixes.blink_seq, fixes.x, fixes.y,
                  fixes.vx, fixes.vy, fixes.pos_std)


def synced_to_csv(blinks: ArrivalTable) -> Iterator[str]:
    """synced.csv as blocks of text: one row per arrival, in table order."""
    return _lines(SYNCED_FIELDS, blinks.ids, blinks.anchor, blinks.tag, blinks.blink_seq,
                  blinks.ccp_seq, blinks.offset, blinks.rate)


def errors_csv(errors: tuple[TruthBlinks, np.ndarray]) -> str:
    """errors.csv from ``fix_errors`` columns, as ``EvalSummary.errors`` holds them."""
    matched, err = errors
    return "".join(_lines(ERRORS_FIELDS, matched.ids, matched.tag, matched.seq, err))


def grid_to_csv(grid: HdopGrid) -> Iterator[str]:
    """hdop.csv as blocks of text, one row per grid point in grid order."""
    return _lines(HDOP_FIELDS, (), grid.x, grid.y, grid.hdop)


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
    pipe, which cannot be counted, starts at ``ROW_BLOCK`` rows), and is
    then copied down to its rows at the end.  A block's ids are coded as
    soon as ``parse`` accepts it, so only the ids of lines read go into the
    table; codes are ranked in place at the end.

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
    for i, column in enumerate(columns):  # one at a time: a grown column's copy replaces it
        columns[i] = column[:filled].copy() if len(column) > rows + 1 else column[:filled]
    for column in itertools.compress(columns, id_column):
        np.take(rank, column, out=column, mode="clip")  # codes are in range: no copy
    return tuple(ids), columns, skipped


def _plain_number(text: str) -> bool:
    """Whether ``text`` holds no whitespace, '_' or non-ASCII: int() reads them, no writer here."""
    return text.isascii() and not any(map(text.__contains__, " \t\v\f_"))


def _typed(name: str, check: Callable, values: list | np.ndarray) -> list | np.ndarray:
    """Field ``name``'s ``values`` as ``check`` passes them (or raises ``ValueError``):
    ids a list, seqs int64, other numbers float64."""
    column = check(name, values)
    return column if check is check_id else np.asarray(
        column, np.int64 if check is check_seq else np.float64)


def _column(name: str, check: Callable, texts: list[str]) -> list | np.ndarray:
    """Field ``name``'s CSV texts, ``_typed``: REPEATING fields parsed and checked once
    per distinct text, other numbers as one float array."""
    if check is check_id:
        return _typed(name, check, texts)
    if check not in REPEATING:
        return _typed(name, check, np.array(list(map(float, texts))))
    distinct = list(set(texts))
    typed = _typed(name, check, list(map(int if check is check_seq else float, distinct)))
    index = dict(zip(distinct, range(len(distinct))))
    return typed[np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))]


def _csv_columns(fields: Mapping[str, Callable], lines: list[str]) -> list[list | np.ndarray]:
    """The CSV rows ``lines`` as columns, one per field (see ``_column``); ValueError unless
    each row has a field per name, every field but an id is a plain number, and each
    field passes its check, tested in that order."""
    if set(map(str.count, lines, itertools.repeat(","))) - {len(fields) - 1}:
        raise ValueError(f"a row does not have {len(fields)} fields")
    texts = ",".join(lines).split(",") if lines else []
    columns = [texts[i::len(fields)] for i in range(len(fields))]
    for (name, check), column in zip(fields.items(), columns):
        if check is not check_id and not _plain_number("".join(column)):
            bad = next(itertools.filterfalse(_plain_number, column))
            raise ValueError(f"{name} must be a plain number, got {bad!r}")
    return list(map(_column, fields, fields.values(), columns))


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
    ids, (tag, seq, *numbers), skipped = _read_lines(
        path, partial(_csv_columns, FIXES_FIELDS), FIXES_HEADER)
    rows = np.sort(_first_reads(path, "fix", ids, tag, seq))
    return (FixTable(ids, tag[rows], seq[rows], *(c[rows] for c in numbers), np.zeros(len(rows))),
            skipped + len(seq) - len(rows))


def read_synced_csv(path: Path) -> tuple[ArrivalTable, int]:
    """Parse a synced.csv file back into an arrival table, skipping malformed
    rows, and repeats of an arrival already read, with a count."""
    ids, columns, skipped = _read_lines(path, partial(_csv_columns, SYNCED_FIELDS), SYNCED_HEADER)
    n, rows = len(columns[0]), _first_reads(path, "arrival", ids, *columns[1:3], columns[0])
    for i, column in enumerate(columns):  # one at a time: each copy replaces its column
        columns[i] = column[rows]
    anchor, tag, blink_seq, ccp_seq, offset, rate = columns
    return ArrivalTable(ids, tag, blink_seq, anchor, offset, ccp_seq, rate), skipped + n - len(rows)


def json_records(lines: Sequence[str], kinds: Mapping[str, Mapping]) -> tuple[list, list]:
    """The ``kind`` of each JSON object line, a key of ``kinds``, and its object.  One line
    is read by ``json.loads`` and must hold its kind's fields (any others are dropped).
    Several are read as one JSON array of one object per line, each line starting with
    ``{``, and ``json_columns`` checks that each holds exactly its kind's fields: ids, kinds
    and numbers hold no comma, so each line then reads as it would alone."""
    kind_of = dict(zip(kinds, kinds)).__getitem__  # each kind as one str object
    if len(lines) == 1:
        try:
            raw = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("line must be a JSON object")
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"kind must be one of {', '.join(kinds)}, got {kind!r}")
        if missing := [name for name in kinds[kind] if name not in raw]:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        return [kind_of(kind)], [{name: raw[name] for name in kinds[kind]}]
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
        found = list(map(kind_of, map(dict.__getitem__, rows, itertools.repeat("kind"))))
    except (json.JSONDecodeError, KeyError, TypeError):
        found = []
    # A block that parsed has no empty line: every line has a first character.
    if len(found) != len(lines) or "".join(map(operator.itemgetter(0), lines)) != "{" * len(lines):
        raise ValueError("a block must hold one JSON object of a known kind per line")
    return found, rows


def json_columns(rows: list[dict], fields: Mapping[str, object], kinds: Iterable[str]) -> list:
    """Each field's column but a constant's over ``rows``, ``json_records``' objects of kinds
    ``kinds``: a kind as int8 codes into its texts, others ``_typed``.  ``ValueError`` unless
    each row holds its fields alone; one missing from a row that size reads as None."""
    if rows and set(map(len, rows)) != {len(fields)}:
        raise ValueError(f"a line must hold exactly {', '.join(fields)}")
    columns = []
    for name, field in fields.items():
        if isinstance(field, tuple):
            columns.append(np.fromiter(map(field.index, kinds), np.int8, len(rows)))
        elif callable(field):
            columns.append(_typed(name, field, list(map(dict.get, rows,
                                                        itertools.repeat(name)))))
    return columns


def _jsonl_columns(kinds: Mapping[str, Mapping], lines: list[str]) -> list[list | np.ndarray]:
    """JSON lines (``json_records``) as the columns (``json_columns``) of the first kind's
    fields, over the lines of every kind that has them; a line of another kind (truth's
    clocks) is checked by its own fields and dropped."""
    found, rows = json_records(lines, kinds)
    keep = next(iter(kinds.values()))
    if dropped := {kind for kind, fields in kinds.items() if fields is not keep}:
        for kind in dropped:
            json_columns([row for row, k in zip(rows, found) if k == kind], kinds[kind],
                         itertools.repeat(kind))
        kept = [k not in dropped for k in found]
        rows, found = list(itertools.compress(rows, kept)), list(itertools.compress(found, kept))
    return json_columns(rows, keep, found)


def read_reports(path: Path) -> tuple[ReportColumns, int]:
    """Parse a reports.jsonl file into columns, skipping malformed lines with a count."""
    ids, columns, skipped = _read_lines(path, partial(_jsonl_columns, REPORTS_KINDS))
    return ReportColumns(ids, *columns), skipped


def read_truth(path: Path) -> tuple[TruthBlinks, int]:
    """Parse the blinks of a truth.jsonl file into columns, in file order,
    skipping malformed lines, and repeats of a (tag_id, seq) blink already
    read, with a count."""
    ids, (tag, seq, *numbers), skipped = _read_lines(path, partial(_jsonl_columns, TRUTH_KINDS))
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
    _write(out / "reports.jsonl", reports_to_jsonl(result.reports))
    _write(out / "truth.jsonl", truth_to_jsonl(result.truth_blinks, result.truth_clocks))
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
    report = build_deployment_report(cfg.scenario.topology, area=cfg.area,
                                     resolution=args.resolution)
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
