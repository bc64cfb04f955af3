"""Shared builders for the test suite.

Most tests exercise a 6 m x 4 m rectangular room with a master anchor at
the origin and slaves on the remaining corners, so those pieces live here,
with a large multi-master hall for the tests that want much varied traffic.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import random
import re
import tempfile
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
import pytest

from uwb_rtls.cli import (FIXES_HEADER, REPORTS_KINDS, SYNCED_HEADER, TRUTH_KINDS, _jsonl_columns,
                          fixes_to_csv, read_fixes_csv, read_reports, read_synced_csv, read_truth,
                          reports_to_jsonl, synced_to_csv, truth_to_jsonl)
from uwb_rtls.clock import ClockModel, IDEAL_CLOCK
from uwb_rtls.config import parse_config
from uwb_rtls.engine import locate_reports
from uwb_rtls.protocol import REPORT_KINDS, ReportColumns
from uwb_rtls.simnet import SimResult, TruthBlinks, run_scenario
from uwb_rtls.solver import BlinkRows, FixTable
from uwb_rtls.topology import AnchorConfig, NetworkTopology
from uwb_rtls.wcs import ArrivalTable

RECT_POSITIONS = {
    "MA1": (0.0, 0.0),
    "SA2": (6.0, 0.0),
    "SA3": (6.0, 4.0),
    "SA4": (0.0, 4.0),
}

# Arbitrary but fixed imperfections, well inside the +/-100 ppm skew limit.
RECT_CLOCKS = {
    "MA1": ClockModel(offset=0.0012, skew=8e-6),
    "SA2": ClockModel(offset=-0.0034, skew=-1.2e-5),
    "SA3": ClockModel(offset=0.0075, skew=2.1e-5),
    "SA4": ClockModel(offset=-0.0006, skew=-3.3e-5),
}


def build_rect_topology(
    clocks: dict[str, ClockModel] | None = None,
    jitter_std: float = 0.0,
) -> NetworkTopology:
    """Single-master rectangle; optional clock overrides and jitter."""
    anchors = []
    for anchor_id, position in RECT_POSITIONS.items():
        overrides = RECT_CLOCKS if clocks is None else clocks
        clock = overrides.get(anchor_id, IDEAL_CLOCK)
        if jitter_std:
            clock = ClockModel(
                offset=clock.offset,
                skew=clock.skew,
                drift_rate=clock.drift_rate,
                jitter_std=jitter_std,
            )
        role = "master" if anchor_id == "MA1" else "slave"
        anchors.append(AnchorConfig(id=anchor_id, role=role, position=position, clock=clock))
    return NetworkTopology(
        anchors=tuple(anchors),
        follow={a: frozenset({"MA1"}) for a in RECT_POSITIONS if a != "MA1"},
        master_level={"MA1": 1},
    )


def build_ideal_rect_topology() -> NetworkTopology:
    return build_rect_topology(clocks={})


@pytest.fixture
def rect_topology() -> NetworkTopology:
    return build_rect_topology()


@pytest.fixture
def ideal_rect_topology() -> NetworkTopology:
    return build_ideal_rect_topology()


# A 40 m x 40 m hall: 36 anchors on an 8 m grid, a primary master in the
# middle and three level-2 masters around it, a 24 m reception radius and
# four tags touring the quadrants.  Clock phases lie anywhere in one counter
# wrap, so the tick readings cover the whole [0, 2**40) range.
HALL_MASTERS = {(16.0, 16.0): "MA01", (32.0, 16.0): "MB01", (16.0, 32.0): "MB02",
                (32.0, 32.0): "MB03"}
HALL_RADIUS = 24.0


def hall_config(duration: float = 20.0, seed: int = 1) -> dict:
    """The hall as a scenario config, its clocks and paths drawn from ``seed``."""
    rng = random.Random(seed)
    anchors = []
    for k, pos in enumerate((8.0 * i, 8.0 * j) for j in range(6) for i in range(6)):
        entry: dict = {"position": list(pos)}
        master = HALL_MASTERS.get(pos)
        if master == "MA01":
            entry.update(id=master, role="master", level=1)
        elif master is not None:
            entry.update(id=master, role="master", level=2,
                         lag_slot=int(master[-1]), follows=["MA01"])
        else:
            heard = sorted(m for mpos, m in HALL_MASTERS.items()
                           if math.dist(mpos, pos) <= HALL_RADIUS)
            entry.update(id=f"SA{k:02d}", role="slave", follows=heard)
        entry["clock"] = {"offset": rng.uniform(0.0, 17.2), "skew": rng.uniform(-2e-5, 2e-5),
                          "jitter_std": 1e-10}
        anchors.append(entry)
    corners = [(10.0, 10.0), (30.0, 10.0), (30.0, 30.0), (10.0, 30.0)]
    tags = []
    for n in range(4):
        points = [[duration * i / 4, *corners[(n + i) % 4]] for i in range(5)]
        tags.append({"id": f"T{n:03d}", "trajectory": {"kind": "waypoints", "points": points}})
    return {"anchors": anchors, "tags": tags, "duration": duration, "seed": seed,
            "reception_radius": HALL_RADIUS, "area": [[0.0, 0.0], [40.0, 40.0]]}


@pytest.fixture(scope="session")
def hall_run() -> SimResult:
    return run_scenario(parse_config(hall_config()).scenario)


def id_codes(*columns: tuple[str, ...]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sorted ids of ``columns``, and each column as int32 codes into them."""
    ids = tuple(sorted(set().union(*columns)))
    code = {value: i for i, value in enumerate(ids)}
    return ids, [np.array([code[value] for value in c], np.int32) for c in columns]


def report_columns(rows: Iterable[tuple]) -> ReportColumns:
    """Report columns of plain ``(anchor_id, kind, src_id, seq, ticks)``
    tuples, one row each, in order."""
    anchor_ids, kinds, src_ids, seqs, ticks = tuple(zip(*rows)) or ((),) * 5
    ids, (anchor, src) = id_codes(anchor_ids, src_ids)
    return ReportColumns(ids, anchor, np.array([REPORT_KINDS.index(k) for k in kinds], np.int8),
                         src, np.array(seqs, np.int64), np.array(ticks, np.float64))


def report_rows(reports: ReportColumns) -> list[tuple]:
    """The rows of report columns as plain ``(anchor_id, kind, src_id, seq,
    ticks)`` tuples, in row order: what ``report_columns`` reads back."""
    return list(zip(map(reports.ids.__getitem__, reports.anchor.tolist()),
                    map(REPORT_KINDS.__getitem__, reports.kind.tolist()),
                    map(reports.ids.__getitem__, reports.src.tolist()),
                    reports.seq.tolist(), reports.ticks.tolist()))


def truth_columns(rows: Iterable[tuple]) -> TruthBlinks:
    """Truth columns of plain ``(tag_id, seq, time, x, y)`` tuples, one row
    each, in order."""
    tag_ids, seqs, *numbers = tuple(zip(*rows)) or ((),) * 5
    ids, (tag,) = id_codes(tag_ids)
    return TruthBlinks(ids, tag, np.array(seqs, np.int64), *(np.array(c, float) for c in numbers))


def fix_table(rows: Iterable[tuple]) -> FixTable:
    """A fix table of plain ``(tag_id, blink_seq, x, y, vx, vy, pos_std,
    residual_norm)`` tuples, one row each, in order."""
    tag_ids, seqs, *numbers = tuple(zip(*rows)) or ((),) * 8
    ids, (tag,) = id_codes(tag_ids)
    return FixTable(ids, tag, np.array(seqs, np.int64), *(np.array(c, float) for c in numbers))


def fix_rows(fixes: FixTable) -> list[tuple]:
    """The rows of a fix table as plain ``(tag_id, blink_seq, x, y, vx, vy,
    pos_std, residual_norm)`` tuples, in row order: what ``fix_table``
    reads back."""
    return list(zip(map(fixes.ids.__getitem__, fixes.tag.tolist()), fixes.blink_seq.tolist(),
                    *(c.tolist() for c in (fixes.x, fixes.y, fixes.vx, fixes.vy, fixes.pos_std,
                                           fixes.residual_norm))))


def fixes_of(fixes: FixTable, tag_id: str) -> FixTable:
    """The fixes of one tag, in table order, as a table of that tag alone."""
    rows = fixes.tag == fixes.ids.index(tag_id)
    return FixTable((tag_id,), np.zeros(np.count_nonzero(rows), np.int32), *(
        getattr(fixes, name)[rows] for name in ("blink_seq", "x", "y", "vx", "vy", "pos_std",
                                                "residual_norm")))


def first_rows(table, n: int):
    """The first ``n`` rows of a column table (reports, truth, fixes or arrivals)."""
    return dataclasses.replace(table, **{name: getattr(table, name)[:n]
                                         for name in table.__dataclass_fields__ if name != "ids"})


def report_lines(reports: ReportColumns) -> list[str]:
    """The lines ``reports_to_jsonl`` writes for ``reports``, less their newlines."""
    return "".join(reports_to_jsonl(reports)).splitlines()


def truth_lines(truth: TruthBlinks, clocks=()) -> list[str]:
    """The lines ``truth_to_jsonl`` writes for ``truth`` and ``clocks``, less their newlines."""
    return "".join(truth_to_jsonl(truth, clocks)).splitlines()


def parsed_reports(lines: list[str]) -> list[tuple]:
    """The rows cli's JSON-lines parser reads from a block of report lines, as plain
    ``(anchor_id, kind, src_id, seq, ticks)`` tuples; ValueError if it rejects them."""
    anchor, kind, src, seq, ticks = _jsonl_columns(REPORTS_KINDS, lines)
    return list(zip(anchor, map(REPORT_KINDS.__getitem__, kind.tolist()), src, seq.tolist(),
                    ticks.tolist()))


def parsed_truth(lines: list[str]) -> list[tuple]:
    """The blink rows cli's JSON-lines parser reads from a block of truth lines, as plain
    ``(tag_id, seq, time, x, y)`` tuples; clock lines are checked and read no row."""
    tag, seq, *numbers = _jsonl_columns(TRUTH_KINDS, lines)
    return list(zip(tag, seq.tolist(), *(c.tolist() for c in numbers)))


def truth_rows(truth: TruthBlinks) -> list[tuple]:
    """The rows of truth columns as plain ``(tag_id, seq, time, x, y)``
    tuples, in row order: what ``truth_columns`` reads back."""
    return list(zip(map(truth.ids.__getitem__, truth.tag.tolist()), truth.seq.tolist(),
                    truth.time.tolist(), truth.x.tolist(), truth.y.tolist()))


# ---------------------------------------------------------------------------
# JSON input lines with a bad field

REPORT = '{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":7,"ticks":12345.5}'
BLINK = '{"kind":"blink","tag_id":"T1","seq":3,"time":0.3,"x":2.0,"y":-1.5}'
CLOCK = ('{"kind":"clock","anchor_id":"SA2","offset":-0.0034,"skew":-1.2e-05,'
         '"drift_rate":0.0,"jitter_std":1e-10}')

# Bad values, as JSON text, of a field that each of ``protocol``'s field
# checks reads: an id, a seq or a number.  A check rejects each value alike
# in a report line and in a truth line.
BAD_FIELDS = [
    *(("id", value) for value in ["5", "null", '"T,1"', '"T\\"1"', '"T1\\n"', '" T1"', '""',
                                  '"SA2 "', '"A\\u0001"']),
    *(("id", json.dumps(value)) for value in ['S"A', "SA\n2", "T\t1", "T\u2028", "SA2,"]),
    *(("seq", value) for value in ['"3"', "true", "null", "3.0", "7e0", "-1", str(2**32),
                                   "9" * 25]),
    *(("number", value) for value in ['"abc"', '"12345.5"', "null", "true", "NaN", "Infinity",
                                      "-Infinity", "1e400", "1" + "0" * 400]),
]
# The fields each check reads: (line, field) pairs of a report and of truth.
REPORT_FIELDS = {"id": [(REPORT, "anchor_id"), (REPORT, "src_id")], "seq": [(REPORT, "seq")],
                 "number": [(REPORT, "ticks")]}
TRUTH_FIELDS = {"id": [(BLINK, "tag_id"), (CLOCK, "anchor_id")], "seq": [(BLINK, "seq")],
                "number": [(BLINK, "x"), (CLOCK, "offset")]}


def with_field(line: str, field: str, value: str) -> str:
    """``line`` with ``value``, JSON text, as the value of ``field``."""
    return re.sub(rf'"{field}":(?:"[^"]*"|[^,}}]*)', lambda _: f'"{field}":{value}', line,
                  count=1)


# ---------------------------------------------------------------------------
# Input files


def arrival_rows(table: ArrivalTable) -> list[tuple]:
    """The rows of an arrival table as plain ``(anchor_id, tag_id, blink_seq,
    ccp_seq, offset, rate)`` tuples, synced.csv's fields, in row order."""
    return list(zip(map(table.ids.__getitem__, table.anchor.tolist()),
                    map(table.ids.__getitem__, table.tag.tolist()), table.blink_seq.tolist(),
                    table.ccp_seq.tolist(), table.offset.tolist(), table.rate.tolist()))


# Each input file's reader, what turns its result into a list of rows, the
# order the reader puts the rows of a file in (file order, but synced.csv's
# arrivals come in (tag_id, blink_seq, anchor_id) order) and the file's header.
FILE_READERS = {"reports.jsonl": (read_reports, report_rows, list, None),
                "truth.jsonl": (read_truth, truth_rows, list, None),
                "fixes.csv": (read_fixes_csv, fix_rows, list, FIXES_HEADER),
                "synced.csv": (read_synced_csv, arrival_rows,
                               lambda rows: sorted(rows, key=itemgetter(1, 2, 0)), SYNCED_HEADER)}


@pytest.fixture(scope="session")
def simulated_lines(hall_run) -> dict[str, list[str]]:
    """Forty lines of each input file as ``simulate`` and ``locate`` write
    them, one record each and no header: reports, truth blinks, fixes and
    arrivals."""
    cfg = parse_config(hall_config())
    located = locate_reports(hall_run.reports, cfg.scenario.topology, cfg.engine_params())
    return {"reports.jsonl": report_lines(first_rows(hall_run.reports, 40)),
            "truth.jsonl": truth_lines(first_rows(hall_run.truth_blinks, 40)),
            "fixes.csv": "".join(fixes_to_csv(located.fixes)).splitlines()[1:41],
            "synced.csv": "".join(synced_to_csv(located.blinks)).splitlines()[1:41]}


def read_file(name: str, lines: list[str]) -> tuple[list, int, list[str]]:
    """What the reader of ``name`` makes of a file holding ``lines``, after
    its header if it has one: its rows, its skip count and the warnings it
    logs, with the file's path written as ``<path>``."""
    reader, rows, _, header = FILE_READERS[name]
    messages: list[str] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("uwb_rtls.cli")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, name)
        path.write_text("".join(line + "\n" for line in [*filter(None, [header]), *lines]),
                        encoding="utf-8")
        logger.addHandler(handler)
        try:
            records, skipped = reader(path)
        finally:
            logger.removeHandler(handler)
    return rows(records), skipped, [m.replace(str(path), "<path>") for m in messages]


def assert_reads_among_as_alone(simulated_lines: dict, name: str, line: str) -> None:
    """``line``, placed in the middle of simulated lines in a file ``name``,
    reads to the same rows, skip count and warning text as ``line`` alone
    in a file: a block holding it reads as its lines do."""
    simulated = simulated_lines[name]
    k = len(simulated) // 2
    first = 1 if FILE_READERS[name][3] is None else 2  # the number of the first line read
    alone, alone_skipped, alone_warnings = read_file(name, [line])
    sim = read_file(name, simulated)[0]
    among, skipped, warnings = read_file(name, [*simulated[:k], line, *simulated[k:]])
    assert repr(among) == repr(FILE_READERS[name][2](sim[:k] + alone + sim[k:]))
    assert skipped == alone_skipped
    assert warnings == [w.replace(f"{name} line {first} ", f"{name} line {first + k} ")
                        for w in alone_warnings]


# ---------------------------------------------------------------------------
# Arrival tables


def arrival_table(blinks: dict) -> ArrivalTable:
    """An arrival table of ``{(tag_id, blink_seq): {anchor_id: (offset,
    ccp_seq, rate)}}``, its rows sorted as the sync sorts them."""
    rows = sorted((tag, seq, anchor, *arrival) for (tag, seq), arrivals in blinks.items()
                  for anchor, arrival in arrivals.items())
    tags, seqs, anchors, offsets, ccp_seqs, rates = zip(*rows) if rows else ((),) * 6
    ids, (tag, anchor) = id_codes(tags, anchors)
    return ArrivalTable(ids, tag, np.array(seqs, np.int64), anchor, np.array(offsets, float),
                        np.array(ccp_seqs, np.int64), np.array(rates, float))


def blink_rows(table: ArrivalTable) -> dict[tuple[str, int], dict[str, int]]:
    """Each blink's row of the table per receiving anchor, in row order."""
    rows: dict[tuple[str, int], dict[str, int]] = {}
    for i, (tag, seq, anchor) in enumerate(zip(table.tag.tolist(), table.blink_seq.tolist(),
                                               table.anchor.tolist())):
        rows.setdefault((table.ids[tag], seq), {})[table.ids[anchor]] = i
    return rows


def same_columns(a, b) -> bool:
    """Whether two tables (or report columns) hold the same ids and the same
    columns, dtype and bits."""
    if type(a) is not type(b) or a.ids != b.ids:
        return False
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if name != "ids" and (x.dtype != y.dtype or x.tobytes() != y.tobytes()):
            return False
    return True


# ---------------------------------------------------------------------------
# Tracker input


class TdoaSet(NamedTuple):
    """One blink's ``arrivals`` as a record: (anchor_id, c x arrival time in
    meters) per synchronized receiver, in anchor-id order, against any
    common origin."""

    tag_id: str
    blink_seq: int
    arrivals: tuple[tuple[str, float], ...]


def tracker_rows(sets, anchors) -> BlinkRows:
    """The tracker's input for ``sets``, one run of rows per set in their
    order, each row's anchor coded into the sorted ids of ``anchors``."""
    ids = tuple(sorted({s.tag_id for s in sets}))
    names = sorted(anchors)
    size = np.array([len(s.arrivals) for s in sets], np.int64)
    rows = [row for s in sets for row in s.arrivals]
    return BlinkRows(ids, np.array([ids.index(s.tag_id) for s in sets], np.int64),
                     np.array([s.blink_seq for s in sets], np.int64), np.cumsum(size) - size,
                     size, np.array([t for _, t in rows], float),
                     np.array([names.index(a) for a, _ in rows], np.int64),
                     np.array([anchors[a] for a in names], float).reshape(-1, 2))


def layout(meas: TdoaSet, anchors) -> tuple[np.ndarray, np.ndarray]:
    """One set's anchor positions (m, 2) and arrivals (m,), as ``ls_solve``
    takes them."""
    return tracker_rows([meas], anchors).arrivals(0)
