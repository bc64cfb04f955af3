"""The JSON-lines ToA report format anchors send to the engine.

Anchors do not exchange clock state; they only forward timestamped events to
the localization engine.  A report line carries who timestamped what:

    {"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}

``kind`` is one of ``blink_rx`` (tag blink reception), ``ccp_rx`` (clock
calibration packet reception), or ``ccp_tx`` (a master anchor's own CCP
transmission timestamp).

Both ids are plain ids (``is_plain_id``), the rule every anchor and tag id
meets where it enters the program, so no CSV field that holds one needs
quoting.  Lines are written in that one form, and read a block at a time
by one ``json.loads`` and one check per field column; any other JSON
object line with the same fields reads the same.

Reports travel as ``ReportColumns``, one array per field with ids and
kinds as integer codes, from the simulator to the file and from the file
to the sync.  ``decode_reports`` gives a block of lines as one list per
field, and ``cli.read_reports`` codes each block's ids and kinds as soon
as the block is read.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .clock import TICK_WRAP

KIND_BLINK_RX = "blink_rx"
KIND_CCP_RX = "ccp_rx"
KIND_CCP_TX = "ccp_tx"
REPORT_KINDS = (KIND_BLINK_RX, KIND_CCP_RX, KIND_CCP_TX)
# A report's kind as ``ReportColumns`` codes it: its index in REPORT_KINDS.
BLINK_RX, CCP_RX, CCP_TX = range(len(REPORT_KINDS))

# Sequence numbers are 32-bit wrapping counters.
SEQ_WRAP = 2**32


def present_codes(n_ids: int, *columns: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The codes into a table of ``n_ids`` ids that any of ``columns`` holds,
    sorted, and each column as int32 codes into them: what ``np.unique`` of
    the columns' concatenation returns with its inverse, with no temporary
    longer than one column."""
    present = np.zeros(n_ids, dtype=bool)
    for column in columns:
        present[column] = True
    remap = np.cumsum(present, dtype=np.int32) - 1
    return np.flatnonzero(present), [remap[column] for column in columns]


@dataclass(frozen=True, eq=False)
class ReportColumns:
    """Reports as columns, one row per report, in any order: ``anchor``
    and ``src`` as int32 codes into ``ids``, the sorted ids of both, ``kind``
    as an int8 code into ``REPORT_KINDS``, ``seq`` int64, ``ticks`` float64.
    ``simnet.run_scenario`` simulates them and ``cli.read_reports`` reads
    them from a file."""

    ids: tuple[str, ...]
    anchor: np.ndarray
    kind: np.ndarray
    src: np.ndarray
    seq: np.ndarray
    ticks: np.ndarray

    def __len__(self) -> int:
        return len(self.seq)


PLAIN_ID_RULE = (
    "an id must be a non-empty string with no ',', '\"', control character "
    "(U+0000-U+001F), or leading or trailing whitespace"
)
_PLAIN_ID = re.compile(r'(?!\s)[^,"\x00-\x1f]+(?<!\s)')


def is_plain_id(value: object) -> bool:
    """Whether ``value`` is a plain id; see ``PLAIN_ID_RULE``."""
    return isinstance(value, str) and _PLAIN_ID.fullmatch(value) is not None


# Ids are JSON-quoted by json.dumps itself, so their escaping is the json
# module's; the cache makes that a dict lookup per id after the first.
json_string = functools.lru_cache(maxsize=4096)(json.dumps)


_LINE_START = '{{"anchor_id":{},"kind":{},"src_id":{},"seq":'.format
_LINE_END = '{}{},"ticks":{}}}\n'.format


def encode_reports(reports: ReportColumns, rows: slice = slice(None)) -> str:
    """Rows ``rows`` of ``reports`` as report lines, each ending in a newline.

    A line is what ``json.dumps`` writes for the fields in order, with
    integer-valued ticks written as an int.  A ``seq`` column that is not
    of an integer dtype raises ``TypeError``; a non-finite tick raises
    ``ValueError``: the JSON it would need is not standard, and no reader
    here accepts it.
    """
    seq, ticks = reports.seq[rows], reports.ticks[rows]
    if seq.dtype.kind not in "iu":
        raise TypeError(f"cannot write seq of dtype {seq.dtype} as JSON integers")
    if not np.isfinite(ticks).all():
        raise ValueError("cannot write non-finite ticks")
    tick_text = list(map(float.__repr__, ticks.tolist()))
    for i in np.flatnonzero(ticks == np.trunc(ticks)).tolist():
        tick_text[i] = int.__repr__(int(ticks[i]))
    # A run holds few (anchor, kind, source) triples: each one's line start is written once.
    n_ids, n_kinds = len(reports.ids), len(REPORT_KINDS)
    triples, triple_index = np.unique(
        (reports.anchor[rows].astype(np.int64) * n_kinds + reports.kind[rows]) * n_ids
        + reports.src[rows], return_inverse=True)
    anchor, kind = np.divmod(triples // n_ids, n_kinds)
    ids, kinds = list(map(json_string, reports.ids)), list(map(json_string, REPORT_KINDS))
    starts = list(map(_LINE_START, map(ids.__getitem__, anchor.tolist()),
                      map(kinds.__getitem__, kind.tolist()),
                      map(ids.__getitem__, (triples % n_ids).tolist())))
    return "".join(map(_LINE_END, map(starts.__getitem__, triple_index.tolist()), seq.tolist(),
                       tick_text))


def decode_reports(lines: Sequence[str]) -> tuple[list, list, list, list, list]:
    """Parse report lines into five columns, one per field in line order,
    with ``json_records`` and ``json_columns``: ``ValueError`` if they fail."""
    kinds, rows = json_records(lines, _REPORT_FIELDS)
    anchor_ids, src_ids, seqs, ticks = json_columns(rows, _REPORT_FIELDS[KIND_BLINK_RX])
    return anchor_ids, kinds, src_ids, seqs, list(map(float, ticks))


def json_records(lines: Sequence[str], fields: Mapping[str, Mapping]) -> tuple[list, list]:
    """The ``kind`` of each JSON object line, a key of ``fields``, and its
    object.  One line is read by ``json.loads`` and must hold its kind's
    fields (any others are dropped).  Several are read as one JSON array of
    one object per line, each line starting with ``{``, and ``json_columns``
    checks that each holds exactly its kind's fields: ids, kinds and numbers
    hold no comma, so each line then reads as it would alone."""
    kind_of = dict(zip(fields, fields)).__getitem__  # each kind as one str object
    if len(lines) == 1:
        try:
            raw = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("line must be a JSON object")
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in fields:
            raise ValueError(f"kind must be one of {', '.join(fields)}, got {kind!r}")
        if missing := [name for name in fields[kind] if name not in raw]:
            raise ValueError(f"missing fields: {', '.join(missing)}")
        return [kind_of(kind)], [{name: raw[name] for name in ("kind", *fields[kind])}]
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
        kinds = list(map(kind_of, map(dict.__getitem__, rows, repeat("kind"))))
    except (json.JSONDecodeError, KeyError, TypeError):
        kinds = []
    # A block that parsed has no empty line: every line has a first character.
    if len(kinds) != len(lines) or "".join(map(operator.itemgetter(0), lines)) != "{" * len(lines):
        raise ValueError("a block must hold one JSON object of a known kind per line")
    return kinds, rows


def json_columns(rows: list[dict], checks: Mapping[str, Callable[[str, list], list]]) -> list:
    """Each field's column over ``rows``, objects of one kind, as its check returns
    it; ``ValueError`` unless each holds ``kind`` and these fields alone.  A field
    missing from a row of the right size reads as None, which no check passes."""
    if rows and set(map(len, rows)) != {len(checks) + 1}:
        raise ValueError(f"a line must hold exactly kind, {', '.join(checks)}")
    return [check(name, list(map(dict.get, rows, repeat(name)))) for name, check in checks.items()]


# The checks of a field's column, JSON and CSV lines alike: each returns the column, or
# raises ValueError at its first bad value, sought only if a whole-column test fails.
# The CSV readers pass a column's distinct values, or a float array whose dtype settles
# the type, so no value's type is tested twice.


def check_id(name: str, column: list) -> list[str]:
    """``column``, plain ids."""
    try:
        plain = all(map(is_plain_id, set(column)))
    except TypeError:  # an unhashable value: a JSON array or object
        plain = False
    if not plain:
        for value in column:
            if not is_plain_id(value):
                raise ValueError(f"{name} must be a plain id, got {value!r}")
    return column


def check_seq(name: str, column: list) -> list[int]:
    """``column``, ints (not bools) in [0, 2**32)."""
    ok = (set(map(type, column)) <= {int}
          and 0 <= min(column, default=0) and max(column, default=0) < SEQ_WRAP)
    if not ok:
        for value in column:
            if type(value) is not int or not 0 <= value < SEQ_WRAP:
                raise ValueError(f"{name} must be an integer in [0, 2**32), got {value!r}")
    return column


def check_number(name: str, column: list | np.ndarray, low=-math.inf, high=math.inf):
    """``column``, ints or floats (not bools), finite and in [low, high): a
    list, or a float array, whose dtype settles the type."""
    typed = isinstance(column, np.ndarray)
    try:  # math.isfinite of an int beyond the floats raises OverflowError
        ok = (np.isfinite(column).all() if typed else
              set(map(type, column)) <= {int, float} and math.isfinite(sum(column)))
        ok = ok and (low == -math.inf or low <= min(column, default=low)) and (
            high == math.inf or max(column, default=low) < high)
    except OverflowError:
        ok = False
    if not ok:
        for value in column.tolist() if typed else column:
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # NaN
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            if not low <= value < high:
                raise ValueError(f"{name} {value!r} outside [{low}, {high})")
    return column


_REPORT_FIELDS = dict.fromkeys(REPORT_KINDS, {  # every kind's fields, and the check of each
    "anchor_id": check_id, "src_id": check_id, "seq": check_seq,
    "ticks": functools.partial(check_number, low=0, high=TICK_WRAP)})
