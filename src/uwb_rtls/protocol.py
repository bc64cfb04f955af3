"""The JSON-lines ToA report format anchors send to the engine.

Anchors do not exchange clock state; they only forward timestamped events to
the localization engine.  A report line carries who timestamped what:

    {"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}

``kind`` is one of ``blink_rx`` (tag blink reception), ``ccp_rx`` (clock
calibration packet reception), or ``ccp_tx`` (a master anchor's own CCP
transmission timestamp).

Both ids are plain ids (``is_plain_id``), the rule every anchor and tag id
meets where it enters the program, so no CSV field that holds one needs
quoting.  Lines are written in that one canonical form, which one compiled
pattern parses; any other JSON object line with the same fields reads the
same.

Reports travel as ``ReportColumns``, one array per field with ids and
kinds as integer codes, from the simulator to the file and from the file
to the sync.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

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


def id_codes(*columns: Sequence[str]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """The sorted ids of ``columns``, and each column as int32 codes into them."""
    ids = tuple(sorted(set().union(*columns)))
    code = {value: i for i, value in enumerate(ids)}.__getitem__
    return ids, [np.fromiter(map(code, c), np.int32, len(c)) for c in columns]


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

    @classmethod
    def from_fields(cls, anchor_ids, kinds, src_ids, seqs, ticks) -> ReportColumns:
        """Columns from one sequence per report field, in line order."""
        ids, (anchor, src) = id_codes(anchor_ids, src_ids)
        kind = np.fromiter(map(REPORT_KINDS.index, kinds), np.int8, len(kinds))
        return cls(ids, anchor, kind, src, np.array(seqs, np.int64), np.array(ticks, np.float64))


PLAIN_ID_RULE = (
    "an id must be a non-empty string with no ',', '\"', control character "
    "(U+0000-U+001F), or leading or trailing whitespace"
)
_PLAIN_ID = re.compile(r'(?!\s)[^,"\x00-\x1f]+(?<!\s)')


def is_plain_id(value: object) -> bool:
    """Whether ``value`` is a plain id; see ``PLAIN_ID_RULE``."""
    return isinstance(value, str) and _PLAIN_ID.fullmatch(value) is not None


@functools.lru_cache(maxsize=4096)
def plain_id(value: str) -> str:
    """``value`` interned, if it is a plain id; ``ValueError`` if not.  For
    ids read back from files, where they repeat on every line: cached, each
    distinct id is checked and stored once."""
    if not is_plain_id(value):
        raise ValueError(f"not a plain id: {value!r}")
    return sys.intern(value)


# Ids are JSON-quoted by json.dumps itself, so their escaping is the json
# module's; the cache makes that a dict lookup per id after the first.
json_string = functools.lru_cache(maxsize=4096)(json.dumps)


def json_number(value: float) -> str:
    """A finite int or float as ``json.dumps`` writes it.

    A float (``np.float64`` included) is written by ``float.__repr__``, an
    integer (``np.int64`` included) by ``int.__repr__`` of its index, so a
    numpy scalar is written as its value.  A bool, which JSON writes as
    ``true``/``false``, and any other type (``np.float32`` too) raise
    ``TypeError``; a non-finite float raises
    ``ValueError``: the JSON it would need is not standard, and no reader
    here accepts it.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot write non-finite number {value!r}")
        return float.__repr__(value)
    if isinstance(value, bool):
        raise TypeError(f"cannot write {value!r} as a JSON number")
    return int.__repr__(operator.index(value))


# The lines encode_reports writes, as a whole block of lines joined by
# newlines: fields in order, no whitespace, ids as JSON strings with no
# escape (``decode_reports`` checks they are plain), a known kind, seq an
# unsigned JSON integer and ticks an unsigned JSON number of at most 20
# integer digits (any other line is left to json.loads).
_ID = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL = re.compile(
    rf'^\{{"anchor_id":{_ID},"kind":"({"|".join(REPORT_KINDS)})","src_id":{_ID},'
    r'"seq":(0|[1-9][0-9]{0,19}),'
    r'"ticks":((?:0|[1-9][0-9]{0,19})(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)\}$',
    re.MULTILINE,
)
_LINE = '{{"anchor_id":{},"kind":{},"src_id":{},"seq":{},"ticks":{}}}\n'.format


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
    ids, kinds = list(map(json_string, reports.ids)), list(map(json_string, REPORT_KINDS))
    return "".join(map(
        _LINE, map(ids.__getitem__, reports.anchor[rows].tolist()),
        map(kinds.__getitem__, reports.kind[rows].tolist()),
        map(ids.__getitem__, reports.src[rows].tolist()), seq.tolist(), tick_text,
    ))


def decode_reports(lines: Sequence[str]) -> tuple[list, list, list, list, list]:
    """Parse report lines into five columns, one per field in line order.

    A block of canonical lines, with plain ids and seq and ticks in range,
    is parsed by one search of one compiled pattern.  Any other block goes
    line by line through ``json.loads`` and the field checks below: the
    first line that fails raises ``ValueError``."""
    text = "\n".join(lines)
    rows = _CANONICAL.findall(text)
    if rows and len(rows) == len(lines) == text.count("\n") + 1:
        anchor_ids, kinds, src_ids, seqs, ticks = zip(*rows)
        seqs = list(map(int, seqs))
        ticks = list(map(float, ticks))  # rounds as float(int(text)) would
        if (max(seqs) < SEQ_WRAP and max(ticks) < TICK_WRAP
                and all(map(is_plain_id, {*anchor_ids, *src_ids}))):
            # Ids and kinds repeat on every line: interned, each is stored once.
            anchor_ids, kinds, src_ids = (
                list(map(sys.intern, column)) for column in (anchor_ids, kinds, src_ids))
            return anchor_ids, kinds, src_ids, seqs, ticks
    columns = tuple(map(list, zip(*map(_decode_json, lines))))
    return columns or ([], [], [], [], [])


_REPORT_FIELDS = dict.fromkeys(REPORT_KINDS, ("anchor_id", "src_id", "seq", "ticks"))


def _decode_json(line: str) -> tuple:
    kind, (anchor_id, src_id, seq, ticks) = json_fields(line, _REPORT_FIELDS)
    return (check_id("anchor_id", anchor_id), sys.intern(kind), check_id("src_id", src_id),
            check_seq("seq", seq), float(check_number("ticks", ticks, 0, TICK_WRAP)))


# The checks of a JSON line read by json.loads, for reports and truth alike:
# each raises ValueError naming the field or returns its value (ids interned).


def json_fields(line: str, fields: Mapping[str, Sequence[str]]) -> tuple[str, list]:
    """The ``kind`` of a JSON object line, a key of ``fields``, and the
    values of that kind's fields, in ``fields[kind]`` order."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("line must be a JSON object")
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in fields:
        raise ValueError(f"kind must be one of {', '.join(fields)}, got {kind!r}")
    missing = [name for name in fields[kind] if name not in raw]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    return kind, [raw[name] for name in fields[kind]]


def check_id(name: str, value: object) -> str:
    if not is_plain_id(value):
        raise ValueError(f"{name} must be a plain id, got {value!r}")
    return sys.intern(value)


def check_seq(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < SEQ_WRAP:
        raise ValueError(f"{name} must be an integer in [0, 2**32), got {value!r}")
    return value


def check_number(name: str, value: object, low=-math.inf, high=math.inf) -> float:
    """``value``, an int or a float, if finite and in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            -sys.float_info.max <= value <= sys.float_info.max):  # NaN fails too
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not low <= value < high:
        raise ValueError(f"{name} {value!r} outside [{low}, {high})")
    return value
