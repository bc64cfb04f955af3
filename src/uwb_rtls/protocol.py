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
from typing import Iterable, NamedTuple, Sequence

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


class ReportDecodeError(ValueError):
    """A report line that cannot be turned into a ToaReport; the message says why."""


class ToaReport(NamedTuple):
    """One timestamped event reported by an anchor to the engine.

    ``src_id`` is the tag for ``blink_rx``, the transmitting master for
    ``ccp_rx``, and the anchor itself for ``ccp_tx``.  ``ticks`` is the
    anchor's counter reading, a float in [0, 2**40) (see ``clock``).
    """

    anchor_id: str
    kind: str
    src_id: str
    seq: int
    ticks: float


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
    ``simnet.run_scenario`` simulates them, ``cli.read_reports`` reads them
    from a file, and ``from_reports`` builds them from ``ToaReport`` records."""

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
        """Columns from one sequence per ``ToaReport`` field."""
        ids, (anchor, src) = id_codes(anchor_ids, src_ids)
        kind = np.fromiter(map(REPORT_KINDS.index, kinds), np.int8, len(kinds))
        return cls(ids, anchor, kind, src, np.array(seqs, np.int64), np.array(ticks, np.float64))

    @classmethod
    def from_reports(cls, records: Iterable[ToaReport]) -> ReportColumns:
        return cls.from_fields(*(tuple(zip(*records)) or ((),) * 5))


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
    """Parse report lines into five columns, one per ``ToaReport`` field.

    A block of canonical lines, with plain ids and seq and ticks in range,
    is parsed by one search of one compiled pattern.  Any other block goes
    line by line through ``json.loads`` and checks that word every error:
    the first line that fails raises ``ReportDecodeError``."""
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


def decode_report(line: str) -> ToaReport:
    """One JSON report line, checked as ``decode_reports`` checks a block."""
    return ToaReport(*(column[0] for column in decode_reports([line])))


def _decode_json(line: str) -> ToaReport:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReportDecodeError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ReportDecodeError("report line must be a JSON object")

    missing = [k for k in ToaReport._fields if k not in raw]
    if missing:
        raise ReportDecodeError(f"missing fields: {', '.join(missing)}")

    anchor_id, kind, src_id, seq, ticks = (raw[k] for k in ToaReport._fields)

    if not (is_plain_id(anchor_id) and is_plain_id(src_id)):
        raise ReportDecodeError(
            f"anchor_id and src_id must be plain ids, got {anchor_id!r} and {src_id!r}"
        )
    if kind not in REPORT_KINDS:
        raise ReportDecodeError(f"unknown report kind {kind!r}")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ReportDecodeError("seq must be an integer")
    if seq < 0 or seq >= SEQ_WRAP:
        raise ReportDecodeError(f"seq {seq} outside [0, 2**32)")
    if isinstance(ticks, bool) or not isinstance(ticks, (int, float)):
        raise ReportDecodeError("ticks must be a number")
    if not 0 <= ticks < TICK_WRAP:
        raise ReportDecodeError(f"ticks {ticks!r} outside [0, 2**40)")

    return ToaReport(sys.intern(anchor_id), sys.intern(kind), sys.intern(src_id), seq, float(ticks))
