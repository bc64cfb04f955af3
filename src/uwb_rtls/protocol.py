"""The ToA reports anchors send to the engine: their data model, the
plain-id rule and the field checks every reader applies.

Anchors do not exchange clock state; they only forward timestamped events to
the localization engine.  A report says which anchor timestamped what: the
kind of event (``blink_rx``, a tag blink's reception; ``ccp_rx``, a clock
calibration packet's; ``ccp_tx``, a master anchor's own CCP transmission),
its source's id and sequence number, and the anchor's clock reading in ticks.

Both ids are plain ids (``is_plain_id``), the rule every anchor and tag id
meets where it enters the program, so no CSV field that holds one needs
quoting.  Reports travel as ``ReportColumns`` from the simulator to the file
and from the file to the sync; ``cli`` holds every file's text, and its
readers type each field column with the checks here.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

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
