"""The JSON-lines ToA report format anchors send to the engine.

Anchors do not exchange clock state; they only forward timestamped events to
the localization engine.  A report line carries who timestamped what:

    {"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}

``kind`` is one of ``blink_rx`` (tag blink reception), ``ccp_rx`` (clock
calibration packet reception), or ``ccp_tx`` (a master anchor's own CCP
transmission timestamp).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .clock import TICK_WRAP

KIND_BLINK_RX = "blink_rx"
KIND_CCP_RX = "ccp_rx"
KIND_CCP_TX = "ccp_tx"
REPORT_KINDS = (KIND_BLINK_RX, KIND_CCP_RX, KIND_CCP_TX)

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


def encode_report(report: ToaReport) -> str:
    """Render a report as one compact JSON line (no trailing newline)."""
    ticks = report.ticks
    if isinstance(ticks, float) and ticks.is_integer():
        ticks = int(ticks)
    return json.dumps(
        {
            "anchor_id": report.anchor_id,
            "kind": report.kind,
            "src_id": report.src_id,
            "seq": report.seq,
            "ticks": ticks,
        },
        separators=(",", ":"),
    )


def decode_report(line: str) -> ToaReport:
    """Parse one JSON report line, validating kind, seq, and tick range."""
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReportDecodeError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ReportDecodeError("report line must be a JSON object")

    missing = [k for k in ToaReport._fields if k not in raw]
    if missing:
        raise ReportDecodeError(f"missing fields: {', '.join(missing)}")

    anchor_id = raw["anchor_id"]
    kind = raw["kind"]
    src_id = raw["src_id"]
    seq = raw["seq"]
    ticks = raw["ticks"]

    if not isinstance(anchor_id, str) or not isinstance(src_id, str):
        raise ReportDecodeError("anchor_id and src_id must be strings")
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

    return ToaReport(anchor_id, kind, src_id, seq, float(ticks))
