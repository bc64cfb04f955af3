"""Report line encoding and strict decoding."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwb_rtls import protocol
from uwb_rtls.clock import TICK_WRAP
from uwb_rtls.protocol import (
    KIND_BLINK_RX,
    KIND_CCP_RX,
    KIND_CCP_TX,
    REPORT_KINDS,
    SEQ_WRAP,
    ReportColumns,
    ReportDecodeError,
    ToaReport,
    decode_report,
    encode_reports,
)

from conftest import report_records


def columns(*reports: ToaReport) -> ReportColumns:
    """The report columns of ``reports``, seq and ticks as numpy makes
    arrays of their values (ticks as float64)."""
    ids = tuple(sorted({i for r in reports for i in (r.anchor_id, r.src_id)}))
    return ReportColumns(
        ids, np.array([ids.index(r.anchor_id) for r in reports], np.int32),
        np.array([REPORT_KINDS.index(r.kind) for r in reports], np.int8),
        np.array([ids.index(r.src_id) for r in reports], np.int32),
        np.array([r.seq for r in reports]), np.array([r.ticks for r in reports], np.float64))


def report_line(r: ToaReport) -> str:
    """The line ``encode_reports`` writes for one report, as a one-row
    column set, less its newline."""
    text = encode_reports(columns(r))
    assert text.count("\n") == 1 and text.endswith("\n")
    return text[:-1]


def test_blink_rx_line_format():
    r = ToaReport("SA2", KIND_BLINK_RX, "T1", 7, 12345.0)
    assert report_line(r) == '{"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}'


def test_ccp_tx_line_format():
    r = ToaReport("MA1", KIND_CCP_TX, "MA1", 3, 999.0)
    assert report_line(r) == '{"anchor_id":"MA1","kind":"ccp_tx","src_id":"MA1","seq":3,"ticks":999}'


def test_fractional_ticks_survive_the_line():
    r = ToaReport("SA3", KIND_CCP_RX, "MA1", 0, 12345.625)
    line = report_line(r)
    assert json.loads(line)["ticks"] == 12345.625
    assert decode_report(line) == r


ids = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="-_"),
    min_size=1,
    max_size=12,
)


@given(
    anchor_id=ids,
    kind=st.sampled_from(sorted(REPORT_KINDS)),
    src_id=ids,
    seq=st.integers(min_value=0, max_value=SEQ_WRAP - 1),
    ticks=st.one_of(
        st.integers(min_value=0, max_value=TICK_WRAP - 1).map(float),
        st.floats(min_value=0.0, max_value=TICK_WRAP - 1, allow_nan=False),
    ),
)
def test_decode_inverts_encode(anchor_id, kind, src_id, seq, ticks):
    r = ToaReport(anchor_id, kind, src_id, seq, ticks)
    assert decode_report(report_line(r)) == r


def test_not_json_is_malformed():
    with pytest.raises(ReportDecodeError, match="not valid JSON"):
        decode_report("{nope")


def test_missing_field_is_malformed():
    with pytest.raises(ReportDecodeError, match="missing fields") as e:
        decode_report('{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":1}')
    assert "ticks" in str(e.value)


def test_unknown_kind():
    with pytest.raises(ReportDecodeError, match="unknown report kind"):
        decode_report('{"anchor_id":"A","kind":"sync_rx","src_id":"T","seq":1,"ticks":5}')


def test_ticks_out_of_range():
    line = '{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":1,"ticks":%d}' % TICK_WRAP
    with pytest.raises(ReportDecodeError, match=r"ticks .* outside \[0, 2\*\*40\)"):
        decode_report(line)
    with pytest.raises(ReportDecodeError, match=r"ticks .* outside \[0, 2\*\*40\)"):
        decode_report(line.replace(str(TICK_WRAP), "-1"))


def test_seq_out_of_range():
    line = '{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":%d,"ticks":5}' % SEQ_WRAP
    with pytest.raises(ReportDecodeError, match=r"seq .* outside \[0, 2\*\*32\)"):
        decode_report(line)


def test_every_decode_error_is_a_report_decode_error():
    assert issubclass(ReportDecodeError, ValueError)


# ---------------------------------------------------------------------------
# The template encoder and the canonical-line parser against json itself


def _json_line(r: ToaReport) -> str:
    """The report line as json.dumps writes it, whole ticks as an int."""
    ticks = int(r.ticks) if r.ticks.is_integer() else r.ticks
    fields = {"anchor_id": r.anchor_id, "kind": r.kind, "src_id": r.src_id, "seq": r.seq,
              "ticks": ticks}
    return json.dumps(fields, separators=(",", ":"))


def _json_report(line: str) -> ToaReport:
    raw = json.loads(line)
    return ToaReport(raw["anchor_id"], raw["kind"], raw["src_id"], raw["seq"], float(raw["ticks"]))


def _outcome(line: str) -> str:
    """What decode_report makes of a line: the report's repr (which tells
    -0.0 from 0.0) or the error's message."""
    try:
        return repr(decode_report(line))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _json_path_outcome(line: str) -> str:
    """The outcome with the canonical-line pattern matching nothing, so
    that every line takes the json.loads path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_CANONICAL", re.compile("(?!)"))
        return _outcome(line)


def test_hall_run_lines_are_json_dumps_and_decode_as_json_loads(hall_run):
    lines = encode_reports(hall_run.reports).splitlines()
    for r, line in zip(report_records(hall_run.reports), lines, strict=True):
        assert line == _json_line(r)
        assert _outcome(line) == repr(_json_report(line)) == repr(r)
        assert _outcome(line) == _json_path_outcome(line)


def test_simulated_lines_decode_without_json_loads(hall_run, monkeypatch):
    lines = encode_reports(hall_run.reports).splitlines()
    monkeypatch.setattr(json, "loads", None)
    assert [decode_report(line) for line in lines] == report_records(hall_run.reports)


JUST_BELOW_WRAP = float(np.nextafter(float(TICK_WRAP), 0.0))


EDGE_TICKS = [
    0.0, 5e-324, 1e-05, 0.5, 12345.625, 12345.0, float(TICK_WRAP - 1), JUST_BELOW_WRAP,
    987654321012.4567,
]


@pytest.mark.parametrize("anchor_id, src_id", [
    ("SA2", "T1"), ("SA\\2", "T\\"), ("SAü", "Tü1"), ("SA\x7f", "T 1"), ("S\u2028A", "T\xa01"),
])
@pytest.mark.parametrize("ticks", EDGE_TICKS)
def test_edge_case_lines_are_json_dumps_and_round_trip(anchor_id, src_id, ticks):
    r = ToaReport(anchor_id, KIND_CCP_RX, src_id, SEQ_WRAP - 1, ticks)
    line = report_line(r)
    assert line == _json_line(r)
    assert _outcome(line) == repr(_json_report(line)) == repr(r)
    assert _outcome(line) == _json_path_outcome(line)


def test_a_block_of_edge_case_rows_is_the_lines_json_dumps_writes():
    # Whole and fractional ticks side by side in one block, rows in any order.
    records = [ToaReport(anchor_id, kind, src_id, seq, ticks)
               for anchor_id, src_id in [("SA2", "T1"), ("SA\\2", "T\\"), ("SAü", "Tü1")]
               for kind, seq in zip(REPORT_KINDS, [0, 7, SEQ_WRAP - 1])
               for ticks in EDGE_TICKS]
    records = [records[i] for i in np.random.default_rng(2).permutation(len(records))]
    reports = columns(*records)
    assert encode_reports(reports).splitlines() == list(map(_json_line, records))
    assert encode_reports(reports, slice(5, 9)) == encode_reports(columns(*records[5:9]))


# Not plain ids: a quote, a control character, empty, trailing or leading
# whitespace (U+2028 is whitespace too), a comma.
@pytest.mark.parametrize("anchor_id, src_id", [
    ('S"A', "T1"), ("SA\n2", "T\t1"), ("", "T1"), ("SA\x7f", "T\u2028"), ("SA2", "T,1"),
    (" SA2", "T1"), ("SA2,", "T1"),
])
@pytest.mark.parametrize("ticks", EDGE_TICKS)
def test_edge_case_ids_encode_as_json_dumps_and_decode_rejects(anchor_id, src_id, ticks):
    r = ToaReport(anchor_id, KIND_CCP_RX, src_id, SEQ_WRAP - 1, ticks)
    line = report_line(r)
    assert line == _json_line(r)
    assert _outcome(line).startswith("ReportDecodeError: anchor_id and src_id must be plain ids")
    assert _outcome(line) == _json_path_outcome(line)


@pytest.mark.parametrize("value, plain", [
    ("T1", True), ("T 1", True), ("Tü\\1", True), ("T\x7f", True),
    ("", False), ("T,1", False), ('T"1', False), ("T\x001", False), ("T\x1f", False),
    (" T1", False), ("T1 ", False), ("T1\u3000", False), (None, False), (7, False),
])
def test_plain_id_rule(value, plain):
    assert protocol.is_plain_id(value) is plain


def test_numpy_scalars_are_written_as_their_values():
    r = ToaReport("SA2", KIND_BLINK_RX, "T1", 7, np.float64(12345.5))
    assert report_line(r).endswith('"seq":7,"ticks":12345.5}')
    r = ToaReport("SA2", KIND_BLINK_RX, "T1", 7, np.float64(12345.0))
    assert report_line(r).endswith('"ticks":12345}')
    r = ToaReport("SA2", KIND_BLINK_RX, "T1", np.int64(7), np.int64(12345))
    assert report_line(r).endswith('"seq":7,"ticks":12345}')


@pytest.mark.parametrize("seq", [True, np.True_, np.float32(7.0), "7"])
def test_a_seq_that_is_not_an_integer_is_not_written(seq):
    with pytest.raises(TypeError):
        report_line(ToaReport("SA2", KIND_BLINK_RX, "T1", seq, 12345.5))


def test_non_finite_ticks_are_not_written():
    with pytest.raises(ValueError, match="non-finite"):
        report_line(ToaReport("SA2", KIND_BLINK_RX, "T1", 7, math.nan))


GOOD = '{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":7,"ticks":12345.5}'
NEAR_CANONICAL = [
    GOOD.replace('"seq":7', '"seq":07'),
    GOOD.replace("12345.5", "012345.5"),
    GOOD.replace('"seq":7', '"seq":-7'),
    GOOD.replace('"seq":7', '"seq":-0'),
    GOOD.replace("12345.5", "-12345.5"),
    GOOD.replace("12345.5", "-0"),
    GOOD.replace("12345.5", "-0.0"),
    GOOD.replace("12345.5", "0e0"),
    GOOD.replace("12345.5", "1e-400"),
    GOOD.replace("12345.5", str(TICK_WRAP)),
    GOOD.replace("12345.5", f"{TICK_WRAP}.0"),
    GOOD.replace("12345.5", "1.099511627776e12"),
    GOOD.replace("12345.5", "1099511627775.99999999"),
    GOOD.replace("12345.5", "1e400"),
    GOOD.replace("12345.5", "1" + "0" * 30),
    GOOD.replace('"seq":7', f'"seq":{SEQ_WRAP}'),
    GOOD.replace('"seq":7', '"seq":' + "9" * 25),
    GOOD.replace('"seq":7', '"seq":7.0'),
    GOOD.replace('"seq":7', '"seq":7e0'),
    GOOD.replace('"seq":7', '"seq":true'),
    GOOD.replace("12345.5", "NaN"),
    GOOD.replace("12345.5", "Infinity"),
    GOOD.replace("12345.5", "-Infinity"),
    GOOD.replace("12345.5", "true"),
    GOOD.replace("12345.5", '"12345.5"'),
    GOOD.replace("12345.5", "12345."),
    GOOD.replace("12345.5", ".5"),
    GOOD.replace("12345.5", "1e"),
    GOOD.replace("12345.5", "12345.5E+3"),
    GOOD.replace('"A"', '"\\u0041"'),
    GOOD.replace('"A"', '"A\\"B"'),
    GOOD.replace('"T"', '"T\\\\"'),
    GOOD.replace('"A"', '"A\x01"'),
    GOOD.replace('"A"', '""'),
    GOOD.replace('"A"', '" A"'),
    GOOD.replace('"T"', '"T,1"'),
    GOOD.replace('"A"', "5"),
    GOOD.replace("blink_rx", "sync_rx"),
    GOOD.replace("blink_rx", "BLINK_RX"),
    GOOD + "x",
    GOOD + "}",
    GOOD[:-1],
    "x" + GOOD,
    GOOD.replace(":", ": "),
    '{"kind":"blink_rx","anchor_id":"A","src_id":"T","seq":7,"ticks":12345.5}',
    GOOD.replace('"ticks":12345.5', '"ticks":12345.5,"extra":1'),
    GOOD.replace('"anchor_id":"A"', '"anchor_id":"A","anchor_id":"B"'),
    GOOD.replace(',"ticks":12345.5', ""),
    "[" + GOOD + "]",
    "",
]


@pytest.mark.parametrize("line", NEAR_CANONICAL)
def test_near_canonical_lines_decode_as_the_json_path_does(line):
    assert _outcome(line) == _json_path_outcome(line)


json_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)


@given(
    anchor_id=st.one_of(st.text(max_size=6), json_values),
    kind=st.one_of(st.sampled_from(REPORT_KINDS), st.text(max_size=9)),
    src_id=st.text(max_size=6),
    seq=st.one_of(st.integers(min_value=-5, max_value=SEQ_WRAP + 5), json_values),
    ticks=st.one_of(st.floats(min_value=-1.0, max_value=TICK_WRAP * 1.5), json_values),
    ensure_ascii=st.booleans(),
)
def test_any_json_report_line_decodes_as_the_json_path_does(
    anchor_id, kind, src_id, seq, ticks, ensure_ascii
):
    fields = {"anchor_id": anchor_id, "kind": kind, "src_id": src_id, "seq": seq, "ticks": ticks}
    line = json.dumps(fields, separators=(",", ":"), ensure_ascii=ensure_ascii)
    assert _outcome(line) == _json_path_outcome(line)
