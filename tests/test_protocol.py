"""Report line encoding and strict decoding, and the field checks that
the report and truth readers share."""

from __future__ import annotations

import dataclasses
import json
import math

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
    check_number,
    decode_reports,
    encode_reports,
    present_codes,
)
from uwb_rtls.simnet import decode_truths

from conftest import (
    BAD_FIELDS,
    BLINK,
    CLOCK,
    REPORT,
    REPORT_FIELDS,
    TRUTH_FIELDS,
    assert_reads_among_as_alone,
    read_file,
    report_columns,
    report_rows,
    with_field,
)


def report_line(row: tuple) -> str:
    """The line ``encode_reports`` writes for one ``(anchor_id, kind,
    src_id, seq, ticks)`` row, less its newline."""
    text = encode_reports(report_columns([row]))
    assert text.count("\n") == 1 and text.endswith("\n")
    return text[:-1]


def decode_row(line: str) -> tuple:
    """The one row ``decode_reports`` reads from ``line``."""
    return tuple(column[0] for column in decode_reports([line]))


def decode_truth(line: str) -> tuple:
    """The columns ``decode_truths`` reads from one truth line."""
    return decode_truths([line])


def test_blink_rx_line_format():
    r = ("SA2", KIND_BLINK_RX, "T1", 7, 12345.0)
    assert report_line(r) == '{"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}'


def test_ccp_tx_line_format():
    r = ("MA1", KIND_CCP_TX, "MA1", 3, 999.0)
    assert report_line(r) == '{"anchor_id":"MA1","kind":"ccp_tx","src_id":"MA1","seq":3,"ticks":999}'


def test_fractional_ticks_survive_the_line():
    r = ("SA3", KIND_CCP_RX, "MA1", 0, 12345.625)
    line = report_line(r)
    assert json.loads(line)["ticks"] == 12345.625
    assert decode_row(line) == r


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
    r = (anchor_id, kind, src_id, seq, ticks)
    assert decode_row(report_line(r)) == r


# ---------------------------------------------------------------------------
# The line and field checks both JSON-lines readers share


@pytest.mark.parametrize("report, truth, messages", [
    ("{nope", "{nope", ["not valid JSON: "] * 2),
    ("[" + REPORT + "]", "[" + BLINK + "]", ["line must be a JSON object"] * 2),
    (REPORT.replace("blink_rx", "sync_rx"), BLINK.replace('"blink"', '"fix"'),
     ["kind must be one of blink_rx, ccp_rx, ccp_tx, got 'sync_rx'",
      "kind must be one of blink, clock, got 'fix'"]),
    (REPORT.replace(',"ticks":12345.5', ""), BLINK.replace(',"y":-1.5', ""),
     ["missing fields: ticks", "missing fields: y"]),
])
def test_report_and_truth_lines_that_are_not_a_record_are_malformed(report, truth, messages):
    for decode, line, message in zip((decode_row, decode_truth), (report, truth), messages):
        with pytest.raises(ValueError) as e:
            decode(line)
        assert str(e.value).startswith(message)


FIELD_RULES = {"id": "must be a plain id", "seq": "must be an integer in [0, 2**32)",
               "number": "must be a finite number"}


@pytest.mark.parametrize("check, value", BAD_FIELDS)
def test_report_and_truth_readers_reject_a_bad_field_alike(check, value):
    for decode, fields in ((decode_row, REPORT_FIELDS), (decode_truth, TRUTH_FIELDS)):
        for line, field in fields[check]:
            with pytest.raises(ValueError) as e:
                decode(with_field(line, field, value))
            assert str(e.value) == f"{field} {FIELD_RULES[check]}, got {json.loads(value)!r}"


@pytest.mark.parametrize("values", [[1.5, -2.0], [1.5, math.nan], [math.inf, 0.0],
                                    [0.0, -math.inf], [1e308, 1e308], []])
@pytest.mark.parametrize("low, high", [(-math.inf, math.inf), (0.0, 2.0)])
def test_a_float_array_checks_as_its_list_does(values, low, high):
    # The CSV readers check a column of floats as an array: its dtype settles
    # the type test, and the outcome and message are the list's.
    def outcome(column):
        try:
            return list(check_number("x", column, low, high))
        except ValueError as exc:
            return str(exc)
    assert outcome(np.array(values, float)) == outcome(values)


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(0, n - 1), max_size=30), max_size=4))))
def test_present_codes_are_np_unique_of_the_concatenation(table):
    # The used ids and each column's codes, empty columns included, as
    # np.unique of the columns' concatenation gives them.
    n_ids, lists = table
    columns = [np.array(c, np.int64) for c in lists]
    used, codes = present_codes(n_ids, *columns)
    want, inverse = np.unique(np.concatenate([np.zeros(0, np.int64), *columns]),
                              return_inverse=True)
    assert used.tolist() == want.tolist()
    assert [c.dtype for c in codes] == [np.dtype(np.int32)] * len(columns)
    assert np.concatenate([np.zeros(0, np.int32), *codes]).tolist() == inverse.tolist()
    assert [len(c) for c in codes] == list(map(len, columns))


def test_ticks_out_of_range():
    line = '{"anchor_id":"A","kind":"blink_rx","src_id":"T","seq":1,"ticks":%d}' % TICK_WRAP
    with pytest.raises(ValueError, match=rf"ticks .* outside \[0, {TICK_WRAP}\)"):
        decode_row(line)
    with pytest.raises(ValueError, match=rf"ticks .* outside \[0, {TICK_WRAP}\)"):
        decode_row(line.replace(str(TICK_WRAP), "-1"))


# ---------------------------------------------------------------------------
# Blocks of JSON lines: one json.loads reads a block, and a block that does
# not hold one record per line is read again line by line


def _split(line: str, field: str) -> list[str]:
    """``line`` broken into two lines at the comma before ``field``, which
    joining the lines again with a comma puts back."""
    at = line.index(f',"{field}"')
    return [line[:at], line[at + 1:]]


@pytest.mark.parametrize("name, lines", [
    # One record split over two lines, then a line of two records: three
    # objects for three lines, but no line is one record.
    ("reports.jsonl", [*_split(REPORT, "src_id"), f"{REPORT},{REPORT}"]),
    ("truth.jsonl", [*_split(BLINK, "x"), f"{BLINK},{CLOCK}"]),
    # An extra key's string that takes in the comma and brace joining two
    # lines: two objects for two lines, but neither line is JSON.
    ("reports.jsonl", [REPORT[:-1] + ',"note":"', '{","x":0},' + REPORT]),
    ("truth.jsonl", [BLINK[:-1] + ',"note":"', '{","x":0},' + BLINK]),
])
def test_lines_that_hold_records_only_when_joined_are_skipped(simulated_lines, name, lines):
    simulated = simulated_lines[name]
    assert read_file(name, lines)[:2] == ([], len(lines))
    rows, skipped, _ = read_file(name, [*simulated[:20], *lines, *simulated[20:]])
    assert (rows, skipped) == (read_file(name, simulated)[0], len(lines))


@pytest.mark.parametrize("name, line", [
    # Extra keys are read and dropped, in a block as alone.
    ("reports.jsonl", REPORT.replace('"ticks":12345.5', '"ticks":12345.5,"note":"x"')),
    ("truth.jsonl", BLINK.replace('"y":-1.5', '"y":-1.5,"note":["x",{"y":1}]')),
    # Brackets and braces are plain id characters.
    *(("reports.jsonl", with_field(REPORT, "src_id", f'"T{c}1"')) for c in "{}[]"),
    ("reports.jsonl", with_field(REPORT, "anchor_id", '"}{"')),
    ("truth.jsonl", with_field(BLINK, "tag_id", '"]["')),
])
def test_a_line_that_is_one_record_reads_in_a_block(simulated_lines, name, line):
    rows, skipped, _ = read_file(name, [line])
    assert (len(rows), skipped) == (1, 0)
    assert_reads_among_as_alone(simulated_lines, name, line)


@pytest.mark.parametrize("name, line, field", [
    ("reports.jsonl", REPORT, "ticks"), ("truth.jsonl", BLINK, "x"), ("truth.jsonl", CLOCK, "skew"),
])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_a_non_finite_or_huge_number_in_a_block_is_skipped(simulated_lines, name, line, field,
                                                            value):
    # 10**400 is an int beyond every float: float() and math.isfinite of it
    # raise OverflowError, which must not escape the reader.
    bad = with_field(line, field, value)
    simulated = simulated_lines[name]
    rows, skipped, warnings = read_file(name, [*simulated, bad])
    assert (rows, skipped) == (read_file(name, simulated)[0], 1)
    assert f"{field} must be a finite number, got {json.loads(value)!r}" in warnings[0]
    assert_reads_among_as_alone(simulated_lines, name, bad)


# ---------------------------------------------------------------------------
# The template encoder and the block reader against json itself


def _json_line(r: tuple) -> str:
    """The report line as json.dumps writes it, whole ticks as an int."""
    anchor_id, kind, src_id, seq, ticks = r
    fields = {"anchor_id": anchor_id, "kind": kind, "src_id": src_id, "seq": seq,
              "ticks": int(ticks) if ticks.is_integer() else ticks}
    return json.dumps(fields, separators=(",", ":"))


def _json_report(line: str) -> tuple:
    raw = json.loads(line)
    return raw["anchor_id"], raw["kind"], raw["src_id"], raw["seq"], float(raw["ticks"])


def _outcome(line: str) -> str:
    """What decode_reports makes of a line: the row's repr (which tells
    -0.0 from 0.0) or the error's message."""
    try:
        return repr(decode_row(line))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_hall_run_lines_are_json_dumps_and_decode_as_json_loads(hall_run):
    lines = encode_reports(hall_run.reports).splitlines()
    for r, line in zip(report_rows(hall_run.reports), lines, strict=True):
        assert line == _json_line(r)
        assert _outcome(line) == repr(_json_report(line)) == repr(r)
    assert list(zip(*decode_reports(lines))) == report_rows(hall_run.reports)


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
    r = (anchor_id, KIND_CCP_RX, src_id, SEQ_WRAP - 1, ticks)
    line = report_line(r)
    assert line == _json_line(r)
    assert _outcome(line) == repr(_json_report(line)) == repr(r)


def test_a_block_of_edge_case_rows_is_the_lines_json_dumps_writes():
    # Whole and fractional ticks side by side in one block, rows in any order.
    records = [(anchor_id, kind, src_id, seq, ticks)
               for anchor_id, src_id in [("SA2", "T1"), ("SA\\2", "T\\"), ("SAü", "Tü1")]
               for kind, seq in zip(REPORT_KINDS, [0, 7, SEQ_WRAP - 1])
               for ticks in EDGE_TICKS]
    records = [records[i] for i in np.random.default_rng(2).permutation(len(records))]
    reports = report_columns(records)
    assert encode_reports(reports).splitlines() == list(map(_json_line, records))
    assert encode_reports(reports, slice(5, 9)) == encode_reports(report_columns(records[5:9]))


# Not plain ids: a quote, a control character, empty, trailing or leading
# whitespace (U+2028 is whitespace too), a comma.
@pytest.mark.parametrize("anchor_id, src_id", [
    ('S"A', "T1"), ("SA\n2", "T\t1"), ("", "T1"), ("SA\x7f", "T\u2028"), ("SA2", "T,1"),
    (" SA2", "T1"), ("SA2,", "T1"),
])
@pytest.mark.parametrize("ticks", EDGE_TICKS)
def test_edge_case_ids_encode_as_json_dumps_and_decode_rejects(anchor_id, src_id, ticks):
    r = (anchor_id, KIND_CCP_RX, src_id, SEQ_WRAP - 1, ticks)
    line = report_line(r)
    assert line == _json_line(r)
    field, value = (("src_id", src_id) if protocol.is_plain_id(anchor_id)
                    else ("anchor_id", anchor_id))
    assert _outcome(line) == f"ValueError: {field} must be a plain id, got {value!r}"


@pytest.mark.parametrize("value, plain", [
    ("T1", True), ("T 1", True), ("Tü\\1", True), ("T\x7f", True),
    ("", False), ("T,1", False), ('T"1', False), ("T\x001", False), ("T\x1f", False),
    (" T1", False), ("T1 ", False), ("T1\u3000", False), (None, False), (7, False),
])
def test_plain_id_rule(value, plain):
    assert protocol.is_plain_id(value) is plain


def test_numpy_scalars_are_written_as_their_values():
    r = ("SA2", KIND_BLINK_RX, "T1", 7, np.float64(12345.5))
    assert report_line(r).endswith('"seq":7,"ticks":12345.5}')
    r = ("SA2", KIND_BLINK_RX, "T1", 7, np.float64(12345.0))
    assert report_line(r).endswith('"ticks":12345}')
    r = ("SA2", KIND_BLINK_RX, "T1", np.int64(7), np.int64(12345))
    assert report_line(r).endswith('"seq":7,"ticks":12345}')


@pytest.mark.parametrize("seq", [True, np.True_, np.float32(7.0), "7"])
def test_a_seq_that_is_not_an_integer_is_not_written(seq):
    reports = report_columns([("SA2", KIND_BLINK_RX, "T1", 7, 12345.5)])
    with pytest.raises(TypeError):
        encode_reports(dataclasses.replace(reports, seq=np.array([seq])))


def test_non_finite_ticks_are_not_written():
    with pytest.raises(ValueError, match="non-finite"):
        report_line(("SA2", KIND_BLINK_RX, "T1", 7, math.nan))


NEAR_CANONICAL = [
    REPORT.replace('"seq":7', '"seq":07'),
    REPORT.replace("12345.5", "012345.5"),
    REPORT.replace('"seq":7', '"seq":-7'),
    REPORT.replace('"seq":7', '"seq":-0'),
    REPORT.replace("12345.5", "-12345.5"),
    REPORT.replace("12345.5", "-0"),
    REPORT.replace("12345.5", "-0.0"),
    REPORT.replace("12345.5", "0e0"),
    REPORT.replace("12345.5", "1e-400"),
    REPORT.replace("12345.5", str(TICK_WRAP)),
    REPORT.replace("12345.5", f"{TICK_WRAP}.0"),
    REPORT.replace("12345.5", "1.099511627776e12"),
    REPORT.replace("12345.5", "1099511627775.99999999"),
    REPORT.replace("12345.5", "1e400"),
    REPORT.replace("12345.5", "1" + "0" * 30),
    REPORT.replace('"seq":7', f'"seq":{SEQ_WRAP}'),
    REPORT.replace('"seq":7', '"seq":' + "9" * 25),
    REPORT.replace('"seq":7', '"seq":7.0'),
    REPORT.replace('"seq":7', '"seq":7e0'),
    REPORT.replace('"seq":7', '"seq":true'),
    REPORT.replace("12345.5", "NaN"),
    REPORT.replace("12345.5", "Infinity"),
    REPORT.replace("12345.5", "-Infinity"),
    REPORT.replace("12345.5", "true"),
    REPORT.replace("12345.5", '"12345.5"'),
    REPORT.replace("12345.5", "12345."),
    REPORT.replace("12345.5", ".5"),
    REPORT.replace("12345.5", "1e"),
    REPORT.replace("12345.5", "12345.5E+3"),
    REPORT.replace('"A"', '"\\u0041"'),
    REPORT.replace('"A"', '"A\\"B"'),
    REPORT.replace('"T"', '"T\\\\"'),
    REPORT.replace('"A"', '"A\x01"'),
    REPORT.replace('"A"', '""'),
    REPORT.replace('"A"', '" A"'),
    REPORT.replace('"T"', '"T,1"'),
    REPORT.replace('"A"', "5"),
    REPORT.replace("blink_rx", "sync_rx"),
    REPORT.replace("blink_rx", "BLINK_RX"),
    REPORT + "x",
    REPORT + "}",
    REPORT[:-1],
    "x" + REPORT,
    REPORT.replace(":", ": "),
    '{"kind":"blink_rx","anchor_id":"A","src_id":"T","seq":7,"ticks":12345.5}',
    REPORT.replace('"ticks":12345.5', '"ticks":12345.5,"extra":1'),
    REPORT.replace('"anchor_id":"A"', '"anchor_id":"A","anchor_id":"B"'),
    REPORT.replace(',"ticks":12345.5', ""),
    "[" + REPORT + "]",
    "",
]


@pytest.mark.parametrize("line", [
    *NEAR_CANONICAL,
    *(with_field(line, field, value)
      for check, value in BAD_FIELDS for line, field in REPORT_FIELDS[check]),
])
def test_a_report_line_reads_among_simulated_lines_as_alone(simulated_lines, line):
    assert_reads_among_as_alone(simulated_lines, "reports.jsonl", line)


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
def test_any_json_report_line_reads_among_simulated_lines_as_alone(
    simulated_lines, anchor_id, kind, src_id, seq, ticks, ensure_ascii
):
    fields = {"anchor_id": anchor_id, "kind": kind, "src_id": src_id, "seq": seq, "ticks": ticks}
    line = json.dumps(fields, separators=(",", ":"), ensure_ascii=ensure_ascii)
    assert_reads_among_as_alone(simulated_lines, "reports.jsonl", line)
