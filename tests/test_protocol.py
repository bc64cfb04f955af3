"""Report line encoding and strict decoding."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from uwb_rtls.clock import TICK_WRAP
from uwb_rtls.protocol import (
    KIND_BLINK_RX,
    KIND_CCP_RX,
    KIND_CCP_TX,
    REPORT_KINDS,
    SEQ_WRAP,
    ReportDecodeError,
    ToaReport,
    decode_report,
    encode_report,
)


def test_blink_rx_line_format():
    r = ToaReport("SA2", KIND_BLINK_RX, "T1", 7, 12345.0)
    assert encode_report(r) == '{"anchor_id":"SA2","kind":"blink_rx","src_id":"T1","seq":7,"ticks":12345}'


def test_ccp_tx_line_format():
    r = ToaReport("MA1", KIND_CCP_TX, "MA1", 3, 999.0)
    assert encode_report(r) == '{"anchor_id":"MA1","kind":"ccp_tx","src_id":"MA1","seq":3,"ticks":999}'


def test_fractional_ticks_survive_the_line():
    r = ToaReport("SA3", KIND_CCP_RX, "MA1", 0, 12345.625)
    line = encode_report(r)
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
    assert decode_report(encode_report(r)) == r


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
