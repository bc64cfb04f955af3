"""JSON lines: the one renderer writes reports.jsonl and truth.jsonl's blink
and clock lines, each the object ``json.dumps`` writes for its fields, and
the CSV files from the same values; ``json.dumps`` itself is the oracle."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from uwb_rtls.cli import fixes_to_csv, reports_to_jsonl, truth_to_jsonl
from uwb_rtls.constants import ROW_BLOCK
from uwb_rtls.protocol import REPORT_KINDS, SEQ_WRAP, ReportColumns
from uwb_rtls.simnet import TruthBlinks, TruthClock
from uwb_rtls.solver import FixTable

SIZES = [0, 1, ROW_BLOCK - 1, ROW_BLOCK + 1]
IDS = ("MA1", "SA2", "T1", "TüT2")  # sorted, one of them not ASCII
# -0.0 and 0.0 differ in their bits; 1e308 and 12345.0 are integer-valued.
SPECIALS = [-0.0, 0.0, 5e-324, 1e308, 12345.0, 0.30000000000000004]


def _dumps(fields: dict) -> str:
    return json.dumps(fields, separators=(",", ":"))


def numbers(rng: np.random.Generator, n: int, distinct: int | None = None) -> np.ndarray:
    """``n`` floats, the specials first, then integer-valued ones and others at random,
    drawn from the first ``distinct`` values if given (a repeating field's few)."""
    pool = np.concatenate([SPECIALS, np.floor(rng.uniform(0.0, 1e12, n)),
                           rng.uniform(-1e3, 1e3, n)])
    values = rng.choice(pool[:distinct], n)
    values[:len(SPECIALS)] = SPECIALS[:n]
    return values


def report_table(n: int, seed: int = 1) -> ReportColumns:
    rng = np.random.default_rng(seed)
    return ReportColumns(IDS, rng.integers(0, len(IDS), n).astype(np.int32),
                         rng.integers(0, len(REPORT_KINDS), n).astype(np.int8),
                         rng.integers(0, len(IDS), n).astype(np.int32),
                         rng.integers(0, SEQ_WRAP, n), numbers(rng, n))


def truth_table(n: int, seed: int = 2) -> TruthBlinks:
    rng = np.random.default_rng(seed)
    return TruthBlinks(IDS, rng.integers(0, len(IDS), n).astype(np.int32),
                       rng.integers(0, 40, n), numbers(rng, n, distinct=12),
                       numbers(rng, n), numbers(rng, n))


def clock_records(n: int, seed: int = 3) -> list[TruthClock]:
    rng = np.random.default_rng(seed)
    return [TruthClock(IDS[i % len(IDS)], *values)
            for i, values in enumerate(numbers(rng, 4 * n).reshape(n, 4).tolist())]


def oracle_reports(reports: ReportColumns) -> list[str]:
    return [_dumps({"anchor_id": IDS[a], "kind": REPORT_KINDS[k], "src_id": IDS[s], "seq": q,
                    "ticks": int(t) if t.is_integer() else t})
            for a, k, s, q, t in zip(reports.anchor.tolist(), reports.kind.tolist(),
                                     reports.src.tolist(), reports.seq.tolist(),
                                     reports.ticks.tolist())]


def oracle_truth(blinks: TruthBlinks, clocks: list[TruthClock]) -> list[str]:
    return [*(_dumps({"kind": "blink", "tag_id": IDS[tag], "seq": seq, "time": time, "x": x,
                      "y": y})
              for tag, seq, time, x, y in zip(blinks.tag.tolist(), blinks.seq.tolist(),
                                              blinks.time.tolist(), blinks.x.tolist(),
                                              blinks.y.tolist())),
            *(_dumps({"kind": "clock", **dataclasses.asdict(clock)}) for clock in clocks)]


def lines(blocks) -> list[str]:
    text = "".join(blocks)
    assert text == "" or text.endswith("\n")
    return text.splitlines()


@pytest.mark.parametrize("n", SIZES)
def test_every_json_kind_is_written_as_json_dumps_writes_it(n):
    reports, blinks, clocks = report_table(n), truth_table(n), clock_records(n)
    assert lines(reports_to_jsonl(reports)) == oracle_reports(reports)
    assert lines(truth_to_jsonl(blinks, clocks)) == oracle_truth(blinks, clocks)


def test_a_non_ascii_id_is_escaped_in_json_and_raw_utf8_in_csv():
    reports = ReportColumns(IDS, np.array([3], np.int32), np.array([0], np.int8),
                            np.array([3], np.int32), np.array([7]), np.array([12345.0]))
    (line,) = lines(reports_to_jsonl(reports))
    assert line == ('{"anchor_id":"T\\u00fcT2","kind":"blink_rx","src_id":"T\\u00fcT2",'
                    '"seq":7,"ticks":12345}')
    fixes = FixTable(IDS, np.array([3], np.int32), np.array([7]), *([np.array([-0.0])] * 6))
    assert lines(fixes_to_csv(fixes))[1] == "TüT2,7,-0.0,-0.0,-0.0,-0.0,-0.0"


@pytest.mark.parametrize("seq", [[True], [7.0], ["7"]])
def test_a_seq_that_is_not_an_integer_is_not_written(seq):
    with pytest.raises(TypeError):
        lines(reports_to_jsonl(dataclasses.replace(report_table(1), seq=np.array(seq))))
    with pytest.raises(TypeError):
        lines(truth_to_jsonl(dataclasses.replace(truth_table(1), seq=np.array(seq)), []))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_not_written_as_json(bad):
    with pytest.raises(ValueError, match="cannot write a non-finite ticks"):
        lines(reports_to_jsonl(dataclasses.replace(report_table(3), ticks=np.array([1.0, bad,
                                                                                     2.0]))))
    for field in ("time", "x", "y"):
        blinks = truth_table(2)
        column = getattr(blinks, field).copy()
        column[1] = bad
        with pytest.raises(ValueError, match=f"cannot write a non-finite {field}"):
            lines(truth_to_jsonl(dataclasses.replace(blinks, **{field: column}), []))
    with pytest.raises(ValueError, match="cannot write a non-finite skew"):
        lines(truth_to_jsonl(truth_table(0), [TruthClock("SA2", 0.0, bad, 0.0, 0.0)]))
