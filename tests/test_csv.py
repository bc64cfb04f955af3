"""CSV files: one renderer writes fixes.csv, synced.csv, errors.csv and
hdop.csv, and one row parser reads fixes.csv and synced.csv back.  The
renderers each file had of its own before are kept here as the oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from uwb_rtls.cli import (ERRORS_FIELDS, FIXES_FIELDS, FIXES_HEADER, HDOP_FIELDS, SYNCED_FIELDS,
                          SYNCED_HEADER, CsvHeaderError, errors_csv, fixes_to_csv, grid_to_csv,
                          read_fixes_csv, read_synced_csv, synced_to_csv)
from uwb_rtls.constants import ROW_BLOCK, row_blocks
from uwb_rtls.deploy import HdopGrid
from uwb_rtls.simnet import TruthBlinks
from uwb_rtls.solver import FixTable
from uwb_rtls.wcs import ArrivalTable

from conftest import id_codes, same_columns

# ---------------------------------------------------------------------------
# The oracle: each file's own renderer, as it was before the one renderer.


def oracle_fixes_to_csv(fixes):
    yield "tag_id,blink_seq,x,y,vx,vy,pos_std\n"
    columns = (fixes.tag, fixes.blink_seq, fixes.x, fixes.y, fixes.vx, fixes.vy, fixes.pos_std)
    for rows in row_blocks(len(fixes)):
        yield "".join(f"{fixes.ids[t]},{s},{x!r},{y!r},{vx!r},{vy!r},{p!r}\n"
                      for t, s, x, y, vx, vy, p in zip(*(c[rows].tolist() for c in columns)))


def oracle_synced_to_csv(blinks):
    yield "anchor_id,tag_id,blink_seq,ccp_seq,offset,rate\n"
    name = blinks.ids.__getitem__
    for rows in row_blocks(len(blinks)):
        rates, rate_index = np.unique(blinks.rate[rows].view(np.int64), return_inverse=True)
        rate_text = list(map(float.__repr__, rates.view(np.float64).tolist()))
        yield "".join(map(
            "{},{},{},{},{!r},{}\n".format, map(name, blinks.anchor[rows].tolist()),
            map(name, blinks.tag[rows].tolist()), blinks.blink_seq[rows].tolist(),
            blinks.ccp_seq[rows].tolist(), blinks.offset[rows].tolist(),
            map(rate_text.__getitem__, rate_index.tolist()),
        ))


def oracle_errors_csv(errors):
    matched, err = errors
    return "tag_id,blink_seq,err_m\n" + "".join(f"{matched.ids[t]},{s},{e!r}\n" for t, s, e in zip(
        matched.tag.tolist(), matched.seq.tolist(), err.tolist()))


def oracle_grid_to_csv(grid):
    yield "x,y,hdop\n"
    for rows in row_blocks(len(grid)):
        yield "".join(f"{x!r},{y!r},{value!r}\n" for x, y, value in zip(
            grid.x[rows].tolist(), grid.y[rows].tolist(), grid.hdop[rows].tolist()))


# ---------------------------------------------------------------------------
# Tables

SIZES = [0, 1, ROW_BLOCK - 1, ROW_BLOCK + 1]
KINDS = ["distinct", "equal", "half"]
SPECIALS = [-0.0, 0.0, 5e-324, 1e308, math.inf]  # -0.0 and 0.0 differ in their bits
IDS = ("MA1", "SA2", "SA3", "T1", "TüT2")


def block_values(n: int, kind: str, rng: np.random.Generator, draw, specials=()) -> np.ndarray:
    """``n`` values of ``draw(rng, count)``, each ``ROW_BLOCK``-row block of
    them all distinct, all equal, or exactly half of them repeats of the
    other half; ``specials`` lead each block's distinct values."""
    out = []
    for rows in row_blocks(n):
        m = min(rows.stop, n) - rows.start
        fresh = np.unique(draw(rng, 2 * m + 8))[:m]  # distinct, before the specials
        distinct = np.concatenate([np.array(specials, fresh.dtype), fresh])[:m]
        if kind == "equal":
            values = np.repeat(distinct[rng.integers(m)], m)
        elif kind == "half":
            values = distinct[:max(1, m // 2)][np.arange(m) % max(1, m // 2)]
        else:
            values = distinct
        out.append(rng.permutation(values))
    return np.concatenate(out) if out else draw(rng, 0)[:0]


def floats(rng, count):
    return rng.uniform(-50.0, 50.0, count)


def seqs(rng, count):
    return rng.integers(0, 2**32, count, dtype=np.int64)


def codes(n: int, rng: np.random.Generator, among: range) -> np.ndarray:
    return rng.integers(among.start, among.stop, n).astype(np.int32)


def fix_columns(n: int, kind: str, seed: int = 1) -> FixTable:
    rng = np.random.default_rng(seed)
    return FixTable(IDS, codes(n, rng, range(len(IDS))), block_values(n, kind, rng, seqs),
                    *(block_values(n, kind, rng, floats, SPECIALS) for _ in range(6)))


def arrival_columns(n: int, kind: str, seed: int = 2) -> ArrivalTable:
    rng = np.random.default_rng(seed)
    tag, blink_seq = codes(n, rng, range(3, 5)), block_values(n, kind, rng, seqs)
    anchor, offset = codes(n, rng, range(3)), block_values(n, kind, rng, floats, SPECIALS)
    ccp_seq, rate = block_values(n, kind, rng, seqs), block_values(n, kind, rng, floats, SPECIALS)
    return ArrivalTable(IDS, tag, blink_seq, anchor, offset, ccp_seq, rate)


def error_columns(n: int, kind: str, seed: int = 3) -> tuple[TruthBlinks, np.ndarray]:
    rng = np.random.default_rng(seed)
    matched = TruthBlinks(IDS, codes(n, rng, range(3, 5)), block_values(n, kind, rng, seqs),
                          *(block_values(n, kind, rng, floats) for _ in range(3)))
    return matched, np.abs(block_values(n, kind, rng, floats, SPECIALS))


def grid_columns(n: int, kind: str, seed: int = 4) -> HdopGrid:
    rng = np.random.default_rng(seed)
    return HdopGrid(*(block_values(n, kind, rng, floats, SPECIALS) for _ in range(3)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_the_one_renderer_writes_each_file_as_its_own_renderer_did(n, kind):
    fixes, blinks = fix_columns(n, kind), arrival_columns(n, kind)
    errors, grid = error_columns(n, kind), grid_columns(n, kind)
    assert len(fixes) == len(blinks) == len(errors[1]) == len(grid) == n
    assert "".join(fixes_to_csv(fixes)) == "".join(oracle_fixes_to_csv(fixes))
    assert "".join(synced_to_csv(blinks)) == "".join(oracle_synced_to_csv(blinks))
    assert errors_csv(errors) == oracle_errors_csv(errors)
    assert "".join(grid_to_csv(grid)) == "".join(oracle_grid_to_csv(grid))


def test_block_values_cover_the_specials_and_each_kind_of_block():
    x = block_values(ROW_BLOCK + 1, "half", np.random.default_rng(0), floats, SPECIALS)
    bits = set(x.view(np.int64).tolist())
    assert bits >= set(np.array(SPECIALS).view(np.int64).tolist())
    assert len(set(x[:ROW_BLOCK].view(np.int64).tolist())) == ROW_BLOCK // 2
    assert len(np.unique(block_values(ROW_BLOCK, "equal", np.random.default_rng(0), floats))) == 1
    distinct = block_values(ROW_BLOCK, "distinct", np.random.default_rng(0), floats, SPECIALS)
    assert len(set(distinct.view(np.int64).tolist())) == ROW_BLOCK


def test_each_header_is_its_field_list_and_the_one_its_reader_requires(tmp_path):
    assert FIXES_HEADER == ",".join(FIXES_FIELDS) == "tag_id,blink_seq,x,y,vx,vy,pos_std"
    assert (SYNCED_HEADER == ",".join(SYNCED_FIELDS)
            == "anchor_id,tag_id,blink_seq,ccp_seq,offset,rate")
    assert ",".join(ERRORS_FIELDS) == "tag_id,blink_seq,err_m"
    assert ",".join(HDOP_FIELDS) == "x,y,hdop"
    for writer, reader, table in ((fixes_to_csv, read_fixes_csv, fix_columns(1, "distinct")),
                                  (synced_to_csv, read_synced_csv, arrival_columns(1, "half"))):
        header, *rows = "".join(writer(table)).splitlines(keepends=True)
        path = tmp_path / "file.csv"
        path.write_text(header + "".join(rows))
        assert len(reader(path)[0]) == 1
        swapped = ",".join(reversed(header.strip().split(","))) + "\n"
        path.write_text(swapped + "".join(rows))
        with pytest.raises(CsvHeaderError):
            reader(path)


def _finite(column: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(column), column, 1.5)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", SIZES)
def test_fixes_and_synced_read_back_the_table_written(tmp_path, n, kind):
    # Readers hold finite numbers and one row per key: a fix per (tag_id,
    # blink_seq), in file order, and an arrival per (tag_id, blink_seq,
    # anchor_id), in key order.
    numbers = fix_columns(n, kind)
    ids, (tag,) = id_codes([("T1", "TüT2")[i % 2] for i in range(n)])
    fixes = FixTable(ids, tag, np.arange(n, dtype=np.int64), *(
        _finite(getattr(numbers, name)) for name in ("x", "y", "vx", "vy", "pos_std")),
        np.full(n, 0.25))
    path = tmp_path / "fixes.csv"
    path.write_text("".join(fixes_to_csv(fixes)))
    read, skipped = read_fixes_csv(path)
    assert skipped == 0 and len(read) == n
    assert same_columns(dataclasses.replace(read, residual_norm=fixes.residual_norm), fixes)

    numbers = arrival_columns(n, kind)
    ids, (tag, anchor) = id_codes(["T1"] * n, [("MA1", "SA2", "SA3")[i % 3] for i in range(n)])
    blinks = ArrivalTable(ids, tag, np.arange(n, dtype=np.int64) // 3, anchor,
                          _finite(numbers.offset), numbers.ccp_seq, _finite(numbers.rate))
    path = tmp_path / "synced.csv"
    path.write_text("".join(synced_to_csv(blinks)))
    read, skipped = read_synced_csv(path)
    assert skipped == 0 and same_columns(read, blinks)


@pytest.mark.parametrize("name, reader, header, row, message", [
    # A quoted id and an underscore in a seq: the plain-number check of
    # every number field comes before the check of each field in turn.
    ("fixes.csv", read_fixes_csv, FIXES_HEADER, '"T1",1_0,1.0,2.0,0,0,0.1',
     "blink_seq must be a plain number, got '1_0'"),
    ("synced.csv", read_synced_csv, SYNCED_HEADER, '"MA1",T1,9,4 1,0.5,1.0',
     "ccp_seq must be a plain number, got '4 1'"),
    # Then the fields in column order: a non-plain id before a bad seq.
    ("fixes.csv", read_fixes_csv, FIXES_HEADER, '"T1",-1,1.0,2.0,0,0,0.1',
     "tag_id must be a plain id, got '\"T1\"'"),
    ("synced.csv", read_synced_csv, SYNCED_HEADER, "MA1,T1,9,41,nan,-1",
     "offset must be a finite number, got nan"),
])
def test_a_row_with_two_faults_is_skipped_for_the_first_checked(tmp_path, caplog, name, reader,
                                                                header, row, message):
    path = tmp_path / name
    path.write_text(header + "\n" + row + "\n")
    table, skipped = reader(path)
    assert skipped == 1 and len(table) == 0
    assert f"{name} line 2 skipped: {message}" in caplog.text
