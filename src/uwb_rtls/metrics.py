"""Run evaluation: synchronization stability and position accuracy.

Compares engine output against simulator ground truth.  TDoA stability is
judged on smoothed per-pair streams (the smoother output is what a live
system would monitor), built from the sync output's per-blink arrivals;
position accuracy on per-blink Euclidean errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .simnet import TruthBlink
from .solver import Fix
from .wcs import Arrival, WcsParams, arrival_tdoa, kalman_step

DEFAULT_WARMUP = 50  # samples dropped from the front of every stream


class EmptyEvalError(RuntimeError):
    """No overlap between fixes and ground truth."""


@dataclass(frozen=True)
class EvalSummary:
    """Headline numbers for one run.

    ``tdoa_std_per_pair`` maps "A|B" to the standard deviation (seconds) of
    the smoothed TDoA stream after warm-up.  ``fix_rmse`` and
    ``fix_p95_error`` are over post-warm-up fixes; ``track_rmse`` covers the
    whole track including convergence.  ``availability`` is fixes delivered
    per ground-truth blink.  ``errors`` holds the ``fix_errors`` rows the
    numbers were taken from; it is not part of the summary's JSON.
    """

    tdoa_std_per_pair: Mapping[str, float]
    fix_rmse: float
    fix_p95_error: float
    track_rmse: float
    availability: float
    errors: Sequence[tuple[str, int, float]] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "tdoa_std_per_pair": dict(sorted(self.tdoa_std_per_pair.items())),
            "fix_rmse": self.fix_rmse,
            "fix_p95_error": self.fix_p95_error,
            "track_rmse": self.track_rmse,
            "availability": self.availability,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def pair_key(anchor_a: str, anchor_b: str) -> str:
    return f"{anchor_a}|{anchor_b}"


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _pstdev(values: Sequence[float]) -> float:
    """Population standard deviation: two passes of ``math.fsum``."""
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def _arrival_rows(
    blinks: Mapping[tuple[str, int], Mapping[str, Arrival]],
) -> tuple[list[str], np.ndarray, list[Arrival]]:
    """The arrivals laid out per anchor over the blinks in (tag_id, blink_seq)
    order: the anchor ids in order, an (anchors x blinks) mask of which
    anchor heard which blink, and per anchor an ``Arrival`` of arrays over
    the blinks, zero where the anchor did not hear the blink.  Only the
    fields ``arrival_tdoa`` reads are laid out; ``rate`` is NaN."""
    keys = sorted(blinks)
    anchors = sorted({a for arrivals in blinks.values() for a in arrivals})
    start = {a: i * len(keys) for i, a in enumerate(anchors)}  # flat index of a row
    at, offsets, seqs = [], [], []
    for n, key in enumerate(keys):
        for anchor_id, (offset, ccp_seq, _) in blinks[key].items():
            at.append(start[anchor_id] + n)
            offsets.append(offset)
            seqs.append(ccp_seq)
    shape = (len(anchors), len(keys))
    heard = np.zeros(shape, dtype=bool)
    offset_rows, seq_rows = np.zeros(shape), np.zeros(shape, dtype=np.int64)
    heard.flat[at] = True
    offset_rows.flat[at] = offsets
    seq_rows.flat[at] = seqs
    return anchors, heard, [Arrival(o, q, math.nan) for o, q in zip(offset_rows, seq_rows)]


def smoothed_tdoa_streams(
    blinks: Mapping[tuple[str, int], Mapping[str, Arrival]],
    ccp_period: float,
    params: WcsParams = WcsParams(),
) -> dict[str, list[float]]:
    """Per-pair smoother output, keyed "A|B" with A < B, in blink order.

    A pair's stream is its TDoA (arrival at A minus arrival at B) over the
    blinks both anchors heard, in (tag_id, blink_seq) order, smoothed with
    ``params.process_var`` and ``params.measurement_var``.
    """
    process_var, measurement_var = params.process_var, params.measurement_var
    anchors, heard, rows = _arrival_rows(blinks)
    streams: dict[str, list[float]] = {}
    for i, a in enumerate(anchors):
        for j in range(i + 1, len(anchors)):
            both = heard[i] & heard[j]
            if not both.any():
                continue
            tdoa = arrival_tdoa(rows[i], rows[j], ccp_period)
            state, variance = 0.0, math.inf  # infinite prior: adopt the first sample
            out = []
            for measurement in tdoa[both].tolist():
                state, variance = kalman_step(
                    state, variance, measurement, process_var, measurement_var
                )
                out.append(state)
            streams[pair_key(a, anchors[j])] = out
    return dict(sorted(streams.items()))


def fix_errors(
    fixes: Sequence[Fix], truth_blinks: Sequence[TruthBlink]
) -> list[tuple[str, int, float]]:
    """(tag_id, blink_seq, planar error in metres) of every fix that has a
    ground-truth blink, sorted."""
    truth = {(t.tag_id, t.seq): (t.x, t.y) for t in truth_blinks}
    matched = []
    for f in fixes:
        pos = truth.get((f.tag_id, f.blink_seq))
        if pos is not None:
            matched.append((f.tag_id, f.blink_seq, math.hypot(f.x - pos[0], f.y - pos[1])))
    matched.sort()
    return matched


def evaluate(
    fixes: Sequence[Fix],
    truth_blinks: Sequence[TruthBlink],
    blinks: Mapping[tuple[str, int], Mapping[str, Arrival]] | None = None,
    ccp_period: float | None = None,
    *,
    warmup: int = DEFAULT_WARMUP,
    params: WcsParams = WcsParams(),
) -> EvalSummary:
    """Score fixes (and optionally the sync output) against ground truth.

    ``blinks`` is the sync output, per blink each synchronized anchor's
    ``Arrival``; differencing two arrivals needs the CCP period they are
    counted in, and ``params`` holds the smoother's settings.  Inputs may
    arrive in any order; everything is matched by (tag, blink seq).  Raises
    ``EmptyEvalError`` when no fix lines up with the truth.
    """
    matched = fix_errors(fixes, truth_blinks)
    if not matched:
        raise EmptyEvalError("no fixes match any ground-truth blink")

    by_tag: dict[str, list[float]] = {}
    for tag_id, _, err in matched:
        by_tag.setdefault(tag_id, []).append(err)
    settled = [e for errs in by_tag.values() for e in errs[warmup:]]
    all_errs = [e for _, _, e in matched]
    if not settled:
        settled = all_errs

    def rmse(errs: Sequence[float]) -> float:
        return math.sqrt(sum(e * e for e in errs) / len(errs))

    stds: dict[str, float] = {}
    if blinks:
        if ccp_period is None:
            raise ValueError("differencing arrivals needs the CCP period")
        streams = smoothed_tdoa_streams(blinks, ccp_period, params)
        for key, stream in streams.items():
            tail = stream[warmup:]
            if len(tail) >= 2:
                stds[key] = _pstdev(tail)
    return EvalSummary(
        tdoa_std_per_pair=stds,
        fix_rmse=rmse(settled),
        fix_p95_error=_percentile(settled, 95.0),
        track_rmse=rmse(all_errs),
        availability=len(matched) / len({(t.tag_id, t.seq) for t in truth_blinks}),
        errors=tuple(matched),
    )


def errors_csv(errors: Sequence[tuple[str, int, float]]) -> str:
    """Per-fix error time series as CSV (tag_id, blink_seq, err_m) from
    ``fix_errors`` rows, as ``EvalSummary.errors`` holds them."""
    lines = ["tag_id,blink_seq,err_m"]
    lines += [f"{tag_id},{seq},{err!r}" for tag_id, seq, err in errors]
    return "\n".join(lines) + "\n"
