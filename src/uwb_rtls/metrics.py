"""Run evaluation: synchronization stability and position accuracy.

Compares engine output against simulator ground truth.  TDoA stability is judged
on smoothed per-pair streams (the smoother output is what a live system would
monitor), built from the columns of the sync output's arrival table; position
accuracy on per-blink Euclidean errors, which ``cli.errors_csv`` writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .protocol import SEQ_WRAP, present_codes
from .simnet import TruthBlinks
from .solver import FixTable
from .wcs import ArrivalTable, WcsParams, arrival_tdoa, find_sorted

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
    per ground-truth blink.  ``errors`` holds the ``fix_errors`` columns
    the numbers were taken from; it is not part of the summary's JSON.
    """

    tdoa_std_per_pair: Mapping[str, float]
    fix_rmse: float
    fix_p95_error: float
    track_rmse: float
    availability: float
    errors: tuple[TruthBlinks, np.ndarray] = field(repr=False, compare=False)

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


def _smoother_gains(n: int, params: WcsParams) -> list[float]:
    """The gains of the first ``n`` steps of the per-pair smoother, which
    depend on no measurement: from an infinite prior the first step adopts
    it (gain 1), then each step adds ``process_var`` and updates."""
    gains, variance = [1.0], params.measurement_var
    for _ in range(1, n):
        variance = variance + params.process_var
        gain = variance / (variance + params.measurement_var)
        variance = (1.0 - gain) * variance
        gains.append(gain)
    return gains[:n]


def smoothed_tdoa_streams(
    blinks: ArrivalTable, ccp_period: float, params: WcsParams = WcsParams()
) -> Iterator[tuple[str, list[float]]]:
    """Per-pair smoother output, one ("A|B", stream) pair at a time, with A
    before B in ``blinks.ids``.

    A pair's stream is its TDoA (arrival at A minus arrival at B) over the
    blinks both anchors heard, in (tag_id, blink_seq) order, smoothed with
    ``params.process_var`` and ``params.measurement_var``: each finite
    measurement moves the state toward it by that step's gain.
    """
    starts, sizes = blinks.blinks()
    anchors, (anchor_index,) = present_codes(len(blinks.ids), blinks.anchor)
    row = np.full((len(anchors), len(starts)), -1, np.int32)  # each anchor's row per blink
    row[anchor_index, np.repeat(np.arange(len(starts)), sizes)] = np.arange(len(blinks))
    gains = np.array(_smoother_gains(len(starts), params))
    for i, a in enumerate(anchors.tolist()):
        for j in range(i + 1, len(anchors)):
            both = (row[i] >= 0) & (row[j] >= 0)
            if not both.any():
                continue
            tdoa = arrival_tdoa(blinks, row[i][both], row[j][both], ccp_period)
            # A non-finite measurement leaves the filter as it is: gain 0,
            # and the steps after it take the gains of the finite ones before.
            finite = np.isfinite(tdoa)
            gain = np.where(finite, gains[np.cumsum(finite) - 1], 0.0).tolist()
            state, out = 0.0, []
            for measurement, step_gain in zip(np.where(finite, tdoa, 0.0).tolist(), gain):
                state = state + step_gain * (measurement - state)
                out.append(state)
            yield pair_key(blinks.ids[a], blinks.ids[anchors[j]]), out


def _blink_keys(truth: TruthBlinks) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct (tag, seq) keys of ``truth`` as int64, and each one's first row."""
    return np.unique(truth.tag.astype(np.int64) * SEQ_WRAP + truth.seq, return_index=True)


def fix_errors(fixes: FixTable, truth: TruthBlinks) -> tuple[TruthBlinks, np.ndarray]:
    """The ground-truth blink of every fix (``blink_seq`` in [0, 2**32)) that has one, and
    its planar error in metres (``math.hypot``), both sorted by (tag_id, blink_seq, error);
    a blink held twice is matched to its first row."""
    code = {tag_id: i for i, tag_id in enumerate(truth.ids)}
    key = (np.array([code.get(tag_id, -1) for tag_id in fixes.ids], np.int64)[fixes.tag]
           * SEQ_WRAP + fixes.blink_seq)
    keys, first = _blink_keys(truth)
    i, hit = find_sorted(keys, key)
    row = first[i[hit]]
    errors = np.fromiter(map(math.hypot, (fixes.x[hit] - truth.x[row]).tolist(),
                             (fixes.y[hit] - truth.y[row]).tolist()), float, len(row))
    order = np.lexsort((errors, key[hit]))
    row = row[order]
    return (TruthBlinks(truth.ids, truth.tag[row], truth.seq[row], truth.time[row],
                        truth.x[row], truth.y[row]), errors[order])


def evaluate(fixes: FixTable, truth_blinks: TruthBlinks, blinks: ArrivalTable | None = None,
             ccp_period: float | None = None, *, warmup: int = DEFAULT_WARMUP,
             params: WcsParams = WcsParams()) -> EvalSummary:
    """Score fixes (and optionally the sync output) against ground truth.

    ``blinks`` is the sync output's arrival table; differencing two
    arrivals needs the CCP period they are counted in, and ``params``
    holds the smoother's settings.  Inputs may arrive in any order;
    everything is matched by (tag, blink seq).  Raises ``EmptyEvalError``
    when no fix lines up with the truth.
    """
    matched, errors = fix_errors(fixes, truth_blinks)
    if not len(errors):
        raise EmptyEvalError("no fixes match any ground-truth blink")

    rank = np.arange(len(errors)) - np.searchsorted(matched.tag, matched.tag)  # within its tag
    all_errs = errors.tolist()
    settled = errors[rank >= warmup].tolist() or all_errs

    def rmse(errs: Sequence[float]) -> float:
        return math.sqrt(sum(e * e for e in errs) / len(errs))

    stds: dict[str, float] = {}
    if blinks:
        if ccp_period is None:
            raise ValueError("differencing arrivals needs the CCP period")
        for key, stream in smoothed_tdoa_streams(blinks, ccp_period, params):
            tail = stream[warmup:]
            if len(tail) >= 2:
                stds[key] = _pstdev(tail)
    return EvalSummary(tdoa_std_per_pair=dict(sorted(stds.items())), fix_rmse=rmse(settled),
                       fix_p95_error=_percentile(settled, 95.0), track_rmse=rmse(all_errs),
                       availability=len(errors) / len(_blink_keys(truth_blinks)[0]),
                       errors=(matched, errors))

