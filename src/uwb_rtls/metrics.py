"""Run evaluation: synchronization stability and position accuracy.

Compares engine output against simulator ground truth.  TDoA stability is
judged on smoothed per-pair streams (the smoother output is what a live
system would monitor); position accuracy on per-blink Euclidean errors.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .simnet import TruthBlink
from .solver import Fix
from .wcs import (
    DEFAULT_MEASUREMENT_VAR,
    DEFAULT_PROCESS_VAR,
    SyncedTdoa,
    kalman_step,
)

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
    per ground-truth blink.
    """

    tdoa_std_per_pair: Mapping[str, float]
    fix_rmse: float
    fix_p95_error: float
    track_rmse: float
    availability: float

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


def smoothed_tdoa_streams(
    synced: Iterable[SyncedTdoa],
    *,
    process_var: float = DEFAULT_PROCESS_VAR,
    measurement_var: float = DEFAULT_MEASUREMENT_VAR,
) -> dict[str, list[float]]:
    """Per-pair smoother output, keyed "A|B", in blink order."""
    by_pair: dict[tuple[str, str], list[SyncedTdoa]] = {}
    for s in synced:
        by_pair.setdefault((s.anchor_a, s.anchor_b), []).append(s)
    streams: dict[str, list[float]] = {}
    for key in sorted(by_pair, key=lambda pair: pair_key(*pair)):
        entries = sorted(by_pair[key], key=attrgetter("tag_id", "blink_seq"))
        state, variance = 0.0, math.inf  # TdoaKalman's prior: adopt the first sample
        out = []
        for s in entries:
            state, variance = kalman_step(
                state, variance, s.tdoa_sync, process_var, measurement_var
            )
            out.append(state)
        streams[pair_key(*key)] = out
    return streams


def evaluate(
    fixes: Sequence[Fix],
    truth_blinks: Sequence[TruthBlink],
    synced: Iterable[SyncedTdoa] = (),
    *,
    warmup: int = DEFAULT_WARMUP,
    process_var: float = DEFAULT_PROCESS_VAR,
    measurement_var: float = DEFAULT_MEASUREMENT_VAR,
) -> EvalSummary:
    """Score fixes (and optionally sync streams) against ground truth.

    Inputs may arrive in any order; everything is matched by (tag, blink
    seq).  Raises ``EmptyEvalError`` when no fix lines up with the truth.
    """
    truth = {(t.tag_id, t.seq): (t.x, t.y) for t in truth_blinks}
    matched: list[tuple[str, int, float]] = []
    for f in fixes:
        pos = truth.get((f.tag_id, f.blink_seq))
        if pos is None:
            continue
        matched.append((f.tag_id, f.blink_seq, math.hypot(f.x - pos[0], f.y - pos[1])))
    if not matched:
        raise EmptyEvalError("no fixes match any ground-truth blink")
    matched.sort()

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
    for key, stream in smoothed_tdoa_streams(
        synced, process_var=process_var, measurement_var=measurement_var
    ).items():
        tail = stream[warmup:]
        if len(tail) >= 2:
            stds[key] = statistics.pstdev(tail)
    return EvalSummary(
        tdoa_std_per_pair=stds,
        fix_rmse=rmse(settled),
        fix_p95_error=_percentile(settled, 95.0),
        track_rmse=rmse(all_errs),
        availability=len(matched) / len(truth) if truth else 0.0,
    )


def errors_csv(fixes: Sequence[Fix], truth_blinks: Sequence[TruthBlink]) -> str:
    """Per-fix error time series as CSV (tag_id, blink_seq, err_m)."""
    truth = {(t.tag_id, t.seq): (t.x, t.y) for t in truth_blinks}
    lines = ["tag_id,blink_seq,err_m"]
    for f in sorted(fixes, key=lambda f: (f.tag_id, f.blink_seq)):
        pos = truth.get((f.tag_id, f.blink_seq))
        if pos is None:
            continue
        err = math.hypot(f.x - pos[0], f.y - pos[1])
        lines.append(f"{f.tag_id},{f.blink_seq},{err!r}")
    return "\n".join(lines) + "\n"
