"""Output checks, computed by the benchmark independently of uwb_rtls.

Everything here reads the files the CLI wrote and recomputes what it can
with the standard library and numpy, so a change inside the program cannot
also change the yardstick.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

FIX_FAIL_DISTANCE = 1.0  # m: a fix further than this from truth counts as failed
ERROR_TOLERANCE = 1e-9  # m: errors.csv against the recomputed error
HDOP_REL_TOLERANCE = 1e-9
HDOP_SAMPLES = 200

Positions = dict[tuple[str, int], tuple[float, float]]


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def read_truth(path: Path) -> Positions:
    truth = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec.get("kind") == "blink":
                    truth[(rec["tag_id"], int(rec["seq"]))] = (rec["x"], rec["y"])
    return truth


def read_fixes(path: Path) -> Positions:
    with open(path, newline="") as fh:
        return {
            (row["tag_id"], int(row["blink_seq"])): (float(row["x"]), float(row["y"]))
            for row in csv.DictReader(fh)
        }


def failed_fixes(truth: Positions, fixes: Positions) -> int:
    """Ground-truth blinks with no fix, or with a fix over 1 m off."""
    failed = 0
    for key, (x, y) in truth.items():
        fix = fixes.get(key)
        if fix is None or math.hypot(fix[0] - x, fix[1] - y) > FIX_FAIL_DISTANCE:
            failed += 1
    return failed


def errors_csv_mismatches(path: Path, truth: Positions, fixes: Positions) -> int:
    """Rows of errors.csv that disagree with the recomputed fix error, plus
    matched fixes missing from it."""
    expected = {
        key: math.hypot(fixes[key][0] - truth[key][0], fixes[key][1] - truth[key][1])
        for key in fixes
        if key in truth
    }
    bad = 0
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            want = expected.pop((row["tag_id"], int(row["blink_seq"])), None)
            if want is None or not abs(float(row["err_m"]) - want) <= ERROR_TOLERANCE:
                bad += 1
    return bad + len(expected)


def check_tracking(out: Path, workload: str) -> tuple[dict, list[str]]:
    """Fix failures and consistency of the eval files, for fleet and hall."""
    truth = read_truth(out / "truth.jsonl")
    fixes = read_fixes(out / "fixes.csv")
    summary = json.loads((out / "summary.json").read_text())
    facts = {
        "truth_blinks": len(truth),
        "failed_fixes": failed_fixes(truth, fixes),
        "errors_csv_mismatches": errors_csv_mismatches(out / "errors.csv", truth, fixes),
        "fix_p95_error_m": summary["fix_p95_error"],
    }
    problems = []
    if facts["errors_csv_mismatches"]:
        problems.append(f"{facts['errors_csv_mismatches']} errors.csv rows disagree")
    # fleet is the failure-free baseline; hall carries a known defect.
    if workload == "fleet" and facts["failed_fixes"]:
        problems.append(f"{facts['failed_fixes']} failed fixes on fleet")
    return facts, problems


def hdop(points: np.ndarray, anchors: np.ndarray, ref: int) -> np.ndarray:
    """sqrt(trace((G^T G)^-1)), G the unit-vector differences against the
    reference anchor, for each row of ``points``."""
    delta = points[:, None, :] - anchors[None, :, :]
    unit = delta / np.linalg.norm(delta, axis=2)[:, :, None]
    g = np.delete(unit, ref, axis=1) - unit[:, ref : ref + 1, :]
    a = np.einsum("nk,nk->n", g[:, :, 0], g[:, :, 0])
    b = np.einsum("nk,nk->n", g[:, :, 0], g[:, :, 1])
    d = np.einsum("nk,nk->n", g[:, :, 1], g[:, :, 1])
    return np.sqrt((a + d) / (a * d - b * b))


def check_hdop(out: Path, config: dict, resolution: float, seed: int) -> tuple[dict, list[str]]:
    """Recompute HDoP at seeded grid points and compare with hdop.csv.

    The reference anchor is the one whose HDoP matches the first sample;
    every other sample must then match with that same reference.
    """
    with open(out / "hdop.csv", newline="") as fh:
        rows = [(float(r["x"]), float(r["y"]), float(r["hdop"])) for r in csv.DictReader(fh)]
    ids = [a["id"] for a in config["anchors"]]
    anchors = np.array([a["position"][:2] for a in config["anchors"]], dtype=float)
    (x0, y0), (x1, y1) = config["area"]
    grid = (round((x1 - x0) / resolution) + 1) * (round((y1 - y0) / resolution) + 1)
    on_anchor = {tuple(p) for p in anchors.tolist()}
    finite = [r for r in rows if math.isfinite(r[2])]
    sample = random.Random(seed).sample(finite, min(HDOP_SAMPLES, len(finite)))
    pts = np.array([(x, y) for x, y, _ in sample])
    got = np.array([v for _, _, v in sample])

    def rel_err(ref: int) -> np.ndarray:
        return np.abs(hdop(pts, anchors, ref) - got) / got

    matching = [r for r in range(len(ids)) if len(pts) and rel_err(r)[0] <= HDOP_REL_TOLERANCE]
    ref = matching[0] if matching else 0
    report = json.loads((out / "deploy_report.json").read_text())
    facts = {
        "hdop_rows": len(rows),
        "hdop_rows_inside_area": sum(x0 <= x <= x1 and y0 <= y <= y1 for x, y, _ in rows),
        "hdop_inf_off_anchor": sum(
            1 for x, y, v in rows if not math.isfinite(v) and (x, y) not in on_anchor
        ),
        "hdop_samples": len(pts),
        "hdop_reference": ids[ref],
        "hdop_worst_rel_error": float(rel_err(ref).max()) if len(pts) else math.inf,
        "rules": sorted(r["rule"] for r in report["rules"]),
    }
    problems = []
    if facts["hdop_rows"] != grid or facts["hdop_rows_inside_area"] != grid:
        problems.append(f"hdop.csv has {facts['hdop_rows']} rows, expected {grid}")
    if facts["hdop_inf_off_anchor"]:
        problems.append(f"{facts['hdop_inf_off_anchor']} infinite HDoP values off the anchors")
    if facts["hdop_samples"] < 100 or not facts["hdop_worst_rel_error"] <= HDOP_REL_TOLERANCE:
        problems.append(f"HDoP recompute disagrees: {facts['hdop_worst_rel_error']!r}")
    if facts["rules"] != list("abcdef"):
        problems.append(f"deploy_report rules {facts['rules']}")
    return facts, problems
