"""Compare the output files of two source trees, run for run.

    python tools/compare_outputs.py PARENT CHANGE > outputs.json

PARENT and CHANGE are source checkouts, each with a ``src/uwb_rtls``
package.  Both run ``demo`` and the benchmark workloads ``fleet`` and
``hall`` for seeds 1-5, through the CLI in fresh processes, with the
scenario configs from this checkout's ``bench/workloads.py``; every run
ends with a ``deploy-check`` of its layout (``hall``'s own stage, at the
default resolution for the others).  Both trees run with
``PYTHONDONTWRITEBYTECODE=1``, so neither reads or writes a bytecode cache.

The result, on stdout, is one JSON object: per run and per output file,
the sha256 and size of each tree's file, whether they are the same, and
for ``fixes.csv`` the largest |dx| and |dy| over the fixes both trees
made.  Per run, ``parent_eval_on_change_files`` also records whether
PARENT's ``eval``, run on CHANGE's ``fixes.csv``, ``truth.jsonl`` and
``synced.csv``, writes the bytes of CHANGE's ``summary.json`` and
``errors.csv``: whether the files still read the same to the parent.
``src_nonblank_lines`` counts each tree's non-blank lines of
``src/**/*.py``, as ``bench/run.py`` does, so the code-size change shows
next to the byte identity; ``src_nonblank_lines_by_file`` splits that
count by module, keyed by the path under ``src/``.  ``stage_peak_rss_mb``
holds, per run and per tree, each CLI stage's own peak RSS in MB (its
process's ``ru_maxrss``): unlike one process running every stage, it does
not depend on the heap earlier stages left behind.  ``stage_growth``
runs ``fleet`` seed 1 again at ``LONG_SECONDS`` of simulated time (the
config of ``workloads.fleet_config`` with ``FLEET_DURATION`` set in this
process), and holds per tree each stage's own peak RSS at both durations
and its growth in MB per simulated second.  It gates nothing; its exit
code is 0 whenever both trees ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from workloads import CONFIGS, stages  # noqa: E402

SEEDS = range(1, 6)
LONG_SECONDS = 54.0  # fleet seed 1 runs this long too, for each stage's growth
EVAL_OUTPUTS = ("summary.json", "errors.csv")


# A process's ru_maxrss starts at the RSS of the process it was forked
# from, and this one grows to tens of MB as it compares runs.  So each CLI
# command is forked by a small launcher, which prints its ru_maxrss (KiB on
# Linux) from os.wait4 and exits with its exit code.
_LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_cli(tree: Path, argv: list[str]) -> float:
    """One CLI command from ``tree``'s sources, in a fresh process; its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, "-m", "uwb_rtls.cli", *argv],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    return int(proc.stdout) / 1024.0


def run_tree(tree: Path, workload: str, seed: int, out: Path) -> dict[str, float]:
    """One run of ``workload`` from ``tree``'s sources, outputs in ``out``;
    each stage's peak RSS in MB.  A run whose stages hold no
    ``deploy-check`` (demo, ``fleet``) ends with one on its own config at
    the default resolution."""
    if workload == "demo":
        config = out / "demo_config.json"
        argvs = [("demo", ["demo", "--out", str(out), "--seed", str(seed)])]
    else:
        out.mkdir(parents=True)
        config = out / "config.json"
        config.write_text(json.dumps(CONFIGS[workload](seed), indent=1) + "\n")
        argvs = stages(workload, str(config), str(out))
    if not any(argv[0] == "deploy-check" for _, argv in argvs):
        argvs.append(("deploy-check", ["deploy-check", "--config", str(config), "--out", str(out)]))
    return {stage: round(run_cli(tree, argv), 2) for stage, argv in argvs}


def cross_eval(parent: Path, change_run: Path, out: Path) -> dict[str, bool]:
    """Whether ``parent``'s ``eval`` on the files of ``change_run`` (a run
    directory of the change) writes the change's own eval outputs."""
    config = change_run / ("demo_config.json" if (change_run / "demo_config.json").is_file()
                           else "config.json")
    run_cli(parent, ["eval", "--config", str(config), "--out", str(out),
                     "--fixes", str(change_run / "fixes.csv"),
                     "--truth", str(change_run / "truth.jsonl"),
                     "--synced", str(change_run / "synced.csv")])
    return {name: (out / name).read_bytes() == (change_run / name).read_bytes()
            for name in EVAL_OUTPUTS}


def stage_growth(trees: dict[str, Path], short: dict[str, dict[str, float]], out: Path) -> dict:
    """Each stage's own peak RSS (MB) per tree on ``fleet`` seed 1, at its
    standard duration (``short``, from the standard run) and at
    ``LONG_SECONDS``, and its growth in MB per simulated second."""
    seconds = workloads.FLEET_DURATION
    workloads.FLEET_DURATION = LONG_SECONDS
    try:
        long = {side: run_tree(tree, "fleet", 1, out / side) for side, tree in trees.items()}
    finally:
        workloads.FLEET_DURATION = seconds
    return {"seconds": [seconds, LONG_SECONDS],
            "stage_peak_rss_mb": {side: {stage: [short[side][stage], peak]
                                         for stage, peak in long[side].items()} for side in long},
            "mb_per_simulated_s": {side: {
                stage: round((peak - short[side][stage]) / (LONG_SECONDS - seconds), 4)
                for stage, peak in long[side].items()} for side in long}}


def src_nonblank_lines_by_file(tree: Path) -> dict[str, int]:
    src = tree / "src"
    return {str(p.relative_to(src)): sum(1 for line in p.read_text().splitlines() if line.strip())
            for p in sorted(src.rglob("*.py"))}


def _fixes(path: Path) -> dict[tuple[str, str], tuple[float, float]]:
    rows = path.read_text().splitlines()[1:]
    return {tuple(r.split(",")[:2]): tuple(map(float, r.split(",")[2:4])) for r in rows}


def compare(parent: Path, change: Path) -> dict:
    files = {}
    for name in sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}):
        entry = {}
        for side, d in (("parent", parent), ("change", change)):
            p = d / name
            entry[side] = ({"sha256": hashlib.sha256(p.read_bytes()).hexdigest(),
                            "bytes": p.stat().st_size} if p.is_file() else None)
        entry["same"] = entry["parent"] == entry["change"]
        if name == "fixes.csv" and entry["parent"] and entry["change"]:
            old, new = _fixes(parent / name), _fixes(change / name)
            both = old.keys() & new.keys()
            entry["fixes_only_parent"] = len(old.keys() - both)
            entry["fixes_only_change"] = len(new.keys() - both)
            entry["max_abs_dx"] = max((abs(old[k][0] - new[k][0]) for k in both), default=0.0)
            entry["max_abs_dy"] = max((abs(old[k][1] - new[k][1]) for k in both), default=0.0)
        files[name] = entry
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    runs = [("demo", 42)] + [(w, s) for w in sorted(CONFIGS) for s in SEEDS]
    report = {"parent": str(args.parent.resolve()), "change": str(args.change.resolve()),
              "runs": {}, "parent_eval_on_change_files": {}, "stage_peak_rss_mb": {},
              "src_nonblank_lines_by_file": {side: src_nonblank_lines_by_file(tree)
                                             for side, tree in (("parent", args.parent),
                                                                ("change", args.change))}}
    report["src_nonblank_lines"] = {side: sum(by_file.values()) for side, by_file in
                                    report["src_nonblank_lines_by_file"].items()}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in runs:
            name = f"{workload}-seed{seed}"
            dirs = {side: Path(tmp) / side / name for side in ("parent", "change")}
            report["stage_peak_rss_mb"][name] = {
                side: run_tree(tree, workload, seed, dirs[side])
                for side, tree in (("parent", args.parent), ("change", args.change))}
            files = compare(dirs["parent"], dirs["change"])
            report["runs"][name] = files
            cross = cross_eval(args.parent, dirs["change"], Path(tmp) / "cross" / name)
            report["parent_eval_on_change_files"][name] = cross
            same = sum(f["same"] for f in files.values())
            print(f"{name}: {same}/{len(files)} files the same, parent eval on the change's "
                  f"files {'the same' if all(cross.values()) else 'different'}", file=sys.stderr)
        report["stage_growth"] = stage_growth(
            {"parent": args.parent, "change": args.change},
            report["stage_peak_rss_mb"]["fleet-seed1"], Path(tmp) / f"fleet-{LONG_SECONDS:g}s")
    report["all_same"] = all(f["same"] for run in report["runs"].values() for f in run.values())
    report["parent_eval_all_same"] = all(
        same for run in report["parent_eval_on_change_files"].values() for same in run.values())
    sys.stdout.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
