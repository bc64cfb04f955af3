"""Benchmark: seeded uwb_rtls workloads through the CLI, with output checks.

    python3 bench/run.py --workload fleet|hall --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The seed generates the workload's scenario config.
Pipeline runs, each one fresh single-threaded process calling the CLI
stages in turn, repeat one at a time for about S seconds (at least twice),
and their outputs are checked.  Between them, set-up (``import uwb_rtls``
plus ``load_config``) is timed in more fresh processes.  With
``--trace 1`` one more run is traced layer by layer.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI stage invocations, and those that exited non-zero) and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
The line before it is a JSON report with every metric, the checks, output
digests and run metadata; the same report is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from workloads import CONFIGS, DEPLOY_RESOLUTION

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

E2E_METRICS = ("setup_s", "run_s", "peak_rss_mb")  # the ones BENCHMARK.json bounds
MIN_RUNS = 2  # two runs of one seed must write identical bytes
TIME_LIMIT = 170.0  # s: every job is killed by then, so a run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class JobError(RuntimeError):
    """A benchmark job process failed outside the program's own stages."""


def job(deadline: float, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "job.py"), *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=max(deadline - perf_counter(), 1.0),
    )
    if proc.returncode != 0:
        raise JobError(f"job {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pipeline_run(
    deadline: float, workload: str, config: Path, out: Path, spans: Path | None = None
) -> dict:
    """One pipeline run in a fresh process, with digests of its outputs."""
    args = ["run", workload, str(config), str(out)]
    if spans is not None:
        args += ["--spans", str(spans)]
    rep = job(deadline, *args)
    stages = rep["stages"]
    rep["run_s"] = sum(s["s"] for s in stages.values())
    rep["ok"] = all(s["rc"] == 0 for s in stages.values())
    rep["digests"] = checks.digests(out) if out.is_dir() else {}
    return rep


def metadata(workload: str, seed: int, config: dict) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    src_lines = sum(
        1 for p in sorted(SRC.rglob("*.py")) for line in p.read_text().splitlines() if line.strip()
    )
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "job_thread_settings": {v: "1" for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "sim_seed": config["seed"],
        "src_nonblank_lines": src_lines,
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float
) -> dict:
    config = CONFIGS[workload](seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")

    setup: list[float] = []
    runs: list[dict] = []
    rounds: list[float] = []
    facts: dict = {}
    problems: list[str] = []
    while True:
        # Set-up samples are spread over the whole run, between pipeline
        # runs, so that one slow spell of the machine does not set them all.
        round_start = perf_counter()
        for _ in range(3 if len(runs) < 3 else 1):
            setup.append(job(deadline, "setup", str(config_path))["setup_s"])
        out = work / f"run{len(runs)}"
        rep = pipeline_run(deadline, workload, config_path, out)
        if not runs and rep["ok"]:
            facts, problems = checks.check_tracking(out, workload)
            if workload == "hall":
                hdop_facts, hdop_problems = checks.check_hdop(
                    out, config, DEPLOY_RESOLUTION, seed)
                facts.update(hdop_facts)
                problems += hdop_problems
        shutil.rmtree(out, ignore_errors=True)
        runs.append(rep)
        rounds.append(perf_counter() - round_start)
        if not rep["ok"]:
            break
        if len(runs) >= MIN_RUNS and sum(rounds) + statistics.median(rounds) > seconds:
            break

    traced = None
    if trace and all(r["ok"] for r in runs):
        spans = OUT / f"spans-{workload}-seed{seed}.csv"
        out = work / "traced"
        traced = pipeline_run(deadline, workload, config_path, out, spans)
        shutil.rmtree(out, ignore_errors=True)

    all_runs = runs + ([traced] if traced else [])
    for rep in all_runs:
        for name, s in rep["stages"].items():
            if s["rc"] != 0:
                problems.append(f"stage {name} exited {s['rc']}")
    if len({json.dumps(r["digests"], sort_keys=True) for r in all_runs}) != 1:
        problems.append("runs of one seed wrote different outputs")

    run_s = statistics.median(r["run_s"] for r in runs)
    e2e = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs), "unit": "MB"},
    }
    if facts:
        blinks = facts["truth_blinks"]
        e2e["locate_blinks_per_s"] = {
            "value": statistics.median(
                blinks / r["stages"]["locate"]["s"] for r in runs if r["ok"]
            ),
            "unit": "1/s",
        }
        e2e["fix_p95_error_m"] = {"value": facts["fix_p95_error_m"], "unit": "m"}
        e2e["fix_fail_ratio"] = {"value": facts["failed_fixes"] / blinks, "unit": "ratio"}

    layers = None
    if traced:
        layers = traced["layers"]
        layers["trace.overhead_s"] = {"value": traced["run_s"] - run_s, "unit": "s"}

    first = runs[0]["digests"]
    return {
        "meta": metadata(workload, seed, config),
        "correct": not problems,
        "problems": problems,
        "attempted": sum(len(r["stages"]) for r in all_runs),
        "failed": sum(s["rc"] != 0 for r in all_runs for s in r["stages"].values()),
        "runs": len(runs),
        "stage_s_each": [{k: v["s"] for k, v in r["stages"].items()} for r in runs],
        "setup_s_each": setup,
        "end_to_end": e2e,
        "per_layer": layers,
        "absent": traced["absent"] if traced else None,
        "checks": facts,
        "digests": {k: first[k] for k in sorted(first)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="uwb_rtls benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uwb_rtls" / "__init__.py").is_file():
        print(f"error: no uwb_rtls sources under {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        report = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, deadline
        )
    except (JobError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    text = json.dumps(report, sort_keys=True)
    (OUT / f"{name}.json").write_text(text + "\n")
    if args.trace:
        wanted = report["per_layer"] or {}
    else:
        wanted = {k: report["end_to_end"][k] for k in E2E_METRICS}
    print(text)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": wanted,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
