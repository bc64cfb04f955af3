"""One benchmark job, run in a fresh Python process.

    python3 bench/job.py setup CONFIG
    python3 bench/job.py run WORKLOAD CONFIG OUT [--spans PATH]

``setup`` times ``import uwb_rtls`` plus ``load_config`` of CONFIG.
``run`` calls the CLI entry point ``uwb_rtls.cli.main`` once per stage of
the workload, in this process, and reports each stage's exit code and wall
time and the process's peak RSS.  With ``--spans`` the layers are traced,
the spans are written to PATH and the per-layer metrics are reported.
Either way the job prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import stages


def setup(config: str) -> dict:
    start = perf_counter()
    import uwb_rtls

    uwb_rtls.load_config(config)
    return {"setup_s": perf_counter() - start}


def _call_stage(main, argv: list[str]) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except Exception:  # a crashing stage is a failed stage, reported below
        traceback.print_exc()
        return -1


def run(workload: str, config: str, out: str, spans: str | None) -> dict:
    from uwb_rtls import cli

    tracer = Tracer() if spans else None
    if tracer:
        tracer.install()
    results = {}
    for name, argv in stages(workload, config, out):
        start = perf_counter()
        if tracer:
            with tracer.span(f"stage.{name}"):
                rc = _call_stage(cli.main, argv)
        else:
            rc = _call_stage(cli.main, argv)
        results[name] = {"rc": rc, "s": perf_counter() - start}
        if rc != 0:
            break
    report = {
        "stages": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        tracer.add_counts(
            {"cli.bytes_written": sum(p.stat().st_size for p in Path(out).iterdir())}
        )
        tracer.write_csv(spans)
        report["layers"] = layer_metrics(tracer.closed_spans(), tracer.counts, tracer.absent)
        report["absent"] = tracer.absent
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("config")
    p = sub.add_parser("run")
    p.add_argument("workload")
    p.add_argument("config")
    p.add_argument("out")
    p.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.mode == "setup":
        report = setup(args.config)
    else:
        report = run(args.workload, args.config, args.out, args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
