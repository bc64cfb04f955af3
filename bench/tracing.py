"""Outside-in tracing of the uwb_rtls layers.

The tracer replaces public functions by attribute name at module
boundaries with wrappers that record spans (name, start, end, parent, ok)
in memory.  A name that no longer exists is recorded as absent rather than
raising, so functions can be folded or renamed without breaking the
benchmark.  ``layer_metrics`` turns the spans and the counts read from
return values into the per-layer metrics.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    ok: bool  # False when the call raised


def _locate_counts(result) -> dict[str, float]:
    synced = result.synced
    blinks = {(s.tag_id, s.blink_seq) for s in synced}
    used = sum(len(ts.measurements) for ts in result.tdoa_sets)
    counts = {
        "wcs.pairs_built": len(synced),
        "wcs.synced_blinks": len(blinks),
        "wcs.range_differences_used": used,
    }
    for key, value in result.diagnostics.items():
        counts[f"diag.{key}"] = value
    return counts


@dataclass(frozen=True)
class Wrap:
    """One function to wrap: ``module.attr``, recorded as span ``name``.

    ``count`` maps the return value to a dict of counts to add up.
    """

    module: str
    attr: str
    name: str
    count: Callable | None = None


# Module boundaries of the pipeline.  Functions are wrapped where their
# callers look them up: the CLI and the engine import names into their own
# namespace, the solver and deploy modules call their own globals.
WRAPS = (
    Wrap("uwb_rtls.cli", "load_config", "config.load"),
    Wrap("uwb_rtls.cli", "run_scenario", "simnet.run_scenario",
         lambda r: {"simnet.reports": len(r.reports)}),
    Wrap("uwb_rtls.simnet", "read_clock", "clock.read_clock"),
    Wrap("uwb_rtls.cli", "encode_report", "protocol.encode"),
    Wrap("uwb_rtls.cli", "decode_report", "protocol.decode"),
    Wrap("uwb_rtls.cli", "read_reports", "cli.read_reports",
         lambda r: {"protocol.skipped_lines": r[1]}),
    Wrap("uwb_rtls.cli", "read_synced_csv", "cli.read_synced"),
    Wrap("uwb_rtls.cli", "read_fixes_csv", "cli.read_fixes"),
    Wrap("uwb_rtls.cli", "read_truth", "cli.read_truth"),
    Wrap("uwb_rtls.cli", "fixes_to_csv", "cli.render.fixes"),
    Wrap("uwb_rtls.cli", "synced_to_csv", "cli.render.synced"),
    Wrap("uwb_rtls.cli", "grid_to_csv", "cli.render.grid"),
    Wrap("uwb_rtls.cli", "errors_csv", "cli.render.errors"),
    Wrap("uwb_rtls.cli", "locate_reports", "engine.locate", _locate_counts),
    Wrap("uwb_rtls.engine", "multi_master_sync", "wcs.sync"),
    Wrap("uwb_rtls.engine", "select_time_base", "timebase.select"),
    Wrap("uwb_rtls.engine", "assemble_tdoa_set", "timebase.assemble"),
    Wrap("uwb_rtls.engine", "track", "solver.track"),
    Wrap("uwb_rtls.solver", "ls_solve", "solver.ls_solve"),
    Wrap("uwb_rtls.solver", "ekf_update", "solver.ekf_update"),
    Wrap("uwb_rtls.solver", "ekf_predict", "solver.ekf_predict"),
    Wrap("uwb_rtls.cli", "evaluate", "metrics.evaluate",
         lambda r: {"metrics.pairs_smoothed": len(r.tdoa_std_per_pair)}),
    Wrap("uwb_rtls.cli", "build_deployment_report", "deploy.report"),
    Wrap("uwb_rtls.deploy", "check_rules", "deploy.check_rules"),
    Wrap("uwb_rtls.deploy", "hdop_grid", "deploy.hdop_grid",
         lambda r: {"deploy.hdop_points": len(r)}),
    Wrap("uwb_rtls.deploy", "worst_hdop_in_hull", "deploy.worst_hdop"),
)


class Tracer:
    """Span recorder.  Single-threaded: spans nest through one stack."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._open()
        start = perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(sid, name, start, ok)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, ok: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = Span(name, start, end, parent, ok)

    def add_counts(self, counts: dict) -> None:
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, module, attr: str, name: str, count: Callable | None = None) -> bool:
        """Replace ``module.attr`` with a recording wrapper; False if absent."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return False

        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(sid, name, start, ok)
            if count is not None:
                try:
                    self.add_counts(count(out))
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.append(f"{name}:counts")
            return out

        self._installed.append((module, attr, fn))
        setattr(module, attr, traced)
        return True

    def install(self, wraps=WRAPS) -> None:
        for w in wraps:
            try:
                module = importlib.import_module(w.module)
            except ImportError:
                self.absent.append(w.name)
                continue
            self.wrap(module, w.attr, w.name, w.count)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def closed_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)  # type: ignore[arg-type]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,ok\n")
            for i, s in enumerate(self.closed_spans()):
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{int(s.ok)}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: dict[str, float], absent: list[str]) -> dict:
    """Per-layer metrics, keyed by name, as {"value": ..., "unit": ...}."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    failed: dict[str, int] = {}
    for s, t_self in zip(spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + t_self
        failed[s.name] = failed.get(s.name, 0) + (not s.ok)

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    pairs = c("wcs.pairs_built")
    render = sum(t(k) for k in ("cli.render.fixes", "cli.render.synced",
                                "cli.render.grid", "cli.render.errors"))
    values = {
        "config.load_s": (_ratio(t("config.load"), n("config.load")), "s"),
        "simnet.run_scenario_s": (t("simnet.run_scenario"), "s"),
        "simnet.reports": (c("simnet.reports"), "count"),
        "clock.read_clock_calls": (n("clock.read_clock"), "count"),
        "clock.read_clock_s": (t("clock.read_clock"), "s"),
        "protocol.encode_s": (t("protocol.encode"), "s"),
        "protocol.encode_calls": (n("protocol.encode"), "count"),
        "protocol.decode_s": (t("protocol.decode"), "s"),
        "protocol.decode_calls": (n("protocol.decode"), "count"),
        "protocol.skipped_lines": (c("protocol.skipped_lines"), "count"),
        "cli.read_reports_s": (self_s.get("cli.read_reports", 0.0), "s"),
        "cli.read_synced_s": (t("cli.read_synced"), "s"),
        "cli.read_fixes_s": (t("cli.read_fixes"), "s"),
        "cli.read_truth_s": (t("cli.read_truth"), "s"),
        "cli.render_s": (render, "s"),
        "cli.bytes_written": (c("cli.bytes_written"), "bytes"),
        "wcs.sync_s": (t("wcs.sync"), "s"),
        "wcs.pairs_built": (pairs, "count"),
        "wcs.pairs_per_blink": (_ratio(pairs, c("wcs.synced_blinks")), "count"),
        "wcs.pair_use_ratio": (_ratio(c("wcs.range_differences_used"), pairs), "ratio"),
        "wcs.rejected_windows": (c("diag.rejected_windows"), "count"),
        "wcs.stale_blinks": (c("diag.stale_blinks"), "count"),
        "wcs.unsynchronized_blinks": (c("diag.unsynchronized_blinks"), "count"),
        "wcs.duplicate_reports": (c("diag.duplicate_reports"), "count"),
        "timebase.select_s": (t("timebase.select"), "s"),
        "timebase.assemble_s": (t("timebase.assemble"), "s"),
        "timebase.blinks_no_time_base": (c("diag.blinks_no_time_base"), "count"),
        "timebase.blinks_too_few_receivers": (c("diag.blinks_too_few_receivers"), "count"),
        "timebase.blinks_insufficient_anchors": (c("diag.blinks_insufficient_anchors"), "count"),
        "engine.locate_s": (t("engine.locate"), "s"),
        "engine.self_s": (self_s.get("engine.locate", 0.0), "s"),
        "solver.track_self_s": (self_s.get("solver.track", 0.0), "s"),
        "solver.cold_start_calls": (n("solver.ls_solve"), "count"),
        "solver.cold_start_s": (t("solver.ls_solve"), "s"),
        "solver.cold_start_ms_per_call": (
            1e3 * _ratio(t("solver.ls_solve"), n("solver.ls_solve")), "ms"),
        "solver.cold_start_failed": (failed.get("solver.ls_solve", 0), "count"),
        "solver.ekf_update_calls": (n("solver.ekf_update"), "count"),
        "solver.ekf_update_s": (t("solver.ekf_update"), "s"),
        "solver.ekf_update_us_per_call": (
            1e6 * _ratio(t("solver.ekf_update"), n("solver.ekf_update")), "us"),
        "solver.ekf_predict_calls": (n("solver.ekf_predict"), "count"),
        "solver.ekf_predict_s": (t("solver.ekf_predict"), "s"),
        "metrics.evaluate_s": (t("metrics.evaluate"), "s"),
        "metrics.pairs_smoothed": (c("metrics.pairs_smoothed"), "count"),
        "metrics.errors_csv_s": (t("cli.render.errors"), "s"),
        "deploy.check_rules_s": (t("deploy.check_rules"), "s"),
        "deploy.hdop_grid_s": (t("deploy.hdop_grid"), "s"),
        "deploy.hdop_points": (c("deploy.hdop_points"), "count"),
        "deploy.hdop_us_per_point": (
            1e6 * _ratio(t("deploy.hdop_grid"), c("deploy.hdop_points")), "us"),
        "deploy.worst_hdop_s": (t("deploy.worst_hdop"), "s"),
        "trace.absent_layers": (len(absent), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
