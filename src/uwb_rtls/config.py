"""JSON scenario configuration.

One file describes everything a run needs: the anchor network, the tags and
their motion, radio timing, clock imperfections, and evaluation knobs.  The
loader is strict; unknown or ill-typed fields raise ``ConfigError`` naming
the offending key so a typo cannot silently fall back to a default.

The ``clock``, ``solver`` and ``wcs`` blocks are read from the dataclasses
they fill (``ClockModel``, ``TrackerConfig``, ``WcsParams``): the keys are
their fields, a missing key takes the field's default, and the range rules
are the dataclass's own.  Top-level defaults are ``Scenario``'s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .clock import ClockModel
from .engine import EngineParams
from .metrics import DEFAULT_WARMUP
from .simnet import (
    ConstantVelocityTrajectory,
    Scenario,
    StaticTrajectory,
    TagSpec,
    Trajectory,
    WaypointTrajectory,
)
from .solver import TrackerConfig
from .topology import AnchorConfig, NetworkTopology, ROLE_MASTER, ROLE_SLAVE
from .wcs import (
    DEFAULT_K_BAND,
    DEFAULT_MEASUREMENT_VAR,
    DEFAULT_PROCESS_VAR,
    DEFAULT_STALE_INTERVALS,
    check_smoother_params,
    check_sync_params,
)


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class WcsParams:
    """Sync and smoother settings; a value out of range raises ValueError
    (``check_sync_params``, ``check_smoother_params``)."""

    k_band: float = DEFAULT_K_BAND
    stale_intervals: float = DEFAULT_STALE_INTERVALS
    process_var: float = DEFAULT_PROCESS_VAR
    measurement_var: float = DEFAULT_MEASUREMENT_VAR

    def __post_init__(self) -> None:
        check_sync_params(self.k_band, self.stale_intervals)
        check_smoother_params(self.process_var, self.measurement_var)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything parsed from one configuration file."""

    scenario: Scenario
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    wcs: WcsParams = field(default_factory=WcsParams)
    warmup: int = DEFAULT_WARMUP
    area: tuple[tuple[float, float], tuple[float, float]] | None = None

    def engine_params(self) -> EngineParams:
        """The engine's view of this config: periods, tracker and sync settings."""
        return EngineParams(
            ccp_period=self.scenario.ccp_period,
            blink_period=self.scenario.blink_period,
            tracker=self.tracker,
            k_band=self.wcs.k_band,
            stale_intervals=self.wcs.stale_intervals,
        )


_ALLOWED_TOP = {
    "anchors", "tags", "blink_period", "ccp_period", "lag", "duration",
    "seed", "reception_radius", "ccp_links", "blink_links", "solver",
    "wcs", "eval", "area",
}
_ALLOWED_ANCHOR = {"id", "role", "position", "level", "lag_slot", "follows", "clock"}
_ALLOWED_EVAL = {"warmup"}


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _real(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{where}: number out of float range") from None


def _number(obj: Mapping[str, Any], key: str, where: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing required field '{key}'")
        return default
    return _real(obj[key], f"{where}.{key}")


def _integer(obj: Mapping[str, Any], key: str, where: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing required field '{key}'")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {type(v).__name__}")
    return v


def _string(obj: Mapping[str, Any], key: str, where: str) -> str:
    if key not in obj:
        raise ConfigError(f"{where}: missing required field '{key}'")
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where}.{key}: expected a non-empty string")
    return v


def _point(value: Any, where: str, dims: tuple[int, ...] = (2, 3)) -> tuple[float, ...]:
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ConfigError(f"{where}: expected a coordinate list")
    if len(value) not in dims:
        raise ConfigError(f"{where}: expected {' or '.join(map(str, dims))} coordinates, got {len(value)}")
    out = tuple(_real(c, f"{where}[{i}]") for i, c in enumerate(value))
    if not all(map(math.isfinite, out)):
        raise ConfigError(f"{where}: coordinates must be finite, got {list(out)}")
    return out


def _block(cls: type, obj: Any, where: str) -> Any:
    """Build dataclass ``cls`` from a JSON object whose keys are its fields.

    A missing key takes the field's default; a field whose default is an
    int takes an integer, any other a number.  A ValueError from ``cls``
    becomes a ConfigError naming ``where``.
    """
    m = _require_mapping(obj, where)
    read = {f.name: _integer if isinstance(f.default, int) else _number for f in fields(cls)}
    _check_keys(m, set(read), where)
    try:
        return cls(**{key: read[key](m, key, where) for key in read if key in m})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_anchor(obj: Any, index: int) -> tuple[AnchorConfig, int | None, int | None, list[str]]:
    where = f"anchors[{index}]"
    m = _require_mapping(obj, where)
    _check_keys(m, _ALLOWED_ANCHOR, where)
    anchor_id = _string(m, "id", where)
    role = _string(m, "role", where)
    if role not in (ROLE_MASTER, ROLE_SLAVE):
        raise ConfigError(f"{where}.role: expected '{ROLE_MASTER}' or '{ROLE_SLAVE}', got '{role}'")
    position = _point(m["position"], f"{where}.position") if "position" in m else None
    if position is None:
        raise ConfigError(f"{where}: missing required field 'position'")
    clock = _block(ClockModel, m.get("clock", {}), f"{where}.clock")

    level = _integer(m, "level", where) if "level" in m else None
    lag_slot = _integer(m, "lag_slot", where) if "lag_slot" in m else None
    follows_raw = m.get("follows", [])
    if isinstance(follows_raw, str):
        follows = [follows_raw]
    elif isinstance(follows_raw, Sequence):
        follows = []
        for j, f in enumerate(follows_raw):
            if not isinstance(f, str):
                raise ConfigError(f"{where}.follows[{j}]: expected an anchor id string")
            follows.append(f)
    else:
        raise ConfigError(f"{where}.follows: expected a string or list of strings")

    if role == ROLE_SLAVE and level is not None:
        raise ConfigError(f"{where}.level: only master anchors carry a level")
    if role == ROLE_MASTER and level is None:
        raise ConfigError(f"{where}: master anchors require a 'level'")
    return AnchorConfig(id=anchor_id, role=role, position=position, clock=clock), level, lag_slot, follows


def _parse_trajectory(obj: Any, where: str) -> Trajectory:
    m = _require_mapping(obj, where)
    kind = _string(m, "kind", where)
    if kind == "static":
        _check_keys(m, {"kind", "position"}, where)
        if "position" not in m:
            raise ConfigError(f"{where}: missing required field 'position'")
        x, y = _point(m["position"], f"{where}.position", dims=(2,))
        return StaticTrajectory((x, y))
    if kind == "constant_velocity":
        _check_keys(m, {"kind", "start", "velocity"}, where)
        if "start" not in m or "velocity" not in m:
            raise ConfigError(f"{where}: constant_velocity needs 'start' and 'velocity'")
        start = _point(m["start"], f"{where}.start", dims=(2,))
        velocity = _point(m["velocity"], f"{where}.velocity", dims=(2,))
        return ConstantVelocityTrajectory(start, velocity)
    if kind == "waypoints":
        _check_keys(m, {"kind", "points"}, where)
        pts = m.get("points")
        if not isinstance(pts, Sequence) or isinstance(pts, str):
            raise ConfigError(f"{where}.points: expected a list of [t, x, y] triples")
        triples = []
        for j, p in enumerate(pts):
            t, x, y = _point(p, f"{where}.points[{j}]", dims=(3,))
            triples.append((t, (x, y)))
        try:
            return WaypointTrajectory(tuple(triples))
        except ValueError as exc:
            raise ConfigError(f"{where}.points: {exc}") from exc
    raise ConfigError(f"{where}.kind: unknown trajectory kind '{kind}'")


def _parse_links(obj: Any, where: str) -> dict[str, frozenset[str]]:
    m = _require_mapping(obj, where)
    out = {}
    for key, val in m.items():
        if not isinstance(val, Sequence) or isinstance(val, str):
            raise ConfigError(f"{where}.{key}: expected a list of anchor ids")
        ids = []
        for j, a in enumerate(val):
            if not isinstance(a, str):
                raise ConfigError(f"{where}.{key}[{j}]: expected an anchor id string")
            ids.append(a)
        out[key] = frozenset(ids)
    return out


def parse_config(raw: Mapping[str, Any]) -> ScenarioConfig:
    """Build a ScenarioConfig from already-parsed JSON data."""
    _check_keys(_require_mapping(raw, "config"), _ALLOWED_TOP, "config")
    anchors_raw = raw.get("anchors")
    if not isinstance(anchors_raw, Sequence) or not anchors_raw:
        raise ConfigError("config.anchors: expected a non-empty list")

    anchors: list[AnchorConfig] = []
    follow: dict[str, frozenset[str]] = {}
    master_level: dict[str, int] = {}
    lag_slots: dict[str, int] = {}
    for i, entry in enumerate(anchors_raw):
        anchor, level, lag_slot, follows = _parse_anchor(entry, i)
        anchors.append(anchor)
        if follows:
            follow[anchor.id] = frozenset(follows)
        if level is not None:
            master_level[anchor.id] = level
        if lag_slot is not None:
            lag_slots[anchor.id] = lag_slot
    try:
        topo = NetworkTopology(
            anchors=tuple(anchors),
            follow=follow,
            master_level=master_level,
            lag_slots=lag_slots,
        )
    except ValueError as exc:
        raise ConfigError(f"config.anchors: {exc}") from exc

    tags_raw = raw.get("tags", [])
    if not isinstance(tags_raw, Sequence):
        raise ConfigError("config.tags: expected a list")
    tags = []
    for i, entry in enumerate(tags_raw):
        where = f"tags[{i}]"
        m = _require_mapping(entry, where)
        _check_keys(m, {"id", "trajectory"}, where)
        tag_id = _string(m, "id", where)
        if "trajectory" not in m:
            raise ConfigError(f"{where}: missing required field 'trajectory'")
        tags.append(TagSpec(id=tag_id, trajectory=_parse_trajectory(m["trajectory"], f"{where}.trajectory")))

    radius = None
    if raw.get("reception_radius") is not None:
        radius = _number(raw, "reception_radius", "config")

    ccp_links = _parse_links(raw["ccp_links"], "config.ccp_links") if "ccp_links" in raw else None
    blink_links = _parse_links(raw["blink_links"], "config.blink_links") if "blink_links" in raw else None

    # Defaults are Scenario's; duration has none, so it is required.
    periods = {key: _number(raw, key, "config", getattr(Scenario, key, None))
               for key in ("duration", "blink_period", "ccp_period", "lag")}
    seed = _integer(raw, "seed", "config", Scenario.seed)
    try:
        scenario = Scenario(
            topology=topo,
            tags=tuple(tags),
            seed=seed,
            reception_radius=radius,
            ccp_links=ccp_links,
            blink_links=blink_links,
            **periods,
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    tracker = _block(TrackerConfig, raw.get("solver", {}), "config.solver")
    wcs = _block(WcsParams, raw.get("wcs", {}), "config.wcs")

    eval_raw = _require_mapping(raw.get("eval", {}), "config.eval")
    _check_keys(eval_raw, _ALLOWED_EVAL, "config.eval")
    warmup = _integer(eval_raw, "warmup", "config.eval", DEFAULT_WARMUP)
    if warmup < 0:
        raise ConfigError("config.eval.warmup: must be non-negative")

    area = None
    if raw.get("area") is not None:
        area_raw = raw["area"]
        if not isinstance(area_raw, Sequence) or len(area_raw) != 2:
            raise ConfigError("config.area: expected [[xmin, ymin], [xmax, ymax]]")
        lo = _point(area_raw[0], "config.area[0]", dims=(2,))
        hi = _point(area_raw[1], "config.area[1]", dims=(2,))
        if hi[0] <= lo[0] or hi[1] <= lo[1]:
            raise ConfigError("config.area: max corner must exceed min corner")
        area = (lo, hi)

    return ScenarioConfig(scenario=scenario, tracker=tracker, wcs=wcs, warmup=warmup, area=area)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and parse a JSON configuration file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)
