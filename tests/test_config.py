"""Configuration file parsing and validation."""

from __future__ import annotations

import copy
import json

import pytest

from uwb_rtls.clock import ClockModel
from uwb_rtls.config import ConfigError, load_config, parse_config
from uwb_rtls.simnet import (
    ConstantVelocityTrajectory,
    StaticTrajectory,
    WaypointTrajectory,
)

BASE = {
    "anchors": [
        {"id": "MA1", "role": "master", "position": [0.0, 0.0], "level": 1,
         "clock": {"offset": 0.0012, "skew": 8e-6}},
        {"id": "SA2", "role": "slave", "position": [6.0, 0.0], "follows": "MA1"},
        {"id": "SA3", "role": "slave", "position": [6.0, 4.0], "follows": ["MA1"]},
        {"id": "SA4", "role": "slave", "position": [0.0, 4.0], "follows": "MA1"},
    ],
    "tags": [
        {"id": "T1", "trajectory": {"kind": "static", "position": [2.0, 1.5]}},
    ],
    "duration": 10.0,
    "seed": 7,
}


def _tweaked(**top_level):
    raw = copy.deepcopy(BASE)
    raw.update(top_level)
    return raw


def test_minimal_config_parses_with_defaults():
    cfg = parse_config(BASE)
    scn = cfg.scenario
    assert scn.duration == 10.0
    assert scn.seed == 7
    assert scn.blink_period == 0.1
    assert scn.ccp_period == 0.15
    assert scn.topology.ids() == ("MA1", "SA2", "SA3", "SA4")
    assert scn.topology.anchor("MA1").clock.offset == 0.0012
    assert scn.tags[0].trajectory == StaticTrajectory((2.0, 1.5))
    assert cfg.tracker.gap_reset == 10
    assert cfg.wcs.k_band == 1e-4
    assert cfg.warmup == 50
    assert cfg.area is None


def test_solver_dt_is_rejected():
    # The tracker steps by the top-level blink_period; there is no second copy.
    with pytest.raises(ConfigError, match=r"config.solver.*\bdt\b"):
        parse_config(_tweaked(solver={"dt": 0.05}))


def test_engine_params_carry_the_config():
    cfg = parse_config(_tweaked(blink_period=0.2, ccp_period=0.25, solver={"sigma_accel": 0.5},
                                wcs={"k_band": 2e-4, "stale_intervals": 3.0}))
    params = cfg.engine_params()
    assert (params.blink_period, params.ccp_period) == (0.2, 0.25)
    assert params.tracker == cfg.tracker and params.tracker.sigma_accel == 0.5
    assert params.wcs == cfg.wcs and (params.wcs.k_band, params.wcs.stale_intervals) == (2e-4, 3.0)


def test_plain_ids_with_spaces_backslashes_and_non_ascii_are_accepted():
    raw = copy.deepcopy(BASE)
    raw["anchors"][2]["id"] = "SA 3\\"
    raw["tags"][0]["id"] = "Tü 1"
    cfg = parse_config(raw)
    assert cfg.scenario.topology.ids()[2] == "SA 3\\"
    assert cfg.scenario.tags[0].id == "Tü 1"


def test_unknown_keys_are_named_in_the_error():
    with pytest.raises(ConfigError, match="blink_perod"):
        parse_config(_tweaked(blink_perod=0.1))
    raw = copy.deepcopy(BASE)
    raw["anchors"][0]["colour"] = "red"
    with pytest.raises(ConfigError, match=r"anchors\[0\].*colour"):
        parse_config(raw)
    with pytest.raises(ConfigError, match="sigma_tt"):
        parse_config(_tweaked(solver={"sigma_tt": 1.0}))


def test_negative_seed_is_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config(_tweaked(seed=-1))


def test_wrong_types_are_rejected():
    with pytest.raises(ConfigError, match="duration"):
        parse_config(_tweaked(duration="long"))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(_tweaked(seed=1.5))
    with pytest.raises(ConfigError, match="seed"):
        parse_config(_tweaked(seed=True))
    with pytest.raises(ConfigError, match="duration: number out of float range"):
        parse_config(_tweaked(duration=10**400))
    raw = copy.deepcopy(BASE)
    raw["anchors"][1]["position"] = [6.0]
    with pytest.raises(ConfigError, match="position"):
        parse_config(raw)


@pytest.mark.parametrize("key, value", [
    ("k_band", 0.0), ("k_band", -1e-4), ("k_band", 1.0), ("k_band", 2.0), ("k_band", float("nan")),
    ("stale_intervals", 0.0), ("stale_intervals", -1.0), ("stale_intervals", float("nan")),
    ("stale_intervals", float("inf")),
])
def test_sync_params_out_of_range_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"config.wcs.*{key}"):
        parse_config(_tweaked(wcs={key: value}))


@pytest.mark.parametrize("key, value", [
    ("process_var", -1e-22), ("process_var", float("inf")), ("process_var", float("nan")),
    ("measurement_var", 0.0), ("measurement_var", -1.0), ("measurement_var", float("inf")),
    ("measurement_var", float("nan")),
])
def test_smoother_params_out_of_range_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"config.wcs.*{key}"):
        parse_config(_tweaked(wcs={key: value}))


@pytest.mark.parametrize("key, value", [
    ("sigma_t", 0.0), ("sigma_t", -1e-10), ("sigma_t", float("inf")), ("sigma_t", float("nan")),
    ("sigma_accel", -1.0), ("sigma_accel", float("inf")), ("sigma_accel", float("nan")),
    ("init_pos_var", 0.0), ("init_pos_var", -0.25), ("init_pos_var", float("nan")),
    ("init_vel_var", 0.0), ("init_vel_var", -1.0), ("init_vel_var", float("inf")),
    ("gap_reset", -1),
])
def test_solver_params_out_of_range_are_rejected(key, value):
    with pytest.raises(ConfigError, match=f"config.solver.*{key}"):
        parse_config(_tweaked(solver={key: value}))


def test_solver_params_at_their_bounds_are_accepted():
    cfg = parse_config(_tweaked(solver={"sigma_accel": 0.0, "gap_reset": 0}))
    assert (cfg.tracker.sigma_accel, cfg.tracker.gap_reset) == (0.0, 0)
    cfg = parse_config(_tweaked(wcs={"process_var": 0.0}))
    assert cfg.wcs.process_var == 0.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("duration", "blink_period", "ccp_period", "lag")
    for value in (0.0, -1.0, NAN, INF, -INF)
] + [("reception_radius", value) for value in (0.0, NAN, INF)])
def test_periods_and_radius_must_be_positive_and_finite(key, value):
    # parse_config only: at a loader without the rule, simulate would not end.
    with pytest.raises(ConfigError, match=f"config: {key}"):
        parse_config(_tweaked(**{key: value}))


def test_null_reception_radius_means_unlimited():
    assert parse_config(_tweaked(reception_radius=None)).scenario.reception_radius is None
    assert parse_config(_tweaked(reception_radius=12.5)).scenario.reception_radius == 12.5


@pytest.mark.parametrize("key, value", [
    ("offset", NAN), ("offset", INF), ("skew", NAN), ("skew", -INF), ("drift_rate", INF),
    ("drift_rate", NAN), ("jitter_std", INF), ("jitter_std", NAN),
    ("skew", 2e-4), ("skew", -2e-4), ("jitter_std", -1e-10),
])
def test_clock_params_out_of_range_are_rejected(key, value):
    raw = copy.deepcopy(BASE)
    raw["anchors"][0]["clock"] = {key: value}
    with pytest.raises(ConfigError, match=rf"anchors\[0\]\.clock: {key}"):
        parse_config(raw)


def test_clock_defaults_come_from_the_clock_model():
    raw = copy.deepcopy(BASE)
    raw["anchors"][0]["clock"] = {"skew": 1e-5}
    cfg = parse_config(raw)
    assert cfg.scenario.topology.anchor("MA1").clock == ClockModel(skew=1e-5)
    assert cfg.scenario.topology.anchor("SA2").clock == ClockModel()
    raw["anchors"][0]["clock"] = {"skew": "fast"}
    with pytest.raises(ConfigError, match=r"anchors\[0\]\.clock\.skew: expected a number"):
        parse_config(raw)


def _with_tag_trajectory(trajectory):
    return _tweaked(tags=[{"id": "T1", "trajectory": trajectory}])


def _with_anchor_position(position):
    raw = copy.deepcopy(BASE)
    raw["anchors"][1]["position"] = position
    return raw


@pytest.mark.parametrize("raw, where", [
    (_with_tag_trajectory({"kind": "static", "position": [NAN, 1.5]}), r"tags\[0\].trajectory.position"),
    (_with_tag_trajectory({"kind": "static", "position": [2.0, -INF]}), r"tags\[0\].trajectory.position"),
    (_with_tag_trajectory({"kind": "constant_velocity", "start": [1.0, INF], "velocity": [0.5, 0.0]}),
     r"tags\[0\].trajectory.start"),
    (_with_tag_trajectory({"kind": "constant_velocity", "start": [1.0, 1.0], "velocity": [NAN, 0.0]}),
     r"tags\[0\].trajectory.velocity"),
    (_with_tag_trajectory({"kind": "waypoints", "points": [[0.0, 0.0, 0.0], [INF, 4.0, 0.0]]}),
     r"tags\[0\].trajectory.points\[1\]"),
    (_with_tag_trajectory({"kind": "waypoints", "points": [[0.0, NAN, 0.0], [5.0, 4.0, 0.0]]}),
     r"tags\[0\].trajectory.points\[0\]"),
    (_with_anchor_position([6.0, NAN]), r"anchors\[1\].position"),
    (_tweaked(area=[[0.0, 0.0], [INF, 4.0]]), r"config.area\[1\]"),
    (_tweaked(area=[[-INF, 0.0], [6.0, 4.0]]), r"config.area\[0\]"),
    (_tweaked(area=[[0.0, 0.0], [6.0, NAN]]), r"config.area\[1\]"),
])
def test_non_finite_coordinates_are_rejected(raw, where):
    with pytest.raises(ConfigError, match=f"{where}: coordinates must be finite"):
        parse_config(raw)


def test_missing_required_fields():
    raw = copy.deepcopy(BASE)
    del raw["duration"]
    with pytest.raises(ConfigError, match="duration"):
        parse_config(raw)
    raw = copy.deepcopy(BASE)
    del raw["anchors"][0]["position"]
    with pytest.raises(ConfigError, match="position"):
        parse_config(raw)


def test_role_level_pairing_is_enforced():
    raw = copy.deepcopy(BASE)
    del raw["anchors"][0]["level"]
    with pytest.raises(ConfigError, match="level"):
        parse_config(raw)
    raw = copy.deepcopy(BASE)
    raw["anchors"][1]["level"] = 2
    with pytest.raises(ConfigError, match="level"):
        parse_config(raw)
    raw = copy.deepcopy(BASE)
    raw["anchors"][0]["role"] = "coordinator"
    with pytest.raises(ConfigError, match="coordinator"):
        parse_config(raw)


def test_topology_problems_surface_as_config_errors():
    raw = copy.deepcopy(BASE)
    raw["anchors"][3]["follows"] = []  # orphan slave
    with pytest.raises(ConfigError, match="SA4"):
        parse_config(raw)


def test_trajectory_kinds():
    raw = _tweaked(tags=[
        {"id": "T1", "trajectory": {"kind": "constant_velocity",
                                    "start": [1.0, 1.0], "velocity": [0.5, 0.0]}},
        {"id": "T2", "trajectory": {"kind": "waypoints",
                                    "points": [[0.0, 0.0, 0.0], [5.0, 4.0, 0.0]]}},
    ])
    cfg = parse_config(raw)
    t1, t2 = cfg.scenario.tags
    assert t1.trajectory == ConstantVelocityTrajectory((1.0, 1.0), (0.5, 0.0))
    assert t2.trajectory == WaypointTrajectory(((0.0, (0.0, 0.0)), (5.0, (4.0, 0.0))))

    with pytest.raises(ConfigError, match="teleport"):
        parse_config(_tweaked(tags=[{"id": "T1", "trajectory": {"kind": "teleport"}}]))
    with pytest.raises(ConfigError, match="points"):
        parse_config(_tweaked(tags=[{"id": "T1", "trajectory": {
            "kind": "waypoints", "points": [[0.0, 0.0, 0.0]]}}]))


def test_area_must_be_an_ordered_box():
    cfg = parse_config(_tweaked(area=[[0.0, 0.0], [6.0, 4.0]]))
    assert cfg.area == ((0.0, 0.0), (6.0, 4.0))
    with pytest.raises(ConfigError, match="area"):
        parse_config(_tweaked(area=[[6.0, 4.0], [0.0, 0.0]]))


def test_links_parse_into_sets():
    cfg = parse_config(_tweaked(blink_links={"T1": ["MA1", "SA2", "SA3", "SA4"]}))
    assert cfg.scenario.blink_links == {"T1": frozenset({"MA1", "SA2", "SA3", "SA4"})}
    with pytest.raises(ConfigError, match="blink_links"):
        parse_config(_tweaked(blink_links={"T1": "MA1"}))


@pytest.mark.parametrize("field, value, message", [
    ("follows", ["MA1", 3], "anchors[2].follows[1]: expected an anchor id string"),
    ("follows", 5, "anchors[2].follows: expected a string or list of strings"),
    ("ccp_links", {"SA2": "MA1"}, "config.ccp_links.SA2: expected a list of anchor ids"),
    ("ccp_links", {"SA2": ["MA1", None]}, "config.ccp_links.SA2[1]: expected an anchor id string"),
    ("blink_links", {"T1": [7]}, "config.blink_links.T1[0]: expected an anchor id string"),
], ids=["follows-item", "follows-form", "ccp-links-form", "ccp-links-item", "blink-links-item"])
def test_anchor_id_lists_name_the_bad_entry(field, value, message):
    # follows, ccp_links and blink_links share one reader of anchor id
    # lists; each error names the field and the entry it rejects.
    raw = copy.deepcopy(BASE)
    if field == "follows":
        raw["anchors"][2]["follows"] = value
    else:
        raw[field] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == message


def test_load_config_reads_files_and_reports_bad_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE))
    cfg = load_config(path)
    assert cfg.scenario.duration == 10.0

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(bad)
