"""Seeded scenario configs for the benchmark workloads.

Each workload turns a seed into the scenario config JSON the CLI reads.
The seed picks the anchor clocks, the tag paths and the simulator seed;
the layouts, tag counts and durations are fixed per workload, so runs on
different seeds do the same amount of work.  Both workloads run past one
40-bit counter wrap (about 17.2 s) on purpose.
"""

from __future__ import annotations

import random
from pathlib import Path

WRAP_SECONDS = 2**40 / (128 * 499.2e6)

FLEET_ROOM = (24.0, 16.0)
FLEET_TAGS = 100
FLEET_DURATION = 18.0

HALL_SIDE = 40.0
HALL_PITCH = 8.0
HALL_RADIUS = 24.0
HALL_TAGS = 4
HALL_DURATION = 30.0
# Primary master near the middle, three level-2 masters around it; every
# level-2 master hears the primary within the reception radius.
HALL_PRIMARY = (16.0, 16.0)
HALL_SUBMASTERS = ((32.0, 16.0), (16.0, 32.0), (32.0, 32.0))

# deploy-check grid step on the hall layout: 161 x 161 points.
DEPLOY_RESOLUTION = 0.25


def _clock(rng: random.Random) -> dict:
    """Free-running anchor clock: any phase within one wrap, +/-20 ppm."""
    return {
        "offset": round(rng.uniform(0.0, WRAP_SECONDS), 9),
        "skew": round(rng.uniform(-20e-6, 20e-6), 12),
        "jitter_std": 1e-10,
    }


def _r(v: float) -> float:
    return round(v, 4)


def fleet_config(seed: int) -> dict:
    """One master and five slaves around a 24 m x 16 m room, every anchor
    hearing every blink; 100 tags walking seeded random-waypoint paths."""
    rng = random.Random(f"fleet-{seed}")
    w, h = FLEET_ROOM
    spots = [(0.0, 0.0), (w / 2, 0.0), (w, 0.0), (w, h), (w / 2, h), (0.0, h)]
    anchors = [
        {"id": "MA1", "role": "master", "level": 1, "position": list(spots[0]),
         "clock": _clock(rng)}
    ]
    for i, pos in enumerate(spots[1:], start=2):
        anchors.append({"id": f"SA{i}", "role": "slave", "position": list(pos),
                        "follows": ["MA1"], "clock": _clock(rng)})

    tags = []
    for n in range(FLEET_TAGS):
        t = 0.0
        x, y = rng.uniform(1.0, w - 1.0), rng.uniform(1.0, h - 1.0)
        points = [[0.0, _r(x), _r(y)]]
        while t <= FLEET_DURATION:
            nx, ny = rng.uniform(1.0, w - 1.0), rng.uniform(1.0, h - 1.0)
            speed = rng.uniform(0.5, 1.5)
            t += max(((nx - x) ** 2 + (ny - y) ** 2) ** 0.5 / speed, 0.5)
            x, y = nx, ny
            points.append([_r(t), _r(x), _r(y)])
        tags.append({"id": f"T{n:03d}", "trajectory": {"kind": "waypoints", "points": points}})
    return {
        "anchors": anchors,
        "tags": tags,
        "duration": FLEET_DURATION,
        "seed": rng.randrange(2**31),
        "area": [[0.0, 0.0], [w, h]],
    }


def hall_anchors(rng: random.Random) -> list[dict]:
    """36 anchors on an 8 m grid with a four-master cascade.  Every slave
    follows each master within the reception radius."""
    n = int(HALL_SIDE / HALL_PITCH) + 1
    grid = [(i * HALL_PITCH, j * HALL_PITCH) for j in range(n) for i in range(n)]
    masters = {HALL_PRIMARY: "MA01"}
    masters.update({pos: f"MB{k:02d}" for k, pos in enumerate(HALL_SUBMASTERS, start=1)})
    anchors = []
    for k, pos in enumerate(grid):
        entry: dict = {"position": list(pos)}
        if pos == HALL_PRIMARY:
            entry.update(id="MA01", role="master", level=1)
        elif pos in masters:
            slot = HALL_SUBMASTERS.index(pos) + 1
            entry.update(id=masters[pos], role="master", level=2, lag_slot=slot,
                         follows=["MA01"])
        else:
            heard = sorted(
                mid for mpos, mid in masters.items()
                if ((mpos[0] - pos[0]) ** 2 + (mpos[1] - pos[1]) ** 2) ** 0.5 <= HALL_RADIUS
            )
            entry.update(id=f"SA{k:02d}", role="slave", follows=heard)
        entry["clock"] = _clock(rng)
        anchors.append(entry)
    return anchors


def hall_config(seed: int) -> dict:
    """Four tags touring the hall's quadrants and back to their start over
    30 s, so each leaves some anchors' range for longer than half a wrap
    and then returns.  Waypoints stay within 3 m of the quadrant centres,
    which keeps receivers per blink, and so the work, alike across seeds."""
    rng = random.Random(f"hall-{seed}")
    anchors = hall_anchors(rng)
    half = HALL_SIDE / 2
    cells = [(0.0, 0.0), (half, 0.0), (half, half), (0.0, half)]
    tags = []
    for n in range(HALL_TAGS):
        start = rng.randrange(4)
        step = rng.choice((1, 3))  # clockwise or counter-clockwise
        order = [cells[(start + step * i) % 4] for i in range(4)] + [cells[start]]
        legs = len(order) - 1
        points = []
        for i, (cx, cy) in enumerate(order):
            points.append([_r(HALL_DURATION * i / legs),
                           _r(cx + half / 2 + rng.uniform(-3.0, 3.0)),
                           _r(cy + half / 2 + rng.uniform(-3.0, 3.0))])
        tags.append({"id": f"T{n:03d}", "trajectory": {"kind": "waypoints", "points": points}})
    return {
        "anchors": anchors,
        "tags": tags,
        "duration": HALL_DURATION,
        "seed": rng.randrange(2**31),
        "reception_radius": HALL_RADIUS,
        "area": [[0.0, 0.0], [HALL_SIDE, HALL_SIDE]],
    }


CONFIGS = {"fleet": fleet_config, "hall": hall_config}


def stages(workload: str, config: str, out: str) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one pipeline run, as (stage, argv) pairs.

    Both workloads simulate, locate and evaluate; ``hall`` then audits its
    own layout with ``deploy-check``, the one workload that runs the
    placement rules and the HDoP grid.
    """

    def f(name: str) -> str:
        return str(Path(out) / name)

    runs = [
        ("simulate", ["simulate", "--config", config, "--out", out]),
        ("locate", ["locate", "--config", config, "--out", out,
                    "--reports", f("reports.jsonl")]),
        ("eval", ["eval", "--config", config, "--out", out, "--fixes", f("fixes.csv"),
                  "--truth", f("truth.jsonl"), "--synced", f("synced.csv")]),
    ]
    if workload == "hall":
        runs.append(("deploy-check", ["deploy-check", "--config", config, "--out", out,
                                      "--resolution", str(DEPLOY_RESOLUTION)]))
    return runs
