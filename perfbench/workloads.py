"""Seeded scenario specs for the benchmark workloads.

The seed drives the scenario generator's random stream (sensor noise); the
road, the vehicle placement and the pass length are fixed per workload, so
one seed always yields the same frames, poses and ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from cavtraj.pipeline.scenario import (
    DropoutWindow,
    RoadSpec,
    ScenarioSpec,
    SensorSpec,
    VehicleSpec,
)

DEFAULT_SEED = 0  # the ROADMAP seed; README.md names the hold-out seed


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int], ScenarioSpec]
    from_disk: bool = False  # write the scenario with frames_io and replay it from files


def freeway_baseline(seed: int) -> ScenarioSpec:
    """ROADMAP baseline road: 400 m straight, 3 lanes, 2 agents, 8 SVs, poles on.

    Both agents drive lane 2, 25 m apart, each flanked by an SV in lanes 1
    and 3 at about 3.7 m, so every frame carries dense near-range hulls.
    The other four SVs keep more than the 50 m sensor range from both agents,
    so, as in the ROADMAP baseline, 4 of the 8 SVs are visible.
    """
    v = VehicleSpec
    return ScenarioSpec(
        name="freeway_baseline",
        duration=4.0,
        seed=seed,
        road=RoadSpec(kind="straight", length=400.0, n_lanes=3),
        agents=[v(1, 2, 125.0, 25.0), v(2, 2, 100.0, 25.0)],
        svs=[
            v(101, 1, 125.0, 25.0),   # beside agent 1, left
            v(102, 3, 126.0, 25.1),   # beside agent 1, right
            v(103, 1, 99.0, 25.0),    # beside agent 2, left
            v(104, 3, 101.0, 24.9),   # beside agent 2, right
            v(105, 1, 20.0, 25.0),    # out of range behind
            v(106, 3, 30.0, 25.0),
            v(107, 2, 190.0, 25.0),   # out of range ahead
            v(108, 3, 200.0, 25.5),
        ],
        poles=True,
    )


def arc_fleet(seed: int) -> ScenarioSpec:
    """Arc road (R 400 m, 100 deg, 4 lanes), 4 agents, 25 SVs, sparse sensor.

    The agents share a 40 m window in adjacent lanes; the SVs sit every 9 m
    of road, cycling through the lanes, with speeds spread over 21-28 m/s.
    Two SVs near the agents drop out of every frame for half a second.
    """
    v = VehicleSpec
    svs = [
        v(200 + k, 1 + k % 4, 95.0 + 9.0 * k, 21.0 + (7 * k % 9) * 0.9)
        for k in range(25)
    ]
    return ScenarioSpec(
        name="arc_fleet",
        duration=3.0,
        seed=seed,
        road=RoadSpec(kind="arc", radius=400.0, arc_angle_deg=100.0, n_lanes=4, sample_step=0.5),
        agents=[v(1, 1, 190.0, 25.0), v(2, 2, 170.0, 25.0), v(3, 3, 210.0, 25.0), v(4, 4, 185.0, 25.0)],
        svs=svs,
        sensor=SensorSpec(base_spacing=0.3),
        dropouts=[DropoutWindow(209, 1.0, 1.5), DropoutWindow(212, 2.0, 2.5)],
        poles=False,
    )


def disk_replay(seed: int) -> ScenarioSpec:
    """300 m straight, 2 lanes, 1 agent, 2 SVs, 0.4 m ground lattice, walls on."""
    v = VehicleSpec
    return ScenarioSpec(
        name="disk_replay",
        duration=3.0,
        seed=seed,
        road=RoadSpec(kind="straight", length=300.0, n_lanes=2),
        agents=[v(1, 1, 80.0, 22.0)],
        svs=[v(101, 2, 90.0, 23.0), v(102, 1, 100.0, 21.0)],
        ground_spacing=0.4,
        walls=True,
    )


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("freeway_baseline", freeway_baseline),
        Workload("arc_fleet", arc_fleet),
        Workload("disk_replay", disk_replay, from_disk=True),
    )
}
