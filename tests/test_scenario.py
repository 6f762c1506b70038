import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cavtraj.errors import ValidationError
from cavtraj.geometry import rotation_from_euler
from cavtraj.pipeline.frames_io import read_frame_dir, read_pose_csv
from cavtraj.pipeline.scenario import (
    GROUND_TRUTH_HEADER,
    RoadSpec,
    ScenarioSpec,
    SensorSpec,
    VehicleSpec,
    generate_scenario,
    write_scenario,
)
from cavtraj.world_model import load_vector_map, vector_map_from_dict


SPEC = ScenarioSpec(
    duration=0.3,
    seed=5,
    road=RoadSpec(length=120.0, n_lanes=2),
    agents=[VehicleSpec(1, 1, 40.0, 20.0), VehicleSpec(2, 2, 30.0, 18.0)],
    svs=[VehicleSpec(101, 2, 48.0, 20.0), VehicleSpec(102, 1, 60.0, 22.0)],
)


def test_write_scenario_round_trip(tmp_path):
    data = generate_scenario(SPEC)
    out = write_scenario(data, tmp_path / "scenario")

    config = json.loads((out / "config.json").read_text())
    assert config["map"]["file"] == "map.json"
    assert config["reference_agent"] == 1
    assert [a["agent_id"] for a in config["agents"]] == [1, 2]

    vmap = load_vector_map(out / config["map"]["file"])
    ref = vector_map_from_dict(data.vector_map)
    assert sorted(vmap.lanelets) == sorted(ref.lanelets)
    for lid, lanelet in vmap.lanelets.items():
        np.testing.assert_array_equal(lanelet.centerline.points, ref.lanelets[lid].centerline.points)

    for entry in config["agents"]:
        aid = entry["agent_id"]
        assert entry["frames_dir"] == f"agents/agent_{aid}/frames"
        assert entry["pose_file"] == f"agents/agent_{aid}/poses.csv"
        frames = read_frame_dir(out / entry["frames_dir"], aid)
        assert len(frames) == len(data.frames[aid]) == 3
        for back, frame in zip(frames, data.frames[aid]):
            assert back.agent_id == aid
            assert len(back) == len(frame) > 0
            assert back.timestamp == frame.timestamp
            np.testing.assert_array_equal(back.points, frame.points)
        poses = read_pose_csv(out / entry["pose_file"])
        assert len(poses) == len(data.poses[aid])
        for back, (t, tf) in zip(poses, data.poses[aid]):
            assert back.timestamp == t
            np.testing.assert_array_equal(back.transform.translation, tf.translation)
            # the rotation is rebuilt from exactly the written Euler angles
            np.testing.assert_array_equal(back.transform.rotation, rotation_from_euler(tf.euler))
            np.testing.assert_allclose(back.transform.rotation, tf.rotation, rtol=0, atol=1e-15)

    lines = (out / "ground_truth.csv").read_text().splitlines()
    assert lines[0] == GROUND_TRUTH_HEADER
    assert len(lines) - 1 == len(data.ground_truth) > 0


def test_write_scenario_is_byte_identical_when_repeated(tmp_path):
    data = generate_scenario(SPEC)
    outs = [write_scenario(data, tmp_path / name) for name in ("first", "second")]
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1]
    assert any(p.suffix == ".npz" for p in files[0])
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


BAD_ROADS = {
    "step_zero": dict(sample_step=0.0),  # was OverflowError when the map was built
    "step_negative": dict(sample_step=-2.0),  # was 2-point polylines
    "step_nan": dict(sample_step=math.nan),
    "length_zero": dict(length=0.0),
    "length_inf": dict(length=math.inf),
    "lanes_zero": dict(n_lanes=0),
    "lanes_fraction": dict(n_lanes=2.5),
    "lanes_bool": dict(n_lanes=True),
    "lane_width_nan": dict(lane_width=math.nan),
    "lane_width_zero": dict(lane_width=0.0),
    "kind_unknown": dict(kind="spiral"),
    "arc_radius_at_half_width": dict(kind="arc", radius=3.7, n_lanes=2),
    "arc_radius_inside_half_width": dict(kind="arc", radius=2.0, n_lanes=2),
    "arc_radius_nan": dict(kind="arc", radius=math.nan),
    "arc_angle_zero": dict(kind="arc", arc_angle_deg=0.0),
}


@pytest.mark.parametrize("fields", BAD_ROADS.values(), ids=BAD_ROADS.keys())
def test_road_spec_rejects_bad_value(fields):
    with pytest.raises(ValidationError):
        RoadSpec(**fields)


def test_straight_road_is_not_held_to_the_arc_radius():
    assert RoadSpec(kind="straight", radius=1.0, n_lanes=4).half_width == 7.4


BAD_SENSORS = {
    "base_spacing_zero": dict(base_spacing=0.0),  # was ZeroDivisionError when a hull was sampled
    "base_spacing_nan": dict(base_spacing=math.nan),
    "range_negative": dict(range=-50.0),
    "reference_range_zero": dict(reference_range=0.0),
    "noise_negative": dict(noise_sigma=-0.01),
    "noise_inf": dict(noise_sigma=math.inf),
    "min_hull_z_nan": dict(min_hull_z=math.nan),
}


@pytest.mark.parametrize("fields", BAD_SENSORS.values(), ids=BAD_SENSORS.keys())
def test_sensor_spec_rejects_bad_value(fields):
    with pytest.raises(ValidationError):
        SensorSpec(**fields)


BAD_SCENARIOS = {
    "ground_spacing_nan": dict(ground_spacing=math.nan),  # was ValueError from the lattice
    "ground_spacing_negative": dict(ground_spacing=-0.4),
    "duration_nan": dict(duration=math.nan),
    "dt_zero": dict(dt=0.0),
}


@pytest.mark.parametrize("fields", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS.keys())
def test_scenario_spec_rejects_bad_value(fields):
    with pytest.raises(ValidationError):
        generate_scenario(replace(SPEC, **fields))


def test_spec_range_ends_accepted():
    # no noise, no ground lattice and hull points from the ground up are all valid
    spec = replace(SPEC, duration=0.1, ground_spacing=0.0, sensor=SensorSpec(noise_sigma=0.0, min_hull_z=0.0))
    frame = generate_scenario(spec).frames[1][0]
    assert len(frame) > 0 and frame.points.min(axis=0)[2] == 0.0
