import json

import numpy as np

from cavtraj.geometry import rotation_from_euler
from cavtraj.pipeline.frames_io import read_frame_dir, read_pose_csv
from cavtraj.pipeline.scenario import (
    GROUND_TRUTH_HEADER,
    RoadSpec,
    ScenarioSpec,
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
