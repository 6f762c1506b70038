import hashlib
import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj.pipeline.frames_io import read_frame_dir, read_pose_csv
from cavtraj.pipeline.scenario import (
    GROUND_TRUTH_HEADER,
    DropoutWindow,
    GroundTruthRow,
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

    frame_files = {f"agents/agent_{aid}/frames/{name}" for aid in (1, 2) for name in ("index.csv", "points.npy")}
    pose_files = {f"agents/agent_{aid}/poses.csv" for aid in (1, 2)}
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == {"map.json", "ground_truth.csv"} | pose_files | frame_files

    vmap = load_vector_map(out / "map.json")
    ref = vector_map_from_dict(data.vector_map)
    assert sorted(vmap.lanelets) == sorted(ref.lanelets)
    # map.json keeps the lanelet order, so both stacks hold the same polylines in the same rows
    assert list(vmap.lanelets.values()) == list(ref.lanelets.values())
    np.testing.assert_array_equal(vmap._stack.first, ref._stack.first)
    np.testing.assert_array_equal(vmap._stack.points, ref._stack.points)

    for aid in (1, 2):
        agent_dir = out / "agents" / f"agent_{aid}"
        frames = read_frame_dir(agent_dir / "frames", aid)
        assert len(frames) == len(data.frames[aid]) == 3
        for back, frame in zip(frames, data.frames[aid]):
            assert back.agent_id == aid
            assert len(back) == len(frame) > 0
            assert back.timestamp == frame.timestamp
            np.testing.assert_array_equal(back.points, frame.points)
        poses = read_pose_csv(agent_dir / "poses.csv")
        assert len(poses) == len(data.poses[aid])
        for back, (t, tf) in zip(poses, data.poses[aid]):
            assert back.timestamp == t
            assert back.transform.translation.tobytes() == tf.translation.tobytes()
            assert back.transform.rotation.tobytes() == tf.rotation.tobytes()

    lines = (out / "ground_truth.csv").read_text().splitlines()
    assert lines[0] == GROUND_TRUTH_HEADER
    assert len(lines) - 1 == len(data.ground_truth) > 0


def _parse_ground_truth(path) -> list[GroundTruthRow]:
    """ground_truth.csv back into rows: ids as int, visible_to as a tuple, the rest as float."""
    lines = path.read_text().splitlines()
    assert lines[0] == GROUND_TRUTH_HEADER
    names = GROUND_TRUTH_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        *values, seen = line.split(",")
        parsed = [int(v) if name in ("sv_id", "lane_id", "lanelet_id") else float(v) for name, v in zip(names, values)]
        rows.append(GroundTruthRow(*parsed, tuple(int(a) for a in seen.split(";"))))
    return rows


def test_ground_truth_file_round_trips_exactly(tmp_path):
    # an arc and an accelerating and a braking SV give positions, speeds and headings with many digits
    spec = replace(PINNED, svs=[*PINNED.svs, VehicleSpec(104, 1, 30.0, 13.0, accel=-1.7)])
    data = generate_scenario(spec)
    back = _parse_ground_truth(write_scenario(data, tmp_path / "gt") / "ground_truth.csv")
    assert len(back) == len(data.ground_truth) > 10
    assert back == data.ground_truth
    for row, ref in zip(back, data.ground_truth):
        assert [type(v) for v in astuple(row)] == [type(v) for v in astuple(ref)]


def test_write_scenario_is_byte_identical_when_repeated(tmp_path):
    data = generate_scenario(SPEC)
    outs = [write_scenario(data, tmp_path / name) for name in ("first", "second")]
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1]
    assert sum(p.name == "points.npy" for p in files[0]) == 2
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel



def test_write_scenario_refuses_a_non_empty_directory(tmp_path):
    # a 0.3 s scenario over a 0.5 s one would leave frames at t = 0.3 and 0.4 beside 3 poses,
    # and pose_at would take the 0.2 s pose for them
    out = write_scenario(generate_scenario(replace(SPEC, duration=0.5)), tmp_path / "scenario")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(InvalidArgument, match="not empty"):
        write_scenario(generate_scenario(SPEC), out)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert len(read_frame_dir(out / "agents" / "agent_1" / "frames")) == 5
    # an existing empty directory is written into
    (tmp_path / "empty").mkdir()
    out = write_scenario(generate_scenario(SPEC), tmp_path / "empty")
    assert len(read_frame_dir(out / "agents" / "agent_1" / "frames")) == 3


def test_write_scenario_refuses_a_file(tmp_path):
    (tmp_path / "scenario").write_text("kept")
    with pytest.raises(InvalidArgument, match="is not a directory"):
        write_scenario(generate_scenario(SPEC), tmp_path / "scenario")
    assert (tmp_path / "scenario").read_text() == "kept"


def test_write_scenario_refuses_a_file_for_a_parent(tmp_path):
    (tmp_path / "f").write_text("kept")
    with pytest.raises(InvalidArgument, match=f"^{re.escape(str(tmp_path / 'f'))} is not a directory$"):
        write_scenario(generate_scenario(SPEC), tmp_path / "f" / "out")
    assert [p.name for p in tmp_path.iterdir()] == ["f"] and (tmp_path / "f").read_text() == "kept"


BAD_ROADS = {
    "step_zero": dict(sample_step=0.0),  # was OverflowError when the map was built
    "step_negative": dict(sample_step=-2.0),  # was 2-point polylines
    "step_nan": dict(sample_step=math.nan),
    "length_zero": dict(length=0.0),
    "length_inf": dict(length=math.inf),
    "length_too_large": dict(length=10**400),  # was OverflowError
    "lanes_zero": dict(n_lanes=0),
    "lanes_fraction": dict(n_lanes=2.5),
    "lanes_bool": dict(n_lanes=True),
    "lane_width_nan": dict(lane_width=math.nan),
    "lane_width_zero": dict(lane_width=0.0),
    "lane_width_bool": dict(lane_width=True),  # was a 1 m lane
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
    "range_bool": dict(range=True),  # was a 1 m range
    "noise_bool": dict(noise_sigma=False),  # was no noise
}


@pytest.mark.parametrize("fields", BAD_SENSORS.values(), ids=BAD_SENSORS.keys())
def test_sensor_spec_rejects_bad_value(fields):
    with pytest.raises(ValidationError):
        SensorSpec(**fields)


BAD_VEHICLES = {
    "length_nan": dict(length=math.nan),  # was a bare ValueError when the hull was sampled
    "length_inf": dict(length=math.inf),
    "width_negative": dict(width=-1.8),  # reached the ground truth
    "height_zero": dict(height=0.0),  # reached the ground truth
    "height_string": dict(height="1.6"),
    "length_bool": dict(length=True),  # was a 1 m vehicle
}


@pytest.mark.parametrize("fields", BAD_VEHICLES.values(), ids=BAD_VEHICLES.keys())
def test_vehicle_spec_rejects_bad_value(fields):
    with pytest.raises(ValidationError):
        VehicleSpec(101, 1, 48.0, 20.0, **fields)


BAD_MOTIONS = {
    "speed_bool": (101, 1, 48.0, True),  # was 1 m/s
    "speed_text": (101, 1, 48.0, "5"),  # was TypeError inside generate_scenario
    "start_nan": (101, 1, math.nan, 20.0),
    "start_none": (101, 1, None, 20.0),
    "accel_inf": (101, 1, 48.0, 20.0, math.inf),
    "accel_bool": (101, 1, 48.0, 20.0, True),
    "id_bool": (True, 1, 48.0, 20.0),
    "id_fraction": (101.5, 1, 48.0, 20.0),
}


@pytest.mark.parametrize("args", BAD_MOTIONS.values(), ids=BAD_MOTIONS.keys())
def test_vehicle_spec_rejects_bad_motion_or_id(args):
    with pytest.raises(ValidationError):
        VehicleSpec(*args)


BAD_DROPOUTS = {
    # each was accepted and never fired
    "start_nan": (math.nan, 0.5),
    "end_nan": (0.1, math.nan),
    "end_inf": (0.1, math.inf),
    "start_negative": (-0.1, 0.5),
    "reversed": (0.5, 0.1),
    "empty": (0.2, 0.2),
    "start_bool": (False, 0.5),
}


@pytest.mark.parametrize("window", BAD_DROPOUTS.values(), ids=BAD_DROPOUTS.keys())
def test_dropout_window_rejects_bad_value(window):
    with pytest.raises(ValidationError):
        DropoutWindow(101, *window)


@pytest.mark.parametrize("sv_id", [True, 101.0, "101"])
def test_dropout_window_rejects_an_sv_id_that_is_not_an_integer(sv_id):
    # DropoutWindow(True, ...) named SV 1 and silently hid it
    with pytest.raises(ValidationError, match="sv_id"):
        DropoutWindow(sv_id, 0.0, 1.0)


BAD_SCENARIOS = {
    "ground_spacing_nan": dict(ground_spacing=math.nan),  # was ValueError from the lattice
    "ground_spacing_negative": dict(ground_spacing=-0.4),
    "duration_nan": dict(duration=math.nan),
    "dt_zero": dict(dt=0.0),
    "dt_bool": dict(dt=True),  # was a 1 s step
    "seed_negative": dict(seed=-1),  # was NumPy's ValueError
    "seed_fraction": dict(seed=1.5),  # was TypeError
    "seed_bool": dict(seed=True),  # was seed 1
    "agent_and_sv_share_an_id": dict(svs=[VehicleSpec(2, 1, 60.0, 22.0)]),  # was two vehicles with one id
    "lane_fraction": dict(svs=[VehicleSpec(101, 1.5, 48.0, 20.0)]),  # was a vehicle between lanes
    "lane_bool": dict(agents=[VehicleSpec(1, True, 40.0, 20.0)]),
    "dropout_names_no_sv": dict(dropouts=[DropoutWindow(103, 0.1, 0.2)]),  # was silently ignored
    # brakes to a stop at t = 4/3 s and s = 103.3 m on a 100 m lane, then backs up to s = 100 m by
    # t = 2 s: only the turning point leaves the road
    "turns_round_off_the_road": dict(duration=2.0, svs=[VehicleSpec(101, 1, 90.0, 20.0, accel=-15.0)],
                                     road=RoadSpec(length=100.0, n_lanes=2)),
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


def test_empty_scene_gives_empty_frames_that_round_trip(tmp_path):
    # no ground lattice, no poles or walls, the only SV beyond range: nothing to render
    spec = replace(SPEC, ground_spacing=0.0, poles=False, walls=False, svs=[VehicleSpec(101, 2, 100.0, 5.0)])
    data = generate_scenario(spec)
    assert data.ground_truth == []
    out = write_scenario(data, tmp_path / "empty")
    assert (out / "ground_truth.csv").read_text() == GROUND_TRUTH_HEADER + "\n"
    for aid in (1, 2):
        assert [f.timestamp for f in data.frames[aid]] == [0.0, 0.1, 0.2]
        back = read_frame_dir(out / "agents" / f"agent_{aid}" / "frames", aid)
        for frame in data.frames[aid] + back:
            assert frame.points.shape == (0, 3)
        assert [f.timestamp for f in back] == [0.0, 0.1, 0.2]


PINNED = ScenarioSpec(
    name="pinned",
    duration=0.5,
    seed=3,
    road=RoadSpec(kind="arc", radius=80.0, arc_angle_deg=60.0, n_lanes=2, sample_step=1.0),
    agents=[VehicleSpec(1, 1, 20.0, 12.0), VehicleSpec(2, 2, 10.0, 11.0)],
    svs=[
        VehicleSpec(101, 2, 24.0, 12.5, length=5.2, width=2.0, height=1.9),
        VehicleSpec(102, 1, 35.0, 10.0, accel=0.5),
        VehicleSpec(103, 2, 70.0, 9.0),
    ],
    sensor=SensorSpec(range=35.0, base_spacing=0.35),
    dropouts=[DropoutWindow(102, 0.2, 0.35)],
    ground_spacing=3.0,
    poles=True,
    walls=True,
)


def _rounded(values) -> bytes:
    # to 1e-9, with -0.0 made 0.0
    return (np.round(np.asarray(values, dtype=float), 9) + 0.0).tobytes()


def scenario_digest(data) -> str:
    """SHA-256 of frames, poses, map and ground-truth rows, every number rounded to 1e-9."""
    h = hashlib.sha256()
    for aid in sorted(data.frames):
        for frame, (t, pose) in zip(data.frames[aid], data.poses[aid], strict=True):
            h.update(_rounded([aid, frame.agent_id, frame.timestamp, len(frame), t]))
            h.update(_rounded([*pose.translation, *pose.rotation.ravel()]))
            h.update(_rounded(frame.points))
    h.update(data.vector_map["name"].encode())
    for ll in data.vector_map["lanelets"]:
        h.update(json.dumps([ll["lanelet_id"], ll["lane_id"], ll["successors"]]).encode())
        for side in ("centerline", "left_boundary", "right_boundary"):
            h.update(_rounded(ll[side]))
    for r in data.ground_truth:
        h.update(_rounded([r.sv_id, r.time, r.x, r.y, r.heading, r.speed, r.accel, r.downtrack, r.lane_id,
                           r.lanelet_id, r.length, r.width, r.height, *r.visible_to, -1]))
    return h.hexdigest()


def test_generator_output_pinned():
    # the generator on its own, not through the chain: every output fixed to 1e-9
    data = generate_scenario(PINNED)
    assert {aid: len(f) for aid, f in data.frames.items()} == {1: 5, 2: 5}
    seen = {(r.sv_id, r.time) for r in data.ground_truth}
    assert (102, 0.1) in seen and (102, 0.2) not in seen and (102, 0.3) not in seen and (102, 0.4) in seen
    assert scenario_digest(data) == "0ecb297d7bdc0074c513d54b7d1a0a02123eb42d5336b800121e91cf49f38bfe"
