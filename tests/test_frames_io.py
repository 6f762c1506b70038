import math
import zipfile

import numpy as np
import pytest

from cavtraj.errors import ValidationError
from cavtraj.geometry import EulerAngles, RigidTransform, rotation_from_euler, wrap_angle
from cavtraj.pipeline.frames_io import (
    PoseSample, pose_at, read_frame, read_frame_dir, read_pose_csv, write_frame, write_frame_dir, write_pose_csv)
from conftest import make_frame


def test_frame_round_trip(tmp_path, rng):
    frame = make_frame(rng.uniform(-40, 40, (50, 3)), timestamp=0.1 + 0.2, agent_id=2)
    write_frame(tmp_path / "frame_000003.npz", frame)
    back = read_frame(tmp_path / "frame_000003.npz", agent_id=2)
    assert back.timestamp == 0.1 + 0.2
    assert back.agent_id == 2
    np.testing.assert_array_equal(back.points, frame.points)
    with np.load(tmp_path / "frame_000003.npz") as archive:
        assert sorted(archive.files) == ["points", "timestamp"]


def test_empty_frame_keeps_its_timestamp(tmp_path):
    # the file name suggests t = 0.5 at 10 Hz; the recorded time must win
    write_frame(tmp_path / "frame_000005.npz", make_frame(np.zeros((0, 3)), timestamp=1.25))
    back = read_frame(tmp_path / "frame_000005.npz")
    assert back.timestamp == 1.25
    assert len(back) == 0
    assert back.points.shape == (0, 3)


def test_frame_dir_round_trip(tmp_path, rng):
    frames = [make_frame(rng.uniform(-9, 9, (n, 3)), timestamp=0.1 * k) for k, n in enumerate([3, 0, 7])]
    write_frame_dir(tmp_path / "frames", frames)
    assert sorted(p.name for p in (tmp_path / "frames").iterdir()) == [
        "frame_000000.npz", "frame_000001.npz", "frame_000002.npz"]
    back = read_frame_dir(tmp_path / "frames", agent_id=4)
    assert [f.timestamp for f in back] == [f.timestamp for f in frames]
    for b, f in zip(back, frames):
        assert b.agent_id == 4
        np.testing.assert_array_equal(b.points, f.points)


def test_frame_dir_out_of_time_order_rejected(tmp_path):
    # six-digit names sort out of frame order from frame 1 000 000 on
    for k in (100_000, 100_001, 1_000_000):
        write_frame(tmp_path / f"frame_{k:06d}.npz", make_frame(np.zeros((0, 3)), timestamp=0.1 * k))
    with pytest.raises(ValidationError, match=r"frame_100001\.npz: timestamp 10000\.1 falls below 100000\.0"):
        read_frame_dir(tmp_path)


def _savez(path, **overrides):
    """A frame archive with some arrays replaced; None leaves an array out."""
    arrays = {"timestamp": np.float64(0.5), "points": np.arange(12.0).reshape(4, 3)}
    arrays.update(overrides)
    with path.open("wb") as fh:
        np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})


def _truncated(path):
    _savez(path)
    path.write_bytes(path.read_bytes()[:-40])


def _plain_npy(path):
    with path.open("wb") as fh:
        np.save(fh, np.arange(12.0).reshape(4, 3))


def _raw_member(path):
    _savez(path, points=None)
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("points", b"0.0,1.0,2.0,3.0")


MALFORMED_FRAMES = {
    "not_a_zip": lambda p: p.write_text("t,x,y,z,intensity\n0.5,0.0,1.0,2.0,0.0\n"),
    "empty_file": lambda p: p.write_bytes(b""),
    "truncated_zip": _truncated,
    "plain_npy": _plain_npy,
    "missing_array": lambda p: _savez(p, points=None),
    "extra_array": lambda p: _savez(p, ring=np.zeros(4)),
    "leftover_intensities": lambda p: _savez(p, intensities=np.full(4, 20.0)),
    "object_array": lambda p: _savez(p, points=np.arange(12.0).reshape(4, 3).astype(object)),
    "raw_member": _raw_member,
    "timestamp_shape": lambda p: _savez(p, timestamp=np.array([0.5])),
    "timestamp_dtype": lambda p: _savez(p, timestamp=np.int64(5)),
    "points_flat": lambda p: _savez(p, points=np.arange(12.0)),
    "points_two_columns": lambda p: _savez(p, points=np.arange(8.0).reshape(4, 2)),
    "points_float32": lambda p: _savez(p, points=np.arange(12.0, dtype=np.float32).reshape(4, 3)),
    "nan_timestamp": lambda p: _savez(p, timestamp=np.float64("nan")),
    "inf_point": lambda p: _savez(p, points=np.array([[0.0, 1.0, np.inf]] * 4)),
    "missing_file": lambda p: None,
    "directory": lambda p: p.mkdir(),
}


@pytest.mark.parametrize("write_bad", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys())
def test_malformed_frame_rejected(tmp_path, write_bad):
    path = tmp_path / "frame_000000.npz"
    write_bad(path)
    with pytest.raises(ValidationError, match="frame_000000.npz"):
        read_frame(path)


def test_pose_stream_round_trip(tmp_path):
    samples = [
        (0.1 * k, RigidTransform.from_euler_translation(
            EulerAngles(0.01 * k, -0.02 * k, 0.3 * k - 1.0), (10.0 + k / 3, -5.0 * k, 0.5)))
        for k in range(6)
    ]
    write_pose_csv(tmp_path / "poses.csv", samples)
    back = read_pose_csv(tmp_path / "poses.csv")
    assert [s.timestamp for s in back] == [t for t, _ in samples]
    for s, (_, tf) in zip(back, samples):
        np.testing.assert_array_equal(s.transform.translation, tf.translation)
        # the rotation is rebuilt from exactly the written Euler angles
        np.testing.assert_array_equal(s.transform.rotation, rotation_from_euler(tf.euler))
        np.testing.assert_allclose(s.transform.rotation, tf.rotation, rtol=0, atol=1e-15)


@pytest.mark.parametrize("reader", [read_frame, read_pose_csv])
def test_bad_header_rejected(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y\n0.0,1.0,2.0\n")
    with pytest.raises(ValidationError):
        reader(path)


MALFORMED_POSES = {
    "malformed_number": "t,x,y,z,roll,pitch,yaw\n0.0,abc,0,0,0,0,0\n",
    "ragged_row": "t,x,y,z,roll,pitch,yaw\n0.0,0,0,0,0,0,0\n0.1,0,0,0,0,0\n",
    "header_only": "t,x,y,z,roll,pitch,yaw\n",
    "blank_body": "t,x,y,z,roll,pitch,yaw\n\n  \n",
    "six_columns": "t,x,y,z,roll,pitch,yaw\n0.0,0,0,0,0,0\n",
    "nan_time": "t,x,y,z,roll,pitch,yaw\nnan,0,0,0,0,0,0\n",
    "geodetic_header": "t,lat,lon,alt,roll,pitch,yaw\n0.0,48.0,11.0,0,0,0,0\n",
    "time_not_increasing": "t,x,y,z,roll,pitch,yaw\n0.1,0,0,0,0,0,0\n0.1,1,0,0,0,0,0\n",
}


@pytest.mark.parametrize("text", MALFORMED_POSES.values(), ids=MALFORMED_POSES.keys())
def test_malformed_pose_file_rejected(tmp_path, text):
    path = tmp_path / "poses.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="poses.csv"):
        read_pose_csv(path)


UNREADABLE_POSES = {
    "missing": lambda p: None,
    "non_utf8": lambda p: p.write_bytes(b"t,x,y,z,roll,pitch,yaw\n0.0,\xff\xfe,0,0,0,0,0\n"),
}


@pytest.mark.parametrize("make", UNREADABLE_POSES.values(), ids=UNREADABLE_POSES.keys())
def test_unreadable_pose_file_rejected(tmp_path, make):
    path = tmp_path / "poses.csv"
    make(path)
    with pytest.raises(ValidationError, match="poses.csv"):
        read_pose_csv(path)


def _yaw_pose(t, yaw, xyz):
    return PoseSample(t, RigidTransform.from_euler_translation(EulerAngles(0.0, 0.0, yaw), xyz))


def test_pose_at_halfway_interpolates():
    samples = [_yaw_pose(1.0, 0.1, (2.0, -4.0, 0.5)), _yaw_pose(1.2, 0.3, (6.0, 0.0, 1.5))]
    pose = pose_at(samples, 1.1)
    np.testing.assert_allclose(pose.translation, [4.0, -2.0, 1.0], rtol=0, atol=1e-12)
    e = pose.euler
    assert (e.roll, e.pitch) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert e.yaw == pytest.approx(0.2, abs=1e-12)
    # a quarter of the way, off the midpoint
    assert pose_at(samples, 1.05).euler.yaw == pytest.approx(0.15, abs=1e-12)


def test_pose_at_slerps_across_pi():
    # 3.0 -> -3.0 rad turns 0.283 rad through pi, not 6 rad back through 0
    samples = [_yaw_pose(0.0, 3.0, (0.0, 0.0, 0.0)), _yaw_pose(0.1, -3.0, (1.0, 0.0, 0.0))]
    assert wrap_angle(pose_at(samples, 0.05).euler.yaw - math.pi) == pytest.approx(0.0, abs=1e-12)
    assert pose_at(samples, 0.025).euler.yaw == pytest.approx(3.0 + (2 * math.pi - 6.0) / 4, abs=1e-12)


def test_pose_at_sample_time_returns_the_stored_transform():
    samples = [_yaw_pose(0.1 * k, 0.3 * k - 1.0, (10.0 + k / 3, -5.0 * k, 0.5)) for k in range(5)]
    for s in samples:
        assert pose_at(samples, s.timestamp) is s.transform
    # within tolerance outside the sampled span the end sample holds
    assert pose_at(samples, -0.2) is samples[0].transform
    assert pose_at(samples, 0.7) is samples[-1].transform


@pytest.mark.parametrize("t", [-0.6, 1.0, math.nan], ids=["before", "after", "nan"])
def test_pose_at_beyond_tolerance_rejected(t):
    samples = [_yaw_pose(0.0, 0.0, (0.0, 0.0, 0.0)), _yaw_pose(0.4, 0.1, (1.0, 0.0, 0.0))]
    with pytest.raises(ValidationError, match="no pose within 0.5 s"):
        pose_at(samples, t)


def test_pose_at_without_samples_rejected():
    with pytest.raises(ValidationError, match="no pose samples"):
        pose_at([], 0.0)
