import io
import math
import re
import zipfile

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj.geometry import RigidTransform, wrap_angle
from cavtraj.pipeline.frames_io import (
    PoseSample, pose_at, read_frame, read_frame_dir, read_pose_csv, write_frame, write_frame_dir, write_pose_csv)
from conftest import make_frame, rotation_matrix


def test_frame_round_trip(tmp_path, rng):
    frame = make_frame(rng.uniform(-40, 40, (50, 3)), timestamp=0.1 + 0.2, agent_id=2)
    write_frame(tmp_path / "frame_000003.npz", frame)
    back = read_frame(tmp_path / "frame_000003.npz", agent_id=2)
    assert back.timestamp == 0.1 + 0.2
    assert back.agent_id == 2
    np.testing.assert_array_equal(back.points, frame.points)
    with np.load(tmp_path / "frame_000003.npz") as archive:
        assert sorted(archive.files) == ["points", "timestamp"]


def test_fortran_order_frame_round_trip(tmp_path):
    # the writer stores C order, the only order the reader accepts
    points = np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7.0)
    write_frame(tmp_path / "frame_000000.npz", make_frame(points, timestamp=0.5))
    back = read_frame(tmp_path / "frame_000000.npz")
    assert back.points.flags.c_contiguous
    np.testing.assert_array_equal(back.points, points)


@pytest.mark.parametrize("agent_id", ["a", 2.0])
def test_readers_reject_a_bad_agent_id_naming_the_path(tmp_path, agent_id):
    write_frame_dir(tmp_path / "frames", [make_frame(np.ones((2, 3)), timestamp=0.1)])
    path = tmp_path / "frames" / "frame_000000.npz"
    message = re.escape(f"{path}: agent_id must be an integer")
    with pytest.raises(ValidationError, match=message):
        read_frame(path, agent_id=agent_id)
    with pytest.raises(ValidationError, match=message):
        read_frame_dir(tmp_path / "frames", agent_id=agent_id)


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


def test_frame_dir_frames_are_views_of_one_array(tmp_path, rng):
    frames = [make_frame(rng.uniform(-9, 9, (n, 3)), timestamp=0.1 * k + 0.05) for k, n in enumerate([5, 0, 4])]
    write_frame_dir(tmp_path, frames)
    back = read_frame_dir(tmp_path, agent_id=3)
    for k, b in enumerate(back):
        one = read_frame(tmp_path / f"frame_{k:06d}.npz", agent_id=3)
        assert (b.timestamp, b.agent_id, b.points.shape) == (one.timestamp, one.agent_id, one.points.shape)
        assert b.points.tobytes() == one.points.tobytes()
    # the 0-point frame between the others keeps its time and shape
    assert (back[1].timestamp, back[1].points.shape) == (frames[1].timestamp, (0, 3))
    base = back[0].points.base
    assert base.shape == (9, 3)
    assert all(b.points.base is base for b in back)
    assert np.shares_memory(back[0].points, base) and np.shares_memory(back[2].points, base)


def test_frame_dir_reads_in_index_order_past_six_digits(tmp_path):
    # by name, frame_1000000.npz would sort before frame_100001.npz
    for k in (100_000, 100_001, 999_999, 1_000_000):
        write_frame(tmp_path / f"frame_{k:06d}.npz", make_frame(np.zeros((0, 3)), timestamp=0.1 * k))
    assert [f.timestamp for f in read_frame_dir(tmp_path)] == [0.1 * k for k in (100_000, 100_001, 999_999, 1_000_000)]


def test_frame_dir_out_of_time_order_rejected(tmp_path):
    # the higher index carries the earlier timestamp
    for k, t in ((0, 0.5), (1, 0.4)):
        write_frame(tmp_path / f"frame_{k:06d}.npz", make_frame(np.zeros((0, 3)), timestamp=t))
    with pytest.raises(ValidationError, match=r"frame_000001\.npz: timestamp 0\.4 falls below 0\.5"):
        read_frame_dir(tmp_path)


@pytest.mark.parametrize("name", ["frame_1.npz", "frame_0000001.npz", "frame_-00001.npz", "frame_00000a.npz", "extra.npz"])
def test_frame_dir_with_a_name_the_writer_never_writes_rejected(tmp_path, name):
    # six digits, or more without a leading zero, give each index one name
    write_frame_dir(tmp_path, [make_frame(np.zeros((0, 3)), timestamp=0.0)])
    write_frame(tmp_path / name, make_frame(np.zeros((0, 3)), timestamp=0.1))
    with pytest.raises(ValidationError, match=name):
        read_frame_dir(tmp_path)


def test_write_frame_dir_refuses_a_directory_with_frames(tmp_path):
    # a shorter stream written over a longer one would leave its last frames to be read as new
    longer = [make_frame(np.zeros((0, 3)), timestamp=0.1 * k) for k in range(5)]
    write_frame_dir(tmp_path, longer)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(InvalidArgument, match="already holds frame files"):
        write_frame_dir(tmp_path, longer[:3])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # files of another kind do not count
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "notes.txt").write_text("")
    write_frame_dir(tmp_path / "other", longer[:1])
    assert [f.timestamp for f in read_frame_dir(tmp_path / "other")] == [0.0]


@pytest.mark.parametrize("timestamps", [[], [0.2, 0.1], [0.0, 0.1, 0.1, 0.05]], ids=["empty", "falling", "falling_later"])
def test_write_frame_dir_refuses_what_the_reader_refuses(tmp_path, timestamps):
    frames = [make_frame(np.zeros((0, 3)), timestamp=t) for t in timestamps]
    with pytest.raises(InvalidArgument, match="no frames" if not frames else "falls below"):
        write_frame_dir(tmp_path / "frames", frames)
    assert not (tmp_path / "frames").exists()


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


def _points_member(path, data, name="points.npy"):
    """A frame archive whose points member holds the given bytes, with a CRC-32 that matches them."""
    _savez(path, points=None)
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr(name, data)


def _npy(points, write_header=np.lib.format.write_array_header_1_0, **header):
    """The .npy bytes of points, with header fields replaced."""
    buf = io.BytesIO()
    write_header(buf, {"descr": "<f8", "fortran_order": False, "shape": points.shape, **header})
    return buf.getvalue() + points.tobytes()


def _corrupt_payload(path):
    _savez(path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(np.arange(12.0).tobytes()) + 50] ^= 0x01
    path.write_bytes(bytes(raw))


def _compressed(path):
    with path.open("wb") as fh:
        np.savez_compressed(fh, timestamp=np.float64(0.5), points=np.arange(12.0).reshape(4, 3))


MALFORMED_FRAMES = {
    "not_a_zip": lambda p: p.write_text("t,x,y,z,intensity\n0.5,0.0,1.0,2.0,0.0\n"),
    "empty_file": lambda p: p.write_bytes(b""),
    "truncated_zip": _truncated,
    "plain_npy": _plain_npy,
    "missing_array": lambda p: _savez(p, points=None),
    "extra_array": lambda p: _savez(p, ring=np.zeros(4)),
    "leftover_intensities": lambda p: _savez(p, intensities=np.full(4, 20.0)),
    "object_array": lambda p: _savez(p, points=np.arange(12.0).reshape(4, 3).astype(object)),
    "raw_member": lambda p: _points_member(p, b"0.0,1.0,2.0,3.0", name="points"),
    "corrupt_payload": _corrupt_payload,
    "huge_shape": lambda p: _points_member(p, _npy(np.arange(12.0).reshape(4, 3), shape=(10**12, 3))),
    "trailing_bytes": lambda p: _points_member(p, _npy(np.arange(12.0).reshape(4, 3)) + bytes(24)),
    "npy_format_2": lambda p: _points_member(
        p, _npy(np.arange(12.0).reshape(4, 3), write_header=np.lib.format.write_array_header_2_0)),
    "compressed": _compressed,
    "fortran_order": lambda p: _savez(p, points=np.asfortranarray(np.arange(12.0).reshape(4, 3))),
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


def _bits(samples):
    return [(np.float64(s.timestamp).tobytes(), s.transform.translation.tobytes(), s.transform.rotation.tobytes())
            for s in samples]


def test_pose_stream_round_trip(tmp_path):
    # general rotations, gimbal lock (pitch = +-pi/2) and signed zeros all read back bit for bit
    rng = np.random.default_rng(35)
    angles = np.r_[rng.uniform(-math.pi, math.pi, (1000, 3)), [[0.4, math.pi / 2, -2.0], [-1.0, -math.pi / 2, 3.0]]]
    times = np.cumsum(rng.uniform(1e-9, 0.2, len(angles))) - 1.0
    samples = [PoseSample(t, RigidTransform(rotation_matrix(*a), rng.uniform(-1e4, 1e4, 3)))
               for t, a in zip(times.tolist(), angles)]
    # heading 0 of the generator's yaw matrix: -sin(0) is -0.0
    yaw_0 = RigidTransform([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (-0.0, 0.0, -0.0))
    samples.append(PoseSample(times[-1] + 0.5, yaw_0))
    write_pose_csv(tmp_path / "poses.csv", samples)
    lines = (tmp_path / "poses.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22"
    assert lines[-1] == f"{float(times[-1] + 0.5)!r},-0.0,0.0,-0.0,1.0,-0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0"
    back = read_pose_csv(tmp_path / "poses.csv")
    assert [type(s.timestamp) for s in back] == [float] * len(samples)
    assert _bits(back) == _bits(samples)


@pytest.mark.parametrize("times", [[], [0.0, math.nan], [math.inf], [-math.inf, 0.0], [0.1, 0.1], [0.0, 0.2, 0.1]],
                         ids=["empty", "nan", "inf", "minus_inf", "repeated", "falling"])
def test_write_pose_csv_refuses_what_the_reader_refuses(tmp_path, times):
    samples = [PoseSample(t, RigidTransform(np.eye(3), (0.0, 0.0, 0.0))) for t in times]
    with pytest.raises(InvalidArgument, match="no pose samples" if not times else "finite and strictly increase"):
        write_pose_csv(tmp_path / "poses.csv", samples)
    assert not (tmp_path / "poses.csv").exists()


@pytest.mark.parametrize("reader", [read_frame, read_pose_csv])
def test_bad_header_rejected(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y\n0.0,1.0,2.0\n")
    with pytest.raises(ValidationError):
        reader(path)


_HEADER = "t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22\n"
_ROW = "0,0,0,1,0,0,0,1,0,0,0,1"     # x, y, z and the identity rotation, after the time
MALFORMED_POSES = {
    "malformed_number": _HEADER + "0.0,abc,0,0,1,0,0,0,1,0,0,0,1\n",
    "ragged_row": _HEADER + f"0.0,{_ROW}\n0.1,{_ROW[:-2]}\n",
    "header_only": _HEADER,
    "blank_body": _HEADER + "\n  \n",
    "six_columns": _HEADER + "0.0,0,0,0,0,0\n",
    "twelve_columns": _HEADER + f"0.0,{_ROW[:-2]}\n",
    "nan_time": _HEADER + f"nan,{_ROW}\n",
    "infinite_rotation": _HEADER + "0.0,0,0,0,1,0,0,0,1,0,0,0,inf\n",
    "geodetic_header": "t,lat,lon,alt,r00,r01,r02,r10,r11,r12,r20,r21,r22\n" + f"0.0,48.0,11.0,{_ROW[4:]}\n",
    "time_not_increasing": _HEADER + f"0.1,{_ROW}\n0.1,{_ROW}\n",
    "euler_file": "t,x,y,z,roll,pitch,yaw\n0.0,1.0,2.0,0.0,0.0,0.0,0.3\n",
    "not_orthonormal": _HEADER + "0.0,0,0,0,1,0,0,0,1,0,0,0,1.000001\n",
    "reflection": _HEADER + "0.0,0,0,0,1,0,0,0,1,0,0,0,-1\n",
}


@pytest.mark.parametrize("text", MALFORMED_POSES.values(), ids=MALFORMED_POSES.keys())
def test_malformed_pose_file_rejected(tmp_path, text):
    path = tmp_path / "poses.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="poses.csv"):
        read_pose_csv(path)


UNREADABLE_POSES = {
    "missing": lambda p: None,
    "non_utf8": lambda p: p.write_bytes(_HEADER.encode() + b"0.0,\xff\xfe,0,0,1,0,0,0,1,0,0,0,1\n"),
}


@pytest.mark.parametrize("make", UNREADABLE_POSES.values(), ids=UNREADABLE_POSES.keys())
def test_unreadable_pose_file_rejected(tmp_path, make):
    path = tmp_path / "poses.csv"
    make(path)
    with pytest.raises(ValidationError, match="poses.csv"):
        read_pose_csv(path)


def _yaw_pose(t, yaw, xyz):
    return PoseSample(t, RigidTransform(rotation_matrix(0.0, 0.0, yaw), xyz))


def _yaw(transform):
    return math.atan2(transform.rotation[1, 0], transform.rotation[0, 0])


def test_pose_at_halfway_interpolates():
    samples = [_yaw_pose(1.0, 0.1, (2.0, -4.0, 0.5)), _yaw_pose(1.2, 0.3, (6.0, 0.0, 1.5))]
    pose = pose_at(samples, 1.1)
    np.testing.assert_allclose(pose.translation, [4.0, -2.0, 1.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pose.rotation, rotation_matrix(0.0, 0.0, 0.2), rtol=0, atol=1e-12)
    # a quarter of the way, off the midpoint
    assert _yaw(pose_at(samples, 1.05)) == pytest.approx(0.15, abs=1e-12)


def test_pose_at_slerps_across_pi():
    # 3.0 -> -3.0 rad turns 0.283 rad through pi, not 6 rad back through 0
    samples = [_yaw_pose(0.0, 3.0, (0.0, 0.0, 0.0)), _yaw_pose(0.1, -3.0, (1.0, 0.0, 0.0))]
    assert wrap_angle(_yaw(pose_at(samples, 0.05)) - math.pi) == pytest.approx(0.0, abs=1e-12)
    assert _yaw(pose_at(samples, 0.025)) == pytest.approx(3.0 + (2 * math.pi - 6.0) / 4, abs=1e-12)


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


def full_scan_pose_at(samples, t):
    """pose_at by an argmin over every sample time: the reference the bisection must match."""
    times = np.array([s.timestamp for s in samples])
    k = int(np.argmin(np.abs(times - t)))
    if not abs(times[k] - t) <= 0.5:
        raise ValidationError(f"no pose within 0.5 s of t={t:.3f}")
    after = int(np.searchsorted(times, t, side="right"))
    if times[k] == t or after in (0, len(times)):
        return samples[k].transform
    (t0, a), (t1, b) = samples[after - 1], samples[after]
    w = (t - t0) / (t1 - t0)
    rotation = Slerp([t0, t1], Rotation.from_matrix([a.rotation, b.rotation]))(t).as_matrix()
    return RigidTransform(rotation, (1.0 - w) * a.translation + w * b.translation)


def random_pose_stream(rng):
    """1-12 time-ordered samples: on a 1/8 s grid with repeats, so midpoints tie exactly, or spread at random."""
    n = int(rng.integers(1, 13))
    times = np.sort(rng.integers(0, 40, n) / 8.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0, n))
    return [PoseSample(float(t), RigidTransform(rotation_matrix(*rng.uniform(-math.pi, math.pi, 3)),
                                                rng.uniform(-100.0, 100.0, 3))) for t in times]


def test_pose_at_matches_the_full_scan_reference():
    rng = np.random.default_rng(53)
    streams = [random_pose_stream(rng) for _ in range(100)]
    # offsets below the rounding of t: every sample is as near as the first to t = 0.3 and 0.1
    streams.append([_yaw_pose(t, 0.1 * k, (k, 0.0, 0.0)) for k, t in enumerate((0.0, 1e-17, 2e-17, 0.2))])
    for samples in streams:
        times = [s.timestamp for s in samples]
        queries = times + [(a + b) / 2 for a, b in zip(times, times[1:])] + [
            times[0] - 0.5, times[0] - 0.6, times[-1] + 0.5, times[-1] + 0.6, 0.1, 0.3, math.nan, math.inf]
        queries += rng.uniform(times[0] - 1.0, times[-1] + 1.0, 5).tolist()
        for t in queries:
            try:
                want = full_scan_pose_at(samples, t)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=re.escape(str(exc))):
                    pose_at(samples, t)
                continue
            got = pose_at(samples, t)
            if any(want is s.transform for s in samples):
                assert got is want, (times, t)
            else:
                assert got.rotation.tobytes() == want.rotation.tobytes(), (times, t)
                assert got.translation.tobytes() == want.translation.tobytes(), (times, t)


def test_pose_at_without_samples_rejected():
    with pytest.raises(ValidationError, match="no pose samples"):
        pose_at([], 0.0)
