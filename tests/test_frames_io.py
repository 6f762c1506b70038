import io
import math
import re
import tracemalloc
import zlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation, Slerp

from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj.geometry import RigidTransform, wrap_angle
from cavtraj.pipeline.frames_io import (
    PoseSample, pose_at, read_frame_dir, read_pose_csv, write_frame_dir, write_pose_csv)
from conftest import make_frame, rotation_matrix

_TIMES = [0.5, 0.75]
_ROWS = [np.arange(12.0).reshape(4, 3) / 7.0, np.arange(6.0).reshape(2, 3) - 2.5]


def _index_text(times, rows):
    """index.csv as the module docstring defines it, built without the writer."""
    lines = [f"{t!r},{len(r)},{zlib.crc32(np.float64(t).tobytes(), zlib.crc32(r.tobytes()))}" for t, r in zip(times, rows)]
    return "\n".join(["timestamp,points,crc32", *lines, ""])


def _npy(points, write_header=np.lib.format.write_array_header_1_0, **header):
    """The .npy bytes of points, with header fields replaced."""
    buf = io.BytesIO()
    write_header(buf, {"descr": "<f8", "fortran_order": False, "shape": points.shape, **header})
    return buf.getvalue() + points.tobytes()


def test_frame_round_trip(tmp_path, rng):
    frame = make_frame(rng.uniform(-40, 40, (50, 3)), timestamp=0.1 + 0.2, agent_id=2)
    write_frame_dir(tmp_path, [frame])
    back, = read_frame_dir(tmp_path, agent_id=2)
    assert back.timestamp == 0.1 + 0.2
    assert back.agent_id == 2
    np.testing.assert_array_equal(back.points, frame.points)
    # the two files hold exactly the documented layout: a standard .npy block and the index
    assert sorted(p.name for p in tmp_path.iterdir()) == ["index.csv", "points.npy"]
    saved = io.BytesIO()
    np.save(saved, frame.points)
    assert (tmp_path / "points.npy").read_bytes() == saved.getvalue()
    assert (tmp_path / "index.csv").read_text() == _index_text([0.1 + 0.2], [frame.points])


def test_fortran_order_frame_round_trip(tmp_path):
    # the writer stores C order, the only order the reader accepts
    points = np.asfortranarray(np.arange(12.0).reshape(4, 3) / 7.0)
    write_frame_dir(tmp_path, [make_frame(points, timestamp=0.5)])
    back, = read_frame_dir(tmp_path)
    assert back.points.flags.c_contiguous
    np.testing.assert_array_equal(back.points, points)


@pytest.mark.parametrize("agent_id", ["a", 2.0])
def test_readers_reject_a_bad_agent_id_naming_the_path(tmp_path, agent_id):
    write_frame_dir(tmp_path / "frames", [make_frame(np.ones((2, 3)), timestamp=0.1)])
    message = re.escape(f"{tmp_path / 'frames' / 'points.npy'}: frame 0: agent_id must be an integer")
    with pytest.raises(ValidationError, match=message):
        read_frame_dir(tmp_path / "frames", agent_id=agent_id)


def test_empty_frame_keeps_its_timestamp(tmp_path):
    write_frame_dir(tmp_path, [make_frame(np.zeros((0, 3)), timestamp=1.25)])
    back, = read_frame_dir(tmp_path)
    assert back.timestamp == 1.25
    assert len(back) == 0
    assert back.points.shape == (0, 3)


def test_frame_dir_round_trip(tmp_path, rng):
    frames = [make_frame(rng.uniform(-9, 9, (n, 3)), timestamp=0.1 * k) for k, n in enumerate([3, 0, 7])]
    write_frame_dir(tmp_path / "frames", frames)
    assert sorted(p.name for p in (tmp_path / "frames").iterdir()) == ["index.csv", "points.npy"]
    back = read_frame_dir(tmp_path / "frames", agent_id=4)
    assert [f.timestamp for f in back] == [f.timestamp for f in frames]
    for b, f in zip(back, frames):
        assert b.agent_id == 4
        np.testing.assert_array_equal(b.points, f.points)


def test_frame_dir_frames_are_views_of_one_array(tmp_path, rng):
    frames = [make_frame(rng.uniform(-9, 9, (n, 3)), timestamp=0.1 * k + 0.05) for k, n in enumerate([5, 0, 4])]
    write_frame_dir(tmp_path, frames)
    back = read_frame_dir(tmp_path, agent_id=3)
    block = np.load(tmp_path / "points.npy")
    for b, rows in zip(back, np.split(block, [5, 5])):
        assert b.points.tobytes() == rows.tobytes()
    # the 0-point frame between the others keeps its time and shape
    assert (back[1].timestamp, back[1].points.shape) == (frames[1].timestamp, (0, 3))
    base = back[0].points.base
    assert base.shape == (9, 3)
    assert all(b.points.base is base for b in back)
    assert np.shares_memory(back[0].points, base) and np.shares_memory(back[2].points, base)


def test_frame_dir_round_trip_is_bit_exact_on_random_frame_lists(tmp_path):
    # empty frames, repeated timestamps, signed zeros, subnormals and values near the float range
    rng = np.random.default_rng(37)
    specials = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2])
    for trial in range(40):
        counts = rng.choice([0, 0, 1, 3, 50], int(rng.integers(1, 8)))
        times = np.sort(rng.choice(np.r_[specials[:4], rng.uniform(-5.0, 5.0, 3)], len(counts)))
        frames = []
        for t, n in zip(times.tolist(), counts):
            points = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
            points.flat[rng.integers(0, points.size or 1, min(points.size, 4))] = rng.choice(specials, min(points.size, 4))
            frames.append(make_frame(points, timestamp=t))
        write_frame_dir(tmp_path / str(trial), frames)
        back = read_frame_dir(tmp_path / str(trial))
        assert [np.float64(b.timestamp).tobytes() for b in back] == [np.float64(t).tobytes() for t in times]
        assert [b.points.tobytes() for b in back] == [f.points.tobytes() for f in frames]


def test_write_frame_dir_streams_each_frame(tmp_path):
    # write_scenario runs in the benchmark process, so the writer never holds a second copy of all frames
    rng = np.random.default_rng(20)
    frames = [make_frame(rng.uniform(-50.0, 50.0, (10_000, 3)), timestamp=0.1 * k) for k in range(20)]
    frame_bytes = frames[0].points.nbytes
    tracemalloc.start()
    try:
        write_frame_dir(tmp_path, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < frame_bytes / 4, peak
    assert [f.points.tobytes() for f in read_frame_dir(tmp_path)] == [f.points.tobytes() for f in frames]


def test_frame_dir_out_of_time_order_rejected(tmp_path):
    # the later frame carries the earlier timestamp
    (tmp_path / "points.npy").write_bytes(_npy(np.zeros((0, 3))))
    (tmp_path / "index.csv").write_text(_index_text([0.5, 0.4], [np.zeros((0, 3))] * 2))
    with pytest.raises(ValidationError, match=r"index\.csv: frame 1: timestamp 0\.4 falls below 0\.5"):
        read_frame_dir(tmp_path)


def test_old_layout_directory_rejected(tmp_path):
    # one .npz archive per frame has no index, and no reader of that layout is kept
    with (tmp_path / "frame_000000.npz").open("wb") as fh:
        np.savez(fh, timestamp=np.float64(0.5), points=np.zeros((0, 3)))
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'index.csv'}: ")):
        read_frame_dir(tmp_path)


def test_write_frame_dir_refuses_a_directory_with_frames(tmp_path):
    # a shorter stream written over a longer one would leave a block the index does not describe
    longer = [make_frame(np.zeros((0, 3)), timestamp=0.1 * k) for k in range(5)]
    write_frame_dir(tmp_path, longer)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(InvalidArgument, match="already holds frame files"):
        write_frame_dir(tmp_path, longer[:3])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # either file alone counts
    for name in before:
        (tmp_path / name).rename(tmp_path / "kept")
        with pytest.raises(InvalidArgument, match="already holds frame files"):
            write_frame_dir(tmp_path, longer[:3])
        (tmp_path / "kept").rename(tmp_path / name)
    # files of another kind do not count
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "notes.txt").write_text("")
    write_frame_dir(tmp_path / "other", longer[:1])
    assert [f.timestamp for f in read_frame_dir(tmp_path / "other")] == [0.0]


def test_write_frame_dir_refuses_a_file(tmp_path):
    (tmp_path / "frames").write_text("kept")
    with pytest.raises(InvalidArgument, match="is not a directory"):
        write_frame_dir(tmp_path / "frames", [make_frame(np.zeros((0, 3)), timestamp=0.1)])
    assert (tmp_path / "frames").read_text() == "kept"


@pytest.mark.parametrize("timestamps", [[], [0.2, 0.1], [0.0, 0.1, 0.1, 0.05]], ids=["empty", "falling", "falling_later"])
def test_write_frame_dir_refuses_what_the_reader_refuses(tmp_path, timestamps):
    frames = [make_frame(np.zeros((0, 3)), timestamp=t) for t in timestamps]
    with pytest.raises(InvalidArgument, match="no frames" if not frames else "falls below"):
        write_frame_dir(tmp_path / "frames", frames)
    assert not (tmp_path / "frames").exists()


_BLOCK_ROWS = np.concatenate(_ROWS)


def _block(data):
    """Replace points.npy with the given bytes."""
    return lambda d: (d / "points.npy").write_bytes(data)


def _cell(frame, column, text):
    """Replace one cell of index.csv, the header's at frame -1, by text or by text(cell)."""
    def spoil(d):
        lines = (d / "index.csv").read_text().split("\n")
        cells = lines[frame + 1].split(",")
        cells[column] = text(cells[column]) if callable(text) else text
        lines[frame + 1] = ",".join(cells)
        (d / "index.csv").write_text("\n".join(lines))
    return spoil


def _index(text):
    """Replace index.csv with the given text."""
    return lambda d: (d / "index.csv").write_text(text)


def _flip(position):
    """Flip one bit of points.npy's byte at position (negative from the end)."""
    def spoil(d):
        raw = bytearray((d / "points.npy").read_bytes())
        raw[position] ^= 0x01
        (d / "points.npy").write_bytes(bytes(raw))
    return spoil


def _rows(second):
    """Both files for _ROWS with the second frame's rows replaced and a CRC-32 that matches them."""
    def spoil(d):
        _block(_npy(np.concatenate([_ROWS[0], second])))(d)
        _index(_index_text(_TIMES, [_ROWS[0], second]))(d)
    return spoil


def _savez_compressed(d):
    with (d / "points.npy").open("wb") as fh:
        np.savez_compressed(fh, points=_BLOCK_ROWS)


def _object_block(d):
    with (d / "points.npy").open("wb") as fh:
        np.save(fh, _BLOCK_ROWS.astype(object))


# each case: the file the message names, the frame it names (None: the whole file) and how the
# directory of _TIMES and _ROWS is spoiled
MALFORMED_FRAMES = {
    # points.npy
    "not_a_zip": ("points.npy", None, _block(b"t,x,y,z,intensity\n0.5,0.0,1.0,2.0,0.0\n")),
    "empty_file": ("points.npy", None, _block(b"")),
    "truncated_zip": ("points.npy", None, _block(_npy(_BLOCK_ROWS)[:-40])),
    "raw_member": ("points.npy", None, _block(_BLOCK_ROWS.tobytes())),
    "compressed": ("points.npy", None, _savez_compressed),
    "npy_format_2": ("points.npy", None, _block(_npy(_BLOCK_ROWS, write_header=np.lib.format.write_array_header_2_0))),
    "fortran_order": ("points.npy", None, _block(_npy(_BLOCK_ROWS, fortran_order=True))),
    "object_array": ("points.npy", None, _object_block),
    "points_float32": ("points.npy", None, _block(_npy(_BLOCK_ROWS.astype(np.float32), descr="<f4"))),
    "big_endian": ("points.npy", None, _block(_npy(_BLOCK_ROWS.astype(">f8"), descr=">f8"))),
    "points_flat": ("points.npy", None, _block(_npy(_BLOCK_ROWS.ravel()))),
    "points_two_columns": ("points.npy", None, _block(_npy(np.arange(12.0).reshape(6, 2)))),
    "leftover_intensities": ("points.npy", None, _block(_npy(np.c_[_BLOCK_ROWS, np.full(6, 20.0)]))),
    "huge_shape": ("points.npy", None, _block(_npy(_BLOCK_ROWS, shape=(10**12, 3)))),
    "trailing_bytes": ("points.npy", None, _block(_npy(_BLOCK_ROWS) + bytes(24))),
    "corrupt_payload": ("points.npy", 1, _flip(-1)),
    "inf_point": ("points.npy", 1, _rows(np.array([[0.0, 1.0, np.inf]] * 2))),
    "nan_point": ("points.npy", 1, _rows(np.array([[0.0, 1.0, 2.0], [np.nan, 0.0, 0.0]]))),
    "missing_file": ("points.npy", None, lambda d: (d / "points.npy").unlink()),
    "directory": ("points.npy", None, lambda d: ((d / "points.npy").unlink(), (d / "points.npy").mkdir())),
    # index.csv
    "plain_npy": ("index.csv", None, lambda d: (d / "index.csv").write_bytes(_npy(_BLOCK_ROWS))),
    "missing_array": ("index.csv", None, lambda d: (d / "index.csv").unlink()),
    "index_directory": ("index.csv", None, lambda d: ((d / "index.csv").unlink(), (d / "index.csv").mkdir())),
    "wrong_header": ("index.csv", None, _cell(-1, 2, "crc")),
    "extra_array": ("index.csv", None, _cell(-1, 2, "crc32,ring")),
    "header_only": ("index.csv", None, _index("timestamp,points,crc32\n")),
    "blank_row": ("index.csv", 1, _cell(0, 2, lambda cell: cell + "\n")),
    "short_row": ("index.csv", 1, _cell(1, 2, "")),
    "extra_cell": ("index.csv", 0, _cell(0, 2, "1,2")),
    "timestamp_shape": ("index.csv", 0, _cell(0, 0, "[0.5]")),
    "timestamp_dtype": ("index.csv", 0, _cell(0, 0, "(0.5+0j)")),
    "nan_timestamp": ("index.csv", 0, _cell(0, 0, "nan")),
    "inf_timestamp": ("index.csv", 1, _cell(1, 0, "inf")),
    "falling_timestamp": ("index.csv", 1, _cell(1, 0, "0.25")),
    "non_integer_count": ("index.csv", 1, _cell(1, 1, "1.5")),
    "negative_count": ("index.csv", 0, _cell(0, 1, "-4")),
    "negative_crc": ("index.csv", 1, _cell(1, 2, "-1")),
    "crc_beyond_32_bits": ("index.csv", 1, _cell(1, 2, str(2**32))),
    "counts_short_of_the_block": ("points.npy", None, _cell(1, 1, "1")),
    "counts_beyond_the_block": ("points.npy", None, _cell(1, 1, "3")),
}


@pytest.mark.parametrize("name, frame, spoil", MALFORMED_FRAMES.values(), ids=MALFORMED_FRAMES.keys())
def test_malformed_frame_rejected(tmp_path, name, frame, spoil):
    write_frame_dir(tmp_path, [make_frame(rows, timestamp=t) for t, rows in zip(_TIMES, _ROWS)])
    assert [f.points.tobytes() for f in read_frame_dir(tmp_path)] == [rows.tobytes() for rows in _ROWS]
    spoil(tmp_path)
    where = f"{tmp_path / name}: " + ("" if frame is None else f"frame {frame}: ")
    with pytest.raises(ValidationError, match=re.escape(where)):
        read_frame_dir(tmp_path)


@pytest.mark.parametrize("k", range(3))
def test_a_flipped_byte_names_the_file_and_the_frame(tmp_path, k):
    # CRC-32 catches every one-byte change, in a frame's rows or in its timestamp's digits
    counts, times = [2, 5, 3], [0.25, 1.5, 2.75]
    frames = [make_frame(np.arange(3.0 * n).reshape(n, 3) + j, timestamp=t) for j, (n, t) in enumerate(zip(counts, times))]
    write_frame_dir(tmp_path, frames)
    block = tmp_path / "points.npy"
    clean = block.read_bytes()
    start = len(clean) - 24 * sum(counts[k:])
    for position in (start, start + 24 * counts[k] - 1):
        raw = bytearray(clean)
        raw[position] ^= 0x01
        block.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match=re.escape(f"{block}: frame {k}: ")):
            read_frame_dir(tmp_path)
    block.write_bytes(clean)
    # the last digit of 0.25, 1.5 or 2.75: the times keep their order
    index = tmp_path / "index.csv"
    lines = index.read_text().split("\n")
    digit = lines[k + 1].index(",") - 1
    lines[k + 1] = lines[k + 1][:digit] + chr(ord(lines[k + 1][digit]) ^ 0x01) + lines[k + 1][digit + 1:]
    index.write_text("\n".join(lines))
    with pytest.raises(ValidationError, match=rf"{re.escape(f'{block}: frame {k}: ')}.*index\.csv"):
        read_frame_dir(tmp_path)


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


def test_write_pose_csv_refuses_an_existing_path(tmp_path):
    samples = [PoseSample(0.0, RigidTransform(np.eye(3), (0.0, 0.0, 0.0)))]
    write_pose_csv(tmp_path / "poses.csv", samples)
    before = (tmp_path / "poses.csv").read_bytes()
    # a second stream is not written over the first
    with pytest.raises(InvalidArgument, match="already exists"):
        write_pose_csv(tmp_path / "poses.csv", samples + [PoseSample(0.1, samples[0].transform)])
    assert (tmp_path / "poses.csv").read_bytes() == before
    (tmp_path / "dir").mkdir()
    with pytest.raises(InvalidArgument, match="already exists"):
        write_pose_csv(tmp_path / "dir", samples)
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("reader, name", [(read_frame_dir, "index.csv"), (read_pose_csv, "poses.csv")],
                         ids=["read_frame_dir", "read_pose_csv"])
def test_bad_header_rejected(tmp_path, reader, name):
    (tmp_path / name).write_text("time,x,y\n0.0,1.0,2.0\n")
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / name}: unrecognized header 'time,x,y'")):
        reader(tmp_path if reader is read_frame_dir else tmp_path / name)


_HEADER = "t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22\n"
_ROW = "0,0,0,1,0,0,0,1,0,0,0,1"     # x, y, z and the identity rotation, after the time
MALFORMED_POSES = {
    "malformed_number": _HEADER + "0.0,abc,0,0,1,0,0,0,1,0,0,0,1\n",
    "ragged_row": _HEADER + f"0.0,{_ROW}\n0.1,{_ROW[:-2]}\n",
    "header_only": _HEADER,
    "blank_body": _HEADER + "\n  \n",
    "blank_row": _HEADER + f"0.0,{_ROW}\n\n0.1,{_ROW}\n",
    "blank_last_row": _HEADER + f"0.0,{_ROW}\n0.1,{_ROW}\n\n",
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
