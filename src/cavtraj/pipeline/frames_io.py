"""File formats for point-cloud frames and agent pose streams.

Frame directories: the frames of one agent, in capture order, as two files.
``points.npy`` is one standard ``.npy`` array, format 1.0, ``<f8`` in C
order, of shape (sum of N, 3): every frame's rows in turn, the x, y, z of
each return in metres in the sensor frame. ``index.csv`` is a CSV file
(rules below) with header ``timestamp,points,crc32`` and one row per frame:
its capture time in seconds as its shortest round-trip ``repr``, its row
count N, and the CRC-32 of its rows' bytes followed by the 8 bytes of its
float64 timestamp, so both are checked. Values round-trip bit for bit, and
an empty frame keeps its timestamp. Before it creates anything, the writer
refuses an empty frame list, a timestamp below the one before it, a path
that is not a directory and a directory that already holds either file.
The reader accepts only what the writer writes: timestamps that never
fall, counts that are integers >= 0, CRCs that are integers in
[0, 2**32), and a block with that header, that dtype and order, shape
(sum of the counts, 3) and nothing after its data, checked before
anything is allocated. Each frame's rows are read straight
from the file into one (sum of N, 3) array, which stays alive while any of
the frames, its views, does. Rows or a timestamp that fail their CRC, or a
point that is not finite, raise ValidationError naming the file and the
frame, and so does any other departure from the layout or a path that
cannot be opened.

Pose files: one CSV file per agent with header
``t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22``, the agent's map-frame pose
at each time: the translation in metres, then the rotation matrix row by
row, each value as its shortest round-trip ``repr``, so every value reads
back bit for bit, signed zeros included. Before it creates the file, the
writer refuses an empty sample list, a time that is not finite or not above
the one before, and a path that already exists (a file or a directory).
The reader rejects times that do not strictly increase and a rotation
that ``RigidTransform`` refuses (not orthonormal within 1e-9, or a
reflection).

CSV files: exactly the header line, then at least one row, each of as many
comma-separated finite numbers as the header has names. Any other header, a
blank or short row, and a file that cannot be opened or decoded as text
raise ValidationError naming the file, and the row where one is at fault.
"""

from __future__ import annotations

import bisect
import math
import os
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from ..detection import PointCloudFrame
from ..errors import InvalidArgument, ValidationError
from ..geometry import RigidTransform

_BLOCK, _INDEX = "points.npy", "index.csv"
_INDEX_HEADER = "timestamp,points,crc32"
_POSE_HEADER = "t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22"
_POSE_TOLERANCE = 0.5   # s, the farthest a pose may be taken from its nearest sample


def _read_csv(path: Path, header: str, row: str) -> np.ndarray:
    """A CSV file's body as a (rows, columns) float64 array; `row` names its rows in messages."""
    try:
        head, *lines = path.read_text().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if head != header:
        raise ValidationError(f"{path}: unrecognized header '{head}'")
    if lines[-1:] == [""]:
        lines.pop()   # the newline that ends the last row
    if not lines:
        raise ValidationError(f"{path}: no {row}s")
    columns = header.count(",") + 1
    body = []
    for k, line in enumerate(lines):
        try:
            values = [float(cell) for cell in line.split(",")]
        except ValueError:
            values = []
        if len(values) != columns or not all(map(math.isfinite, values)):
            raise ValidationError(f"{path}: {row} {k}: expected {columns} finite numbers, got '{line}'")
        body.append(values)
    return np.array(body)


def write_frame_dir(directory, frames: list[PointCloudFrame]) -> None:
    """Write frames as read_frame_dir reads them back: at least one, timestamps never falling."""
    if not frames:
        raise InvalidArgument("no frames to write")
    for k in range(1, len(frames)):
        if frames[k].timestamp < frames[k - 1].timestamp:
            raise InvalidArgument(f"frame {k}: timestamp {frames[k].timestamp} falls below {frames[k - 1].timestamp}")
    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise InvalidArgument(f"{directory} is not a directory")
    if any((directory / name).exists() for name in (_BLOCK, _INDEX)):
        raise InvalidArgument(f"{directory} already holds frame files")
    directory.mkdir(parents=True, exist_ok=True)
    header = {"descr": "<f8", "fortran_order": False, "shape": (sum(map(len, frames)), 3)}
    with (directory / _BLOCK).open("wb") as block, (directory / _INDEX).open("w") as index:
        np.lib.format.write_array_header_1_0(block, header)
        index.write(_INDEX_HEADER + "\n")
        for frame in frames:
            rows, t = np.ascontiguousarray(frame.points, "<f8"), float(frame.timestamp)
            block.write(rows)
            index.write(f"{t!r},{len(rows)},{zlib.crc32(np.float64(t).tobytes(), zlib.crc32(rows))}\n")


def _block_shape(fh, rows: int) -> tuple[int, int]:
    """The shape of a points block whose header and size agree with an index of `rows` rows; fh stops at its data."""
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"unsupported .npy version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    size = os.fstat(fh.fileno()).st_size
    if (shape, fortran_order, dtype) != ((rows, 3), False, np.dtype("<f8")) or size != fh.tell() + 24 * rows:
        raise ValueError(f"expected C-order <f8 rows of shape ({rows}, 3), as {_INDEX} counts them, and nothing "
                         f"after; got {dtype} {shape}{' in Fortran order' if fortran_order else ''} in {size} B")
    return shape


def read_frame_dir(directory, agent_id: int = 0) -> list[PointCloudFrame]:
    """Read the frames write_frame_dir wrote; anything it would not write raises ValidationError."""
    index_path, block_path = Path(directory) / _INDEX, Path(directory) / _BLOCK
    index = _read_csv(index_path, _INDEX_HEADER, "frame").tolist()
    for k, (t, n, crc) in enumerate(index):
        if k and t < index[k - 1][0]:
            raise ValidationError(f"{index_path}: frame {k}: timestamp {t} falls below {index[k - 1][0]}")
        if not (n == int(n) >= 0 and crc == int(crc) and 0 <= crc < 2**32):
            raise ValidationError(f"{index_path}: frame {k}: expected an integer count >= 0 and an integer "
                                  f"CRC-32 in [0, 2**32), got {n!r} and {crc!r}")
    counts = [int(n) for _, n, _ in index]
    frames, start = [], 0
    try:
        with block_path.open("rb") as fh:
            block = np.empty(_block_shape(fh, sum(counts)))
            for k, ((t, _, crc), n) in enumerate(zip(index, counts)):
                rows, start = block[start:start + n], start + n
                data = rows.reshape(-1).view(np.uint8)
                if fh.readinto(data) != len(data) or zlib.crc32(np.float64(t).tobytes(), zlib.crc32(data)) != crc:
                    raise ValueError(f"frame {k}: its rows and timestamp fail their CRC-32 in {_INDEX}")
                try:
                    frames.append(PointCloudFrame(t, rows, agent_id))
                except InvalidArgument as exc:
                    raise ValueError(f"frame {k}: {exc}") from None
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{block_path}: {exc}") from None
    return frames


class PoseSample(NamedTuple):
    """An agent's map-frame pose at one time."""

    timestamp: float
    transform: RigidTransform


def write_pose_csv(path, samples: list[PoseSample]) -> None:
    """Write a map-frame pose stream that read_pose_csv reads back bit for bit."""
    if not samples:
        raise InvalidArgument("no pose samples to write")
    for before, (t, _) in zip([-math.inf, *(s.timestamp for s in samples)], samples):
        if not before < t < math.inf:
            raise InvalidArgument(f"pose times must be finite and strictly increase: {t!r} after {before!r}")
    path = Path(path)
    if path.exists():
        raise InvalidArgument(f"{path} already exists")
    with path.open("w") as fh:
        fh.write(_POSE_HEADER + "\n")
        for t, tf in samples:
            values = (t, *tf.translation.tolist(), *tf.rotation.ravel().tolist())
            fh.write(",".join(repr(float(v)) for v in values) + "\n")


def read_pose_csv(path) -> list[PoseSample]:
    """Read a map-frame pose stream; a malformed file raises ValidationError."""
    path = Path(path)
    body = _read_csv(path, _POSE_HEADER, "sample")
    if np.any(np.diff(body[:, 0]) <= 0.0):
        raise ValidationError(f"{path}: pose timestamps must strictly increase")
    try:
        return [PoseSample(float(row[0]), RigidTransform(row[4:].reshape(3, 3), row[1:4])) for row in body]
    except InvalidArgument as exc:   # a rotation that is not orthonormal, or a reflection
        raise ValidationError(f"{path}: {exc}") from None


def pose_at(samples: list[PoseSample], t: float) -> RigidTransform:
    """Pose at time t from time-ordered samples, one of which lies within 0.5 s of t.

    The nearest sample (the earlier on a tie) is found by bisection. Between
    two samples the translation is interpolated linearly and the rotation by
    slerp. At a sample's own time, and before the first or after the last
    sample, that sample's stored transform is returned as is.
    """
    if not samples:
        raise ValidationError(f"no pose samples to take t={t:.3f} from")
    after = bisect.bisect_right(samples, t, key=lambda s: s.timestamp)
    # the offsets from t never fall along the samples: the smallest lies beside t, and bisection finds its first sample
    offset = min((s.timestamp - t for s in samples[max(after - 1, 0):after + 1]), key=abs)
    k = bisect.bisect_left(samples, offset, key=lambda s: s.timestamp - t)
    if not abs(offset) <= _POSE_TOLERANCE:
        raise ValidationError(f"no pose within {_POSE_TOLERANCE} s of t={t:.3f}")
    if offset == 0.0 or after in (0, len(samples)):
        return samples[k].transform
    (t0, a), (t1, b) = samples[after - 1], samples[after]
    w = (t - t0) / (t1 - t0)
    rotation = Slerp([t0, t1], Rotation.from_matrix([a.rotation, b.rotation]))(t).as_matrix()
    return RigidTransform(rotation, (1.0 - w) * a.translation + w * b.translation)
