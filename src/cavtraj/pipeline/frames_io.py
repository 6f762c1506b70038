"""File formats for point-cloud frames and agent pose streams.

Frame files: one uncompressed ``np.savez`` archive per LiDAR frame, holding
exactly two float64 arrays: ``timestamp`` (0-d), the capture time in
seconds, and ``points`` (N, 3), the x, y, z of each return in metres in the
sensor frame. Both are finite. Values round-trip bit for bit, and an empty
frame keeps its timestamp. Frames of one agent live in a directory as
``frame_000000.npz``, ``frame_000001.npz``, ... (index k as ``{k:06d}``).
Before it creates anything, the writer refuses an empty frame list, a
timestamp below the one before it and a directory that already holds
``.npz`` files. The reader orders them by k, so ``frame_1000000.npz``
follows ``frame_999999.npz``, and a file whose timestamp falls below its
predecessor's raises ValidationError naming it. The reader accepts only
what the writer writes: another ``.npz`` name, an archive with any other
array, a missing one, another dtype or another shape raises
ValidationError, and so does a path that cannot be opened. Each member must
be stored (not compressed), hold a C-order array under a ``.npy`` format
1.0 header, match the CRC-32 of the zip directory, and be exactly as long
as its header says, within the file; a header that claims more rows than
its member holds is refused before anything is allocated. The points of a
frame are read straight from the file into their array. The frames that
``read_frame_dir`` returns are views of one (sum of N, 3) array, which
stays alive while any of them does.

Pose files: one CSV per agent with header
``t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22``, the agent's map-frame pose
at each time: the translation in metres, then the rotation matrix row by
row, each value as its shortest round-trip ``repr``, so every value reads
back bit for bit, signed zeros included. Before it creates the file, the
writer refuses an empty sample list and a time that is not finite or not
above the one before. The reader rejects any other header, a row that is
not 13 finite numbers, an empty body, times that do not strictly increase,
a rotation that ``RigidTransform`` refuses (not orthonormal within 1e-9,
or a reflection) and a file that cannot be opened or decoded as text.
"""

from __future__ import annotations

import bisect
import math
import os
import re
import struct
import zipfile
import zlib
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from ..detection import PointCloudFrame
from ..errors import InvalidArgument, ValidationError
from ..geometry import RigidTransform

_FRAME_MEMBERS = ["points.npy", "timestamp.npy"]
_LOCAL_HEADER = struct.Struct("<4s22xHH")   # signature, name and extra field lengths
_READ_ERRORS = (OSError, EOFError, ValueError, struct.error, zipfile.BadZipFile)
_FRAME_NAME = re.compile(r"frame_([0-9]{6}|[1-9][0-9]{6,})\.npz")  # {k:06d}: one name per k
_POSE_HEADER = "t,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22"
_POSE_TOLERANCE = 0.5   # s, the farthest a pose may be taken from its nearest sample


def write_frame(path, frame: PointCloudFrame) -> None:
    with Path(path).open("wb") as fh:
        np.savez(fh, timestamp=np.float64(frame.timestamp), points=np.ascontiguousarray(frame.points))


class _Member(NamedTuple):
    """A float64 array member of a frame file, located and checked up to its data."""

    name: str
    shape: tuple[int, ...]
    offset: int      # file position of the array data
    head_crc: int    # CRC-32 of the .npy header, to be continued over the data
    crc: int         # CRC-32 of the whole member, from the zip directory


def _member(fh, info: zipfile.ZipInfo, file_size: int) -> _Member:
    """Locate a member's data: stored, C-order float64, header plus data filling the member within the file."""
    if info.compress_type != zipfile.ZIP_STORED or info.compress_size != info.file_size or info.flag_bits & 1:
        raise ValueError(f"{info.filename} is not a stored member")
    fh.seek(info.header_offset)
    signature, name_len, extra_len = _LOCAL_HEADER.unpack(fh.read(_LOCAL_HEADER.size))
    if signature != b"PK\x03\x04":
        raise ValueError(f"{info.filename} has no local file header")
    start = info.header_offset + _LOCAL_HEADER.size + name_len + extra_len
    fh.seek(start)
    version = np.lib.format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"{info.filename}: unsupported .npy version {version}")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    head_size = fh.tell() - start
    if dtype != np.float64 or fortran_order or min(shape, default=0) < 0:
        raise ValueError(f"{info.filename}: expected a C-order float64 array, got {dtype} {shape}"
                         f"{' in Fortran order' if fortran_order else ''}")
    data_size = 8 * math.prod(shape)
    if head_size + data_size != info.file_size or start + info.file_size > file_size:
        raise ValueError(f"{info.filename}: a {head_size} B header and {data_size} B of data "
                         f"in a {info.file_size} B member")
    fh.seek(start)
    return _Member(info.filename, shape, start + head_size, zlib.crc32(fh.read(head_size)), info.CRC)


def _read_into(fh, member: _Member, out: np.ndarray) -> None:
    """Read a member's data into the C-contiguous float64 array out and check its CRC-32."""
    data = out.reshape(-1).view(np.uint8)
    fh.seek(member.offset)
    if fh.readinto(data) != len(data) or zlib.crc32(data, member.head_crc) != member.crc:
        raise ValueError(f"Bad CRC-32 for file {member.name!r}")


def _frame_layout(path: Path) -> tuple[float, _Member]:
    """A frame file's timestamp and its checked points member."""
    with path.open("rb") as fh:
        with zipfile.ZipFile(fh) as zf:
            infos = zf.infolist()
        if sorted(i.filename for i in infos) != _FRAME_MEMBERS:
            raise ValueError(f"expected members {_FRAME_MEMBERS}, got {[i.filename for i in infos]}")
        file_size = os.fstat(fh.fileno()).st_size
        members = {i.filename: _member(fh, i, file_size) for i in infos}
        timestamp, points = members["timestamp.npy"], members["points.npy"]
        if timestamp.shape != () or len(points.shape) != 2 or points.shape[1] != 3:
            raise ValueError(f"expected float64 timestamp (), points (N, 3); "
                             f"got timestamp {timestamp.shape}, points {points.shape}")
        t = np.empty(())
        _read_into(fh, timestamp, t)
    return float(t), points


def _read_frames(paths: list[Path], agent_id: int) -> list[PointCloudFrame]:
    """Frames whose points are views of one array, each file read straight into its rows."""
    layouts = []
    for path in paths:
        try:
            layouts.append(_frame_layout(path))
        except _READ_ERRORS as exc:
            raise ValidationError(f"{path}: {exc}") from None
    for path, (before, _), (t, _) in zip(paths[1:], layouts, layouts[1:]):
        if t < before:
            raise ValidationError(f"{path}: timestamp {t} falls below {before} of the frame before it")
    ends = np.cumsum([points.shape[0] for _, points in layouts]).tolist()
    block = np.empty((ends[-1], 3))
    frames = []
    for path, (t, points), end in zip(paths, layouts, ends):
        rows = block[end - points.shape[0]:end]
        try:
            with path.open("rb") as fh:
                _read_into(fh, points, rows)
            frames.append(PointCloudFrame(t, rows, agent_id))
        except _READ_ERRORS as exc:   # InvalidArgument from PointCloudFrame is a ValueError
            raise ValidationError(f"{path}: {exc}") from None
    return frames


def read_frame(path, agent_id: int = 0) -> PointCloudFrame:
    """Read one frame file; anything write_frame would not write raises ValidationError."""
    return _read_frames([Path(path)], agent_id)[0]


def write_frame_dir(directory, frames: list[PointCloudFrame]) -> None:
    """Write frames as read_frame_dir reads them back: at least one, timestamps never falling."""
    if not frames:
        raise InvalidArgument("no frames to write")
    for k in range(1, len(frames)):
        if frames[k].timestamp < frames[k - 1].timestamp:
            raise InvalidArgument(f"frame {k}: timestamp {frames[k].timestamp} falls below {frames[k - 1].timestamp}")
    directory = Path(directory)
    if any(directory.glob("*.npz")):
        raise InvalidArgument(f"{directory} already holds frame files")
    directory.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(frames):
        write_frame(directory / f"frame_{k:06d}.npz", frame)


def _frame_index(path: Path) -> int:
    match = _FRAME_NAME.fullmatch(path.name)
    if match is None:
        raise ValidationError(f"{path}: not a frame name write_frame_dir writes")
    return int(match[1])


def read_frame_dir(directory, agent_id: int = 0) -> list[PointCloudFrame]:
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"frame directory not found: {directory}")
    paths = sorted(directory.glob("*.npz"), key=_frame_index)
    if not paths:
        raise ValidationError(f"no frame files in {directory}")
    return _read_frames(paths, agent_id)


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
    with Path(path).open("w") as fh:
        fh.write(_POSE_HEADER + "\n")
        for t, tf in samples:
            values = (t, *tf.translation.tolist(), *tf.rotation.ravel().tolist())
            fh.write(",".join(repr(float(v)) for v in values) + "\n")


def read_pose_csv(path) -> list[PoseSample]:
    """Read a map-frame pose stream; a malformed file raises ValidationError."""
    path = Path(path)
    try:
        with path.open() as fh:
            header = fh.readline().strip()
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if header != _POSE_HEADER:
        raise ValidationError(f"{path}: unrecognized pose header '{header}'")
    if not lines:
        raise ValidationError(f"{path}: no pose samples")
    try:
        body = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if body.shape[1] != 13:
        raise ValidationError(f"{path}: expected 13 columns, got {body.shape[1]}")
    if not np.isfinite(body).all():
        raise ValidationError(f"{path}: non-finite pose value")
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
