"""File formats for point-cloud frames and agent pose streams.

Frame files: one uncompressed ``np.savez`` archive per LiDAR frame, holding
exactly two float64 arrays: ``timestamp`` (0-d), the capture time in
seconds, and ``points`` (N, 3), the x, y, z of each return in metres in the
sensor frame. Both are finite. Values round-trip bit for bit, and an empty
frame keeps its timestamp. Frames of one agent live in a directory as
``frame_000000.npz``, ``frame_000001.npz``, ... (index k as ``{k:06d}``);
the writer refuses a directory that already holds ``.npz`` files. The
reader orders them by k, so ``frame_1000000.npz`` follows
``frame_999999.npz``, and a file whose timestamp falls below its
predecessor's raises ValidationError naming it. The reader accepts only
what the writer writes: another ``.npz`` name, an archive with any other
array, a missing one, another dtype or another shape raises
ValidationError, and so does a path that cannot be opened.

Pose files: one CSV per agent with header ``t,x,y,z,roll,pitch,yaw``, the
agent's map-frame pose at each time: translation in metres and ZYX Euler
angles in radians. Each value is written as its shortest round-trip
``repr``. The reader rejects any other header, a row that is not seven
finite numbers, an empty body, times that do not strictly increase and a
file that cannot be opened or decoded as text.
"""

from __future__ import annotations

import re
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from ..detection import PointCloudFrame
from ..errors import InvalidArgument, ValidationError
from ..geometry import RigidTransform, euler_from_rotation, rotation_from_euler

_FRAME_ARRAYS = ("timestamp", "points")
_FRAME_NAME = re.compile(r"frame_([0-9]{6}|[1-9][0-9]{6,})\.npz")  # {k:06d}: one name per k
_POSE_HEADER = "t,x,y,z,roll,pitch,yaw"
_POSE_TOLERANCE = 0.5   # s, the farthest a pose may be taken from its nearest sample


def write_frame(path, frame: PointCloudFrame) -> None:
    with Path(path).open("wb") as fh:
        np.savez(fh, timestamp=np.float64(frame.timestamp), points=frame.points)


def read_frame(path, agent_id: int = 0) -> PointCloudFrame:
    """Read one frame file; anything write_frame would not write raises ValidationError."""
    path = Path(path)
    try:
        # np.load leaks the handle of a path it opens when the zip is unreadable, and
        # returns a member that lacks the .npy header as raw bytes
        with path.open("rb") as fh:
            loaded = np.load(fh, allow_pickle=False)
            if isinstance(loaded, np.ndarray):
                raise TypeError("a plain .npy array, not an .npz archive")
            with loaded:
                arrays = {name: np.asarray(loaded[name]) for name in loaded.files}
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if sorted(arrays) != sorted(_FRAME_ARRAYS):
        raise ValidationError(f"{path}: expected arrays {list(_FRAME_ARRAYS)}, got {list(arrays)}")
    timestamp, points = arrays["timestamp"], arrays["points"]
    if [(a.dtype, a.ndim) for a in (timestamp, points)] != [(np.float64, 0), (np.float64, 2)] or points.shape[1] != 3:
        got = ", ".join(f"{name} {arrays[name].dtype}{arrays[name].shape}" for name in _FRAME_ARRAYS)
        raise ValidationError(f"{path}: expected float64 timestamp (), points (N, 3); got {got}")
    try:
        return PointCloudFrame(float(timestamp), points, agent_id)
    except InvalidArgument as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_frame_dir(directory, frames: list[PointCloudFrame]) -> None:
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
    frames = [read_frame(p, agent_id) for p in paths]
    if not frames:
        raise ValidationError(f"no frame files in {directory}")
    for path, before, frame in zip(paths[1:], frames, frames[1:]):
        if frame.timestamp < before.timestamp:
            raise ValidationError(f"{path}: timestamp {frame.timestamp} falls below {before.timestamp} "
                                  "of the frame before it")
    return frames


class PoseSample(NamedTuple):
    """An agent's map-frame pose at one time."""

    timestamp: float
    transform: RigidTransform


def write_pose_csv(path, samples: list[PoseSample]) -> None:
    with Path(path).open("w") as fh:
        fh.write(_POSE_HEADER + "\n")
        for t, tf in samples:
            values = (t, *tf.translation, *euler_from_rotation(tf.rotation))
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
    if body.shape[1] != 7:
        raise ValidationError(f"{path}: expected 7 columns, got {body.shape[1]}")
    if not np.isfinite(body).all():
        raise ValidationError(f"{path}: non-finite pose value")
    if np.any(np.diff(body[:, 0]) <= 0.0):
        raise ValidationError(f"{path}: pose timestamps must strictly increase")
    return [PoseSample(t, RigidTransform(rotation_from_euler(roll, pitch, yaw), (x, y, z)))
            for t, x, y, z, roll, pitch, yaw in body.tolist()]


def pose_at(samples: list[PoseSample], t: float) -> RigidTransform:
    """Pose at time t from time-ordered samples, one of which lies within 0.5 s of t.

    Between two samples the translation is interpolated linearly and the
    rotation by slerp. At a sample's own time, and before the first or after
    the last sample, that sample's stored transform is returned as is.
    """
    if not samples:
        raise ValidationError(f"no pose samples to take t={t:.3f} from")
    times = np.array([s.timestamp for s in samples])
    k = int(np.argmin(np.abs(times - t)))
    if not abs(times[k] - t) <= _POSE_TOLERANCE:
        raise ValidationError(f"no pose within {_POSE_TOLERANCE} s of t={t:.3f}")
    after = int(np.searchsorted(times, t, side="right"))
    if times[k] == t or after in (0, len(times)):
        return samples[k].transform
    (t0, a), (t1, b) = samples[after - 1], samples[after]
    w = (t - t0) / (t1 - t0)
    rotation = Slerp([t0, t1], Rotation.from_matrix([a.rotation, b.rotation]))(t).as_matrix()
    return RigidTransform(rotation, (1.0 - w) * a.translation + w * b.translation)
