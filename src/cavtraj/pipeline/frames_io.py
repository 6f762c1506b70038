"""File formats for point-cloud frames and agent pose streams.

Frame files: one CSV per LiDAR frame, header ``t,x,y,z,intensity``, then a
``# t=<timestamp>`` line that records the frame time exactly (so empty
frames keep theirs), then one point per row (t repeats the frame timestamp,
to 6 decimals). Frames of one agent live in a directory and are read in
sorted filename order.

Pose files: one CSV per agent. Map-frame mode has header
``t,x,y,z,roll,pitch,yaw``; geodetic mode has header
``t,lat,lon,alt,roll,pitch,yaw`` and is converted through the configured
map origin on load.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..detection import PointCloudFrame
from ..errors import ValidationError
from ..geometry import EulerAngles, GeodeticCoord, RigidTransform, geodetic_to_map

_FRAME_HEADER = "t,x,y,z,intensity"
_POSE_HEADER_MAP = "t,x,y,z,roll,pitch,yaw"
_POSE_HEADER_GEO = "t,lat,lon,alt,roll,pitch,yaw"
_STAMP_PREFIX = "# t="
_FRAME_ROW = "%.6f,%.6f,%.6f,%.6f,%.4f\n"


def write_frame_csv(path, frame: PointCloudFrame) -> None:
    path = Path(path)
    rows = np.c_[np.full(len(frame), frame.timestamp), frame.points, frame.intensities]
    body = (_FRAME_ROW * len(rows)) % tuple(rows.ravel().tolist())
    with path.open("w") as fh:
        fh.write(f"{_FRAME_HEADER}\n{_STAMP_PREFIX}{frame.timestamp!r}\n{body}")


def read_frame_csv(path, agent_id: int = 0) -> PointCloudFrame:
    """Read one frame; the recorded timestamp line wins over the t column."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != _FRAME_HEADER:
            raise ValidationError(f"{path}: expected header '{_FRAME_HEADER}', got '{header}'")
        line = fh.readline()
        timestamp = None
        try:
            if line.startswith(_STAMP_PREFIX):
                timestamp = float(line[len(_STAMP_PREFIX):])
                line = fh.readline()
            data = np.loadtxt(itertools.chain([line], fh), delimiter=",", ndmin=2) if line else np.zeros((0, 5))
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if data.shape[1] != 5:
        raise ValidationError(f"{path}: expected 5 columns, got {data.shape[1]}")
    if timestamp is None:
        if not data.size:
            raise ValidationError(f"{path}: empty frame without a recorded timestamp")
        timestamp = float(data[0, 0])
    return PointCloudFrame(
        timestamp=timestamp,
        points=data[:, 1:4],
        intensities=data[:, 4],
        agent_id=agent_id,
    )


def read_frame_dir(directory, agent_id: int = 0) -> list[PointCloudFrame]:
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationError(f"frame directory not found: {directory}")
    frames = [read_frame_csv(p, agent_id) for p in sorted(directory.glob("*.csv"))]
    if not frames:
        raise ValidationError(f"no frame files in {directory}")
    return frames


@dataclass
class PoseSample:
    timestamp: float
    transform: RigidTransform


def write_pose_csv(path, samples: list[tuple[float, RigidTransform]]) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(_POSE_HEADER_MAP + "\n")
        for t, tf in samples:
            e = tf.euler
            x, y, z = tf.translation
            fh.write(f"{t:.6f},{x:.6f},{y:.6f},{z:.6f},{e.roll:.9f},{e.pitch:.9f},{e.yaw:.9f}\n")


def read_pose_csv(path, origin: GeodeticCoord | None = None) -> list[PoseSample]:
    """Read a pose stream; geodetic files require a map origin."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header == _POSE_HEADER_MAP:
        geodetic = False
    elif header == _POSE_HEADER_GEO:
        geodetic = True
        if origin is None:
            raise ValidationError(f"{path}: geodetic pose file needs a configured map origin")
    else:
        raise ValidationError(f"{path}: unrecognized pose header '{header}'")
    if body.shape[1] != 7:
        raise ValidationError(f"{path}: expected 7 columns, got {body.shape[1]}")

    samples = []
    for row in body:
        t = float(row[0])
        if geodetic:
            p = geodetic_to_map(GeodeticCoord(row[1], row[2], row[3]), origin)
            translation = (p.x, p.y, p.z)
        else:
            translation = tuple(row[1:4])
        transform = RigidTransform.from_euler_translation(
            EulerAngles(row[4], row[5], row[6]), translation
        )
        samples.append(PoseSample(t, transform))
    times = [s.timestamp for s in samples]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"{path}: pose timestamps must strictly increase")
    return samples


def pose_at(samples: list[PoseSample], t: float, tolerance: float = 0.5) -> RigidTransform:
    """Pose nearest to t (no interpolation beyond nearest sample)."""
    times = np.array([s.timestamp for s in samples])
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > tolerance:
        raise ValidationError(f"no pose within {tolerance} s of t={t:.3f}")
    return samples[k].transform
