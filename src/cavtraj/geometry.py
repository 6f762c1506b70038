"""Coordinate frames and rigid transforms.

Conventions:
  * map frame: x east, y north, z up, in meters. Agent poses, lanelets, fused
    boxes and trajectories are all expressed in it.
  * vehicle/LiDAR frames: x forward, y left, z up.
  * Euler angles compose as yaw-pitch-roll (Z-Y-X): R = Rz(yaw) Ry(pitch) Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

TAU = 2.0 * math.pi


def wrap_angle(a):
    """Wrap an angle (scalar or array) to (-pi, pi]."""
    if isinstance(a, float) and math.isfinite(a):
        # the array path's arithmetic on a Python or NumPy float64 scalar, without NumPy calls
        wrapped = a - TAU * math.floor((a + math.pi) / TAU)
        return math.pi if wrapped <= -math.pi else float(wrapped)
    wrapped = np.asarray(a) - TAU * np.floor((np.asarray(a) + math.pi) / TAU)
    wrapped = np.where(wrapped <= -math.pi, math.pi, wrapped)
    if np.isscalar(a) or np.ndim(a) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class EulerAngles:
    """Roll, pitch, yaw in radians, each normalized to (-pi, pi]."""

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self):
        for name in ("roll", "pitch", "yaw"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidArgument(f"non-finite {name}: {value!r}")
            object.__setattr__(self, name, wrap_angle(value))


def rotation_from_euler(angles: EulerAngles) -> np.ndarray:
    """3x3 rotation matrix for the yaw-pitch-roll (Z-Y-X) composition.

    Entries are written out term by term; `sy`/`cy` refer to yaw, `sp`/`cp`
    to pitch, `sr`/`cr` to roll.
    """
    sr, cr = math.sin(angles.roll), math.cos(angles.roll)
    sp, cp = math.sin(angles.pitch), math.cos(angles.pitch)
    sy, cy = math.sin(angles.yaw), math.cos(angles.yaw)
    return np.array(
        [
            [cy * cp, -sy * cr + cy * sp * sr, sy * sr + cy * sp * cr],
            [sy * cp, cy * cr + sy * sp * sr, -cy * sr + sy * sp * cr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def euler_from_rotation(rotation: np.ndarray) -> EulerAngles:
    """Recover yaw-pitch-roll angles from a rotation matrix (gimbal-safe)."""
    r = np.asarray(rotation, dtype=float)
    pitch = -math.asin(min(1.0, max(-1.0, r[2, 0])))
    if abs(r[2, 0]) < 1.0 - 1e-12:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        # gimbal lock: yaw and roll are coupled, conventionally put it all in yaw
        roll = 0.0
        yaw = math.atan2(-r[0, 1], r[1, 1])
    return EulerAngles(roll, pitch, yaw)


class RigidTransform:
    """Rotation + translation; maps points via p' = R p + t."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        rotation = np.array(rotation, dtype=float)
        translation = np.array(translation, dtype=float).reshape(3)
        if rotation.shape != (3, 3):
            raise InvalidArgument(f"rotation must be 3x3, got {rotation.shape}")
        if not np.all(np.isfinite(rotation)) or not np.all(np.isfinite(translation)):
            raise InvalidArgument("non-finite transform")
        if np.linalg.norm(rotation.T @ rotation - np.eye(3)) >= 1e-9:
            raise InvalidArgument("rotation is not orthonormal")
        if np.linalg.det(rotation) < 0.0:
            raise InvalidArgument("rotation has negative determinant")
        rotation.flags.writeable = False
        translation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def __setattr__(self, name, value):
        raise AttributeError("RigidTransform is immutable")

    @classmethod
    def from_euler_translation(cls, angles: EulerAngles, translation) -> "RigidTransform":
        return cls(rotation_from_euler(angles), translation)

    @property
    def euler(self) -> EulerAngles:
        return euler_from_rotation(self.rotation)

    def inverse(self) -> "RigidTransform":
        rot_t = self.rotation.T
        return RigidTransform(rot_t, -rot_t @ self.translation)

    def apply(self, points) -> np.ndarray:
        """Apply p' = R p + t to an (N, 3) array (or a single 3-vector)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != 3:
            raise InvalidArgument(f"points must be (N, 3), got {pts.shape}")
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out
