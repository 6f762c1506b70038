"""Coordinate frames and rigid transforms.

Conventions:
  * map frame: x east, y north, z up, in meters. Agent poses, lanelets, fused
    boxes and trajectories are all expressed in it.
  * vehicle/LiDAR frames: x forward, y left, z up.
  * a rotation is a 3x3 matrix; Euler angles appear only in the pose file,
    where they compose as yaw-pitch-roll (Z-Y-X): R = Rz(yaw) Ry(pitch) Rx(roll).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument

TAU = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap a finite angle to (-pi, pi]."""
    wrapped = a - TAU * math.floor((a + math.pi) / TAU)
    return math.pi if wrapped <= -math.pi else float(wrapped)


def rotation_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """3x3 rotation matrix of finite angles for the yaw-pitch-roll (Z-Y-X) composition.

    Entries are written out term by term; `sy`/`cy` refer to yaw, `sp`/`cp`
    to pitch, `sr`/`cr` to roll. A non-finite angle raises InvalidArgument.
    """
    for name, angle in (("roll", roll), ("pitch", pitch), ("yaw", yaw)):
        if not math.isfinite(angle):
            raise InvalidArgument(f"non-finite {name} angle: {angle!r}")
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    sy, cy = math.sin(yaw), math.cos(yaw)
    return np.array(
        [
            [cy * cp, -sy * cr + cy * sp * sr, sy * sr + cy * sp * cr],
            [sy * cp, cy * cr + sy * sp * sr, -cy * sr + sy * sp * cr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def euler_from_rotation(rotation: np.ndarray) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a rotation matrix (gimbal-safe); roll and yaw in [-pi, pi]."""
    r = np.asarray(rotation, dtype=float)
    pitch = -math.asin(min(1.0, max(-1.0, r[2, 0])))
    if abs(r[2, 0]) < 1.0 - 1e-12:
        return math.atan2(r[2, 1], r[2, 2]), pitch, math.atan2(r[1, 0], r[0, 0])
    # gimbal lock: yaw and roll are coupled, conventionally put it all in yaw
    return 0.0, pitch, math.atan2(-r[0, 1], r[1, 1])


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

    def inverse(self) -> "RigidTransform":
        rot_t = self.rotation.T
        return RigidTransform(rot_t, -rot_t @ self.translation)

    def apply(self, points) -> np.ndarray:
        """Apply p' = R p + t to an (N, 3) array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidArgument(f"points must be (N, 3), got {pts.shape}")
        return pts @ self.rotation.T + self.translation
