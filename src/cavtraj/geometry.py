"""Coordinate frames and rigid transforms.

Conventions:
  * map frame: x east, y north, z up, in meters. Agent poses, lanelets, fused
    boxes and trajectories are all expressed in it.
  * vehicle/LiDAR frames: x forward, y left, z up.
  * a rotation is a 3x3 matrix, finite, orthonormal within 1e-9 and with a
    positive determinant (no reflection); the pose file stores it row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument

TAU = 2.0 * math.pi


def real_array(value, name: str) -> np.ndarray:
    """`value` as a float array; InvalidArgument unless it is an array of real numbers.

    Booleans, text, complex and object entries are not real numbers here,
    even where NumPy would cast them to float.
    """
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"{name} are not an array of numbers: {exc}") from None
    if array.dtype.kind not in "fiu":
        raise InvalidArgument(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def wrap_angle(a: float) -> float:
    """Wrap a finite angle to (-pi, pi]."""
    wrapped = a - TAU * math.floor((a + math.pi) / TAU)
    return math.pi if wrapped <= -math.pi else float(wrapped)


class RigidTransform:
    """Rotation + translation; maps points via p' = R p + t."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation, translation):
        rotation = np.array(real_array(rotation, "rotation"))
        translation = np.array(real_array(translation, "translation"))
        if rotation.shape != (3, 3) or translation.shape != (3,):
            raise InvalidArgument(f"rotation must be 3x3 and translation (3,): {rotation.shape}, {translation.shape}")
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
