"""Coordinate frames, rigid transforms, and geodetic conversion.

Conventions:
  * map frame: x east, y north, z up, origin at a configured geodetic point
    (usually the start of the reference vehicle's route).
  * vehicle/LiDAR frames: x forward, y left, z up.
  * Euler angles compose as yaw-pitch-roll (Z-Y-X): R = Rz(yaw) Ry(pitch) Rx(roll).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnsupportedRegion

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


@dataclass(frozen=True)
class GeodeticCoord:
    """WGS-84 latitude/longitude in degrees, altitude in meters."""

    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.latitude) and abs(self.latitude) <= 90.0):
            raise InvalidArgument(f"latitude out of range: {self.latitude!r}")
        if not (math.isfinite(self.longitude) and abs(self.longitude) <= 180.0):
            raise InvalidArgument(f"longitude out of range: {self.longitude!r}")
        if not math.isfinite(self.altitude):
            raise InvalidArgument(f"non-finite altitude: {self.altitude!r}")


@dataclass(frozen=True)
class MapPoint:
    """Point in the east/north/up map frame (meters)."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise InvalidArgument("non-finite map point")


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

    def __repr__(self):
        e = euler_from_rotation(self.rotation)
        return (
            f"RigidTransform(t={np.array2string(self.translation, precision=3)}, "
            f"rpy=({e.roll:.3f}, {e.pitch:.3f}, {e.yaw:.3f}))"
        )

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_euler_translation(cls, angles: EulerAngles, translation) -> "RigidTransform":
        return cls(rotation_from_euler(angles), translation)

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @property
    def euler(self) -> EulerAngles:
        return euler_from_rotation(self.rotation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: the transform taking p to self(other(p))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

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


# --- WGS-84 transverse Mercator (UTM) ------------------------------------
#
# Krueger eta/xi series in the third flattening n, coefficients to n^6;
# good to well under 1 cm inside a zone.

_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_UTM_K0 = 0.9996
_UTM_FALSE_EASTING = 500000.0

_N = _WGS84_F / (2.0 - _WGS84_F)
_E2 = _WGS84_F * (2.0 - _WGS84_F)
_E = math.sqrt(_E2)

_A_BAR = _WGS84_A / (1.0 + _N) * (1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0)

_ALPHA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 5.0 * _N**3 / 16.0 + 41.0 * _N**4 / 180.0
    - 127.0 * _N**5 / 288.0 + 7891.0 * _N**6 / 37800.0,
    13.0 * _N**2 / 48.0 - 3.0 * _N**3 / 5.0 + 557.0 * _N**4 / 1440.0
    + 281.0 * _N**5 / 630.0 - 1983433.0 * _N**6 / 1935360.0,
    61.0 * _N**3 / 240.0 - 103.0 * _N**4 / 140.0 + 15061.0 * _N**5 / 26880.0
    + 167603.0 * _N**6 / 181440.0,
    49561.0 * _N**4 / 161280.0 - 179.0 * _N**5 / 168.0 + 6601661.0 * _N**6 / 7257600.0,
    34729.0 * _N**5 / 80640.0 - 3418889.0 * _N**6 / 1995840.0,
    212378941.0 * _N**6 / 319334400.0,
)

_BETA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 37.0 * _N**3 / 96.0 - _N**4 / 360.0
    - 81.0 * _N**5 / 512.0 + 96199.0 * _N**6 / 604800.0,
    _N**2 / 48.0 + _N**3 / 15.0 - 437.0 * _N**4 / 1440.0 + 46.0 * _N**5 / 105.0
    - 1118711.0 * _N**6 / 3870720.0,
    17.0 * _N**3 / 480.0 - 37.0 * _N**4 / 840.0 - 209.0 * _N**5 / 4480.0
    + 5569.0 * _N**6 / 90720.0,
    4397.0 * _N**4 / 161280.0 - 11.0 * _N**5 / 504.0 - 830251.0 * _N**6 / 7257600.0,
    4583.0 * _N**5 / 161280.0 - 108847.0 * _N**6 / 3991680.0,
    20648693.0 * _N**6 / 638668800.0,
)


def utm_zone(longitude: float) -> int:
    """UTM zone number (1..60) containing a longitude in degrees."""
    return int(math.floor((longitude + 180.0) / 6.0)) % 60 + 1


def _zone_central_meridian(zone: int) -> float:
    return zone * 6.0 - 183.0


def geodetic_to_utm(coord: GeodeticCoord, zone: int | None = None) -> tuple[float, float, int]:
    """Convert to UTM easting/northing (meters) within `zone` (default: natural zone)."""
    if zone is None:
        zone = utm_zone(coord.longitude)
    lat = math.radians(coord.latitude)
    dlon = math.radians(coord.longitude - _zone_central_meridian(zone))

    # conformal latitude
    t = math.sinh(math.atanh(math.sin(lat)) - _E * math.atanh(_E * math.sin(lat)))
    xi_p = math.atan2(t, math.cos(dlon))
    eta_p = math.asinh(math.sin(dlon) / math.hypot(t, math.cos(dlon)))

    xi = xi_p
    eta = eta_p
    for j, a in enumerate(_ALPHA, start=1):
        xi += a * math.sin(2 * j * xi_p) * math.cosh(2 * j * eta_p)
        eta += a * math.cos(2 * j * xi_p) * math.sinh(2 * j * eta_p)

    easting = _UTM_FALSE_EASTING + _UTM_K0 * _A_BAR * eta
    northing = _UTM_K0 * _A_BAR * xi
    if coord.latitude < 0.0:
        northing += 10000000.0
    return easting, northing, zone


def utm_to_geodetic(easting: float, northing: float, zone: int, south: bool = False) -> GeodeticCoord:
    """Inverse UTM conversion (altitude is returned as 0)."""
    if south:
        northing -= 10000000.0
    xi = northing / (_UTM_K0 * _A_BAR)
    eta = (easting - _UTM_FALSE_EASTING) / (_UTM_K0 * _A_BAR)

    xi_p = xi
    eta_p = eta
    for j, b in enumerate(_BETA, start=1):
        xi_p -= b * math.sin(2 * j * xi) * math.cosh(2 * j * eta)
        eta_p -= b * math.cos(2 * j * xi) * math.sinh(2 * j * eta)

    t_p = math.sin(xi_p) / math.hypot(math.sinh(eta_p), math.cos(xi_p))
    dlon = math.atan2(math.sinh(eta_p), math.cos(xi_p))

    # invert the conformal latitude by Newton iteration on tau = tan(lat)
    tau = t_p
    for _ in range(20):
        sigma = math.sinh(_E * math.atanh(_E * tau / math.hypot(1.0, tau)))
        f_val = tau * math.hypot(1.0, sigma) - sigma * math.hypot(1.0, tau) - t_p
        d_tau = (
            (math.hypot(1.0, sigma) * math.hypot(1.0, tau) - sigma * tau)
            * (1.0 - _E2)
            * math.hypot(1.0, tau)
            / (1.0 + (1.0 - _E2) * tau * tau)
        )
        step = f_val / d_tau
        tau -= step
        if abs(step) < 1e-15:
            break

    lat = math.degrees(math.atan(tau))
    lon = _zone_central_meridian(zone) + math.degrees(dlon)
    return GeodeticCoord(lat, lon, 0.0)


def geodetic_to_map(coord: GeodeticCoord, origin: GeodeticCoord) -> MapPoint:
    """Project a geodetic coordinate into the map frame anchored at `origin`.

    Both coordinates must fall in the origin's UTM zone; crossing a zone
    boundary raises UnsupportedRegion.
    """
    zone = utm_zone(origin.longitude)
    if utm_zone(coord.longitude) != zone:
        raise UnsupportedRegion(
            f"longitude {coord.longitude} is outside UTM zone {zone} of the map origin"
        )
    e0, n0, _ = geodetic_to_utm(origin, zone)
    e1, n1, _ = geodetic_to_utm(coord, zone)
    return MapPoint(e1 - e0, n1 - n0, coord.altitude - origin.altitude)


def map_to_geodetic(point: MapPoint, origin: GeodeticCoord) -> GeodeticCoord:
    """Inverse of geodetic_to_map for the same origin."""
    zone = utm_zone(origin.longitude)
    e0, n0, _ = geodetic_to_utm(origin, zone)
    coord = utm_to_geodetic(e0 + point.x, n0 + point.y, zone, south=origin.latitude < 0.0)
    return GeodeticCoord(coord.latitude, coord.longitude, origin.altitude + point.z)
