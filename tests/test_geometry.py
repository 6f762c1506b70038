import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavtraj.errors import InvalidArgument, UnsupportedRegion
from cavtraj.geometry import (
    EulerAngles,
    GeodeticCoord,
    MapPoint,
    RigidTransform,
    geodetic_to_map,
    euler_from_rotation,
    map_to_geodetic,
    rotation_from_euler,
    transform_points,
    wrap_angle,
)


def random_transform(rng):
    angles = EulerAngles(*rng.uniform(-math.pi, math.pi, size=3))
    return RigidTransform.from_euler_translation(angles, rng.uniform(-50, 50, size=3))


def test_rotation_identity():
    np.testing.assert_allclose(rotation_from_euler(EulerAngles(0, 0, 0)), np.eye(3))


def test_rotation_pure_yaw_maps_x_to_y():
    rot = rotation_from_euler(EulerAngles(0, 0, math.pi / 2))
    np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_rotation_terms_match_direct_evaluation():
    # independent term-by-term evaluation of the yaw-pitch-roll matrix
    roll, pitch, yaw = 0.1, 0.2, 0.3
    sr, cr = math.sin(roll), math.cos(roll)
    sp, cp = math.sin(pitch), math.cos(pitch)
    sy, cy = math.sin(yaw), math.cos(yaw)
    expected = np.array(
        [
            [cy * cp, -sy * cr + cy * sp * sr, sy * sr + cy * sp * cr],
            [sy * cp, cy * cr + sy * sp * sr, -cy * sr + sy * sp * cr],
            [-sp, cp * sr, cp * cr],
        ]
    )
    np.testing.assert_allclose(rotation_from_euler(EulerAngles(roll, pitch, yaw)), expected, atol=1e-15)


def test_rotation_orthonormal_for_random_angles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rot = rotation_from_euler(EulerAngles(*rng.uniform(-math.pi, math.pi, size=3)))
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9


def test_rotation_rejects_non_finite():
    with pytest.raises(InvalidArgument):
        EulerAngles(float("nan"), 0, 0)


def test_euler_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        angles = EulerAngles(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01),
            rng.uniform(-math.pi, math.pi),
        )
        back = euler_from_rotation(rotation_from_euler(angles))
        assert abs(wrap_angle(back.roll - angles.roll)) < 1e-9
        assert abs(back.pitch - angles.pitch) < 1e-9
        assert abs(wrap_angle(back.yaw - angles.yaw)) < 1e-9


def test_invert_identity():
    ident = RigidTransform.identity()
    np.testing.assert_allclose(ident.inverse().matrix, np.eye(4))


def test_invert_pure_translation():
    t = RigidTransform(np.eye(3), [1, 2, 3])
    np.testing.assert_allclose(t.inverse().translation, [-1, -2, -3])


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = random_transform(rng)
        np.testing.assert_allclose(t.inverse().inverse().matrix, t.matrix, atol=1e-9)
        np.testing.assert_allclose(t.compose(t.inverse()).matrix, np.eye(4), atol=1e-9)


def test_compose_invert_group_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        t1, t2 = random_transform(rng), random_transform(rng)
        lhs = t1.compose(t2).inverse()
        rhs = t2.inverse().compose(t1.inverse())
        np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-9)


def test_transform_points_identity_and_translation():
    cloud = np.random.default_rng(23).uniform(-5, 5, size=(40, 3))
    np.testing.assert_allclose(transform_points(RigidTransform.identity(), cloud), cloud)
    shifted = transform_points(RigidTransform(np.eye(3), [0, 0, 5]), [1.0, 1.0, 0.0])
    np.testing.assert_allclose(shifted, [1, 1, 5])


def test_transform_points_yaw_90():
    t = RigidTransform.from_euler_translation(EulerAngles(0, 0, math.pi / 2), [0, 0, 0])
    np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [0, 1, 0], atol=1e-12)


def test_transform_points_preserves_pairwise_distances():
    rng = np.random.default_rng(29)
    cloud = rng.uniform(-20, 20, size=(30, 3))
    t = random_transform(rng)
    moved = transform_points(t, cloud)
    orig_d = np.linalg.norm(cloud[:, None] - cloud[None, :], axis=-1)
    new_d = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
    np.testing.assert_allclose(new_d, orig_d, atol=1e-9)


def test_rigid_transform_rejects_bad_rotation():
    with pytest.raises(InvalidArgument):
        RigidTransform(np.eye(3) * 1.1, [0, 0, 0])


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 2001):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(a)) < 1e-12
        assert abs(math.cos(w) - math.cos(a)) < 1e-12


# --- geodetic conversion ---------------------------------------------------

# near the zone-11 central meridian so grid north stays aligned with true north
ORIGIN = GeodeticCoord(34.05, -117.05, 100.0)


def meridian_radius(lat_deg):
    # independent ellipsoid oracle: meridian radius of curvature
    a = 6378137.0
    e2 = 0.00669437999014
    s = math.sin(math.radians(lat_deg))
    return a * (1 - e2) / (1 - e2 * s * s) ** 1.5


def test_geodetic_origin_maps_to_zero():
    p = geodetic_to_map(ORIGIN, ORIGIN)
    np.testing.assert_allclose([p.x, p.y, p.z], [0, 0, 0], atol=1e-9)


def test_geodetic_small_latitude_offset():
    g = GeodeticCoord(ORIGIN.latitude + 1e-5, ORIGIN.longitude, ORIGIN.altitude)
    p = geodetic_to_map(g, ORIGIN)
    expected = meridian_radius(ORIGIN.latitude) * math.radians(1e-5)
    assert expected == pytest.approx(1.106, abs=5e-3)
    assert p.y == pytest.approx(expected, abs=0.01)
    assert abs(p.x) < 0.01


def test_geodetic_meridian_distance_100m():
    # geodesic oracle: integrate the meridian radius over latitude
    dlat = 100.0 / meridian_radius(ORIGIN.latitude)
    lat1 = ORIGIN.latitude + math.degrees(dlat)
    arc, _ = quad(lambda lat: meridian_radius(lat), ORIGIN.latitude, lat1)
    arc *= math.pi / 180.0
    g = GeodeticCoord(lat1, ORIGIN.longitude, ORIGIN.altitude)
    p0 = geodetic_to_map(ORIGIN, ORIGIN)
    p1 = geodetic_to_map(g, ORIGIN)
    dist = math.hypot(p1.x - p0.x, p1.y - p0.y)
    assert dist == pytest.approx(arc, abs=0.1)


def test_geodetic_altitude_difference():
    g = GeodeticCoord(ORIGIN.latitude, ORIGIN.longitude, 130.0)
    assert geodetic_to_map(g, ORIGIN).z == pytest.approx(30.0)


def test_geodetic_cross_zone_rejected():
    g = GeodeticCoord(34.05, -110.0, 0.0)  # zone 12 vs origin zone 11
    with pytest.raises(UnsupportedRegion):
        geodetic_to_map(g, ORIGIN)


def test_geodetic_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = MapPoint(*rng.uniform(-2000, 2000, size=2), rng.uniform(-50, 50))
        g = map_to_geodetic(p, ORIGIN)
        back = geodetic_to_map(g, ORIGIN)
        np.testing.assert_allclose([back.x, back.y, back.z], [p.x, p.y, p.z], atol=1e-6)
