import math

import numpy as np
import pytest

from cavtraj.errors import InvalidArgument
from cavtraj.geometry import (
    TAU,
    RigidTransform,
    euler_from_rotation,
    rotation_from_euler,
    wrap_angle,
)


def random_transform(rng):
    return RigidTransform(rotation_from_euler(*rng.uniform(-math.pi, math.pi, size=3)), rng.uniform(-50, 50, size=3))


def test_rotation_identity():
    np.testing.assert_allclose(rotation_from_euler(0.0, 0.0, 0.0), np.eye(3))


def test_rotation_pure_yaw_maps_x_to_y():
    rot = rotation_from_euler(0.0, 0.0, math.pi / 2)
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
    np.testing.assert_allclose(rotation_from_euler(roll, pitch, yaw), expected, atol=1e-15)


def test_rotation_orthonormal_for_random_angles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rot = rotation_from_euler(*rng.uniform(-math.pi, math.pi, size=3))
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9


def test_rotation_rejects_non_finite():
    for angles in ((math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)):
        with pytest.raises(InvalidArgument, match="non-finite"):
            RigidTransform(rotation_from_euler(*angles), [0, 0, 0])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("axis", range(3), ids=["roll", "pitch", "yaw"])
def test_rotation_from_euler_names_a_non_finite_angle(axis, value):
    angles = [0.1, 0.2, 0.3]
    angles[axis] = value
    name = ("roll", "pitch", "yaw")[axis]
    with pytest.raises(InvalidArgument, match=f"non-finite {name} angle: {value!r}"):
        rotation_from_euler(*angles)


def test_euler_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        roll, pitch, yaw = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01),
            rng.uniform(-math.pi, math.pi),
        )
        back_roll, back_pitch, back_yaw = euler_from_rotation(rotation_from_euler(roll, pitch, yaw))
        assert abs(wrap_angle(back_roll - roll)) < 1e-9
        assert abs(back_pitch - pitch) < 1e-9
        assert abs(wrap_angle(back_yaw - yaw)) < 1e-9


def test_invert_identity():
    inv = RigidTransform(np.eye(3), np.zeros(3)).inverse()
    np.testing.assert_allclose(inv.rotation, np.eye(3))
    np.testing.assert_allclose(inv.translation, np.zeros(3))


def test_invert_pure_translation():
    t = RigidTransform(np.eye(3), [1, 2, 3])
    np.testing.assert_allclose(t.inverse().translation, [-1, -2, -3])


def test_invert_round_trip():
    rng = np.random.default_rng(11)
    cloud = rng.uniform(-20, 20, size=(10, 3))
    for _ in range(50):
        t = random_transform(rng)
        back = t.inverse().inverse()
        np.testing.assert_allclose(back.rotation, t.rotation, atol=1e-9)
        np.testing.assert_allclose(back.translation, t.translation, atol=1e-9)
        np.testing.assert_allclose(t.inverse().apply(t.apply(cloud)), cloud, atol=1e-9)
        np.testing.assert_allclose(t.apply(t.inverse().apply(cloud)), cloud, atol=1e-9)


def test_transform_points_identity_and_translation():
    cloud = np.random.default_rng(23).uniform(-5, 5, size=(40, 3))
    np.testing.assert_allclose(RigidTransform(np.eye(3), np.zeros(3)).apply(cloud), cloud)
    shifted = RigidTransform(np.eye(3), [0, 0, 5]).apply([[1.0, 1.0, 0.0]])
    np.testing.assert_allclose(shifted, [[1, 1, 5]])


def test_transform_points_yaw_90():
    t = RigidTransform(rotation_from_euler(0.0, 0.0, math.pi / 2), [0, 0, 0])
    np.testing.assert_allclose(t.apply([[1.0, 0.0, 0.0]]), [[0, 1, 0]], atol=1e-12)


@pytest.mark.parametrize("points", [[1.0, 0.0, 0.0], np.zeros((4, 2)), np.zeros((2, 4, 3))], ids=["vector", "n2", "3d"])
def test_transform_points_rejects_all_but_n_by_3(points):
    with pytest.raises(InvalidArgument, match=r"\(N, 3\)"):
        RigidTransform(np.eye(3), [0, 0, 0]).apply(points)


def test_transform_points_preserves_pairwise_distances():
    rng = np.random.default_rng(29)
    cloud = rng.uniform(-20, 20, size=(30, 3))
    t = random_transform(rng)
    moved = t.apply(cloud)
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


def test_wrap_angle_scalar_matches_array_path_bit_for_bit():
    rng = np.random.default_rng(2024)
    values = np.r_[
        rng.uniform(-50.0, 50.0, 100_000),
        rng.normal(size=100_000) * 10.0 ** rng.uniform(-12, 17, 100_000),
        [k * math.pi + d for k in range(-20, 21) for d in (-1e-15, 0.0, 1e-15)],
        [np.nextafter(k * math.pi, side) for k in range(-20, 21) for side in (-math.inf, math.inf)],
        [0.0, -0.0, math.pi, -math.pi, TAU, -TAU, 1e17, -1e17],
    ]
    # the same arithmetic vectorised in NumPy is the reference
    wrapped = values - TAU * np.floor((values + math.pi) / TAU)
    wrapped = np.where(wrapped <= -math.pi, math.pi, wrapped)
    for a, w in zip(values.tolist(), wrapped.tolist()):
        for scalar in (a, np.float64(a)):
            got = wrap_angle(scalar)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(w).tobytes(), a
