import math

import numpy as np
import pytest

from cavtraj.errors import InvalidArgument
from cavtraj.geometry import TAU, RigidTransform, wrap_angle
from conftest import rotation_matrix


def random_transform(rng):
    return RigidTransform(rotation_matrix(*rng.uniform(-math.pi, math.pi, size=3)), rng.uniform(-50, 50, size=3))


def test_rotation_orthonormal_for_random_angles():
    # every rotation passes the rule as given, a reflection of it or a copy off by 1e-9 does not;
    # the rule is the rotation check of the pose file
    rng = np.random.default_rng(7)
    angles = np.r_[rng.uniform(-math.pi, math.pi, (1000, 3)), [[0.3, math.pi / 2, -1.0], [2.0, -math.pi / 2, 0.5]]]
    for roll, pitch, yaw in angles:
        rot = rotation_matrix(roll, pitch, yaw)
        assert RigidTransform(rot, [0, 0, 0]).rotation.tobytes() == rot.tobytes()
        with pytest.raises(InvalidArgument, match="negative determinant"):
            RigidTransform(-rot, [0, 0, 0])
        with pytest.raises(InvalidArgument, match="not orthonormal"):
            RigidTransform(rot * (1.0 + 1e-9), [0, 0, 0])


def test_rotation_rejects_non_finite():
    # any one of the nine rotation and three translation entries
    for value in (math.inf, -math.inf, math.nan):
        for k in range(12):
            entries = np.r_[np.eye(3).ravel(), np.zeros(3)]
            entries[k] = value
            with pytest.raises(InvalidArgument, match="non-finite"):
                RigidTransform(entries[:9].reshape(3, 3), entries[9:])


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
    t = RigidTransform([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0, 0, 0])
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


@pytest.mark.parametrize("rotation, translation", [(np.eye(3), [1.0, 2.0]), (np.eye(3), np.zeros((3, 1))),
                                                   (np.eye(2), np.zeros(3)), (np.eye(3).ravel(), np.zeros(3))],
                         ids=["short_translation", "column_translation", "2x2_rotation", "flat_rotation"])
def test_rigid_transform_rejects_wrong_shapes(rotation, translation):
    # a short translation raised a bare ValueError from reshape
    with pytest.raises(InvalidArgument, match="rotation must be 3x3 and translation"):
        RigidTransform(rotation, translation)


# each was cast to float (a bool identity to a valid rotation); a complex one raised a bare
# ComplexWarning under -W error, and lost its imaginary part
NOT_REAL = {"text": str, "bool": bool, "complex": complex, "object": object}


@pytest.mark.parametrize("kind", NOT_REAL.values(), ids=NOT_REAL.keys())
def test_rigid_transform_rejects_entries_that_are_not_real_numbers(kind):
    with pytest.raises(InvalidArgument, match="rotation must be real numbers"):
        RigidTransform(np.eye(3).astype(kind), [0.0, 0.0, 0.0])
    with pytest.raises(InvalidArgument, match="translation must be real numbers"):
        RigidTransform(np.eye(3), np.ones(3).astype(kind))


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
