import math

import numpy as np
import pytest

from cavtraj.detection import PointCloudFrame


def box_surface_points(center, length, width, height, heading=0.0, spacing=0.15,
                       z_base=0.4, rng=None, noise=0.0):
    """Sample the four side walls and roof of a box-shaped vehicle hull.

    Points are returned in the frame the center is given in; z spans
    [z_base, height].
    """
    pts = []
    half_l, half_w = length / 2.0, width / 2.0
    n_l = max(2, int(round(length / spacing)) + 1)
    n_w = max(2, int(round(width / spacing)) + 1)
    n_z = max(2, int(round((height - z_base) / spacing)) + 1)
    ls = np.linspace(-half_l, half_l, n_l)
    ws = np.linspace(-half_w, half_w, n_w)
    zs = np.linspace(z_base, height, n_z)
    for z in zs:
        for u in ls:
            pts.append([u, -half_w, z])
            pts.append([u, half_w, z])
        for v in ws:
            pts.append([-half_l, v, z])
            pts.append([half_l, v, z])
    for u in ls:  # roof
        for v in ws:
            pts.append([u, v, height])
    pts = np.array(pts)
    c, s = math.cos(heading), math.sin(heading)
    rot = np.array([[c, -s], [s, c]])
    pts[:, :2] = pts[:, :2] @ rot.T
    pts[:, 0] += center[0]
    pts[:, 1] += center[1]
    if noise > 0.0 and rng is not None:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    return pts


def make_frame(points, timestamp=0.0, agent_id=0):
    return PointCloudFrame(timestamp=timestamp, points=points, agent_id=agent_id)


def in_footprint(box, points, inflation=0.0):
    """Mask of the points whose xy falls inside the box's (inflated) footprint rectangle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx = pts[:, 0] - box.x
    dy = pts[:, 1] - box.y
    along = dx * c + dy * s
    across = -dx * s + dy * c
    return (np.abs(along) <= box.length / 2.0 + inflation) & (np.abs(across) <= box.width / 2.0 + inflation)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
