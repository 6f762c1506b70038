import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cavtraj.detection import PointCloudFrame
from cavtraj.geometry import RigidTransform
from cavtraj.pipeline.frames_io import PoseSample

UTM_SHIFT = (4.5e5, 5.4e6)  # m: where a map in UTM coordinates sits, as real HD maps do


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


def rotation_matrix(roll, pitch, yaw):
    """Rz(yaw) Ry(pitch) Rx(roll), about the fixed x, then y, then z axis, as SciPy builds it."""
    return Rotation.from_euler("xyz", [roll, pitch, yaw]).as_matrix()


def make_frame(points, timestamp=0.0, agent_id=0):
    return PointCloudFrame(timestamp=timestamp, points=points, agent_id=agent_id)


def box_corners(box):
    """A box's four BEV corners as a (4, 2) array, counter-clockwise from front left: its rotation of (±l/2, ±w/2)."""
    c, s = math.cos(box.heading), math.sin(box.heading)
    local = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * [box.length / 2.0, box.width / 2.0]
    return local @ np.array([[c, s], [-s, c]]) + [box.x, box.y]


def in_footprint(box, points, inflation=0.0):
    """Mask of the points whose xy falls inside the box's (inflated) footprint rectangle."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c, s = math.cos(box.heading), math.sin(box.heading)
    dx = pts[:, 0] - box.x
    dy = pts[:, 1] - box.y
    along = dx * c + dy * s
    across = -dx * s + dy * c
    return (np.abs(along) <= box.length / 2.0 + inflation) & (np.abs(across) <= box.width / 2.0 + inflation)


def moved_scenario(data, shift=(0.0, 0.0), turn=0.0, delay=0.0):
    """The scenario with its map and poses moved by W, a turn about the map origin then a shift, and its clock by delay.

    The frames keep their points, which are in the sensor frame. The ground
    truth is left as it is.
    """
    c, s = math.cos(turn), math.sin(turn)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    translation = np.array([*shift, 0.0])

    def moved(polyline):
        return [[c * x - s * y + shift[0], s * x + c * y + shift[1], z] for x, y, z in polyline]

    polylines = ("centerline", "left_boundary", "right_boundary")
    lanelets = [{key: moved(value) if key in polylines else value for key, value in lanelet.items()}
                for lanelet in data.vector_map["lanelets"]]
    poses = {aid: [PoseSample(t + delay, RigidTransform(rotation @ tf.rotation, rotation @ tf.translation + translation))
                   for t, tf in samples] for aid, samples in data.poses.items()}
    frames = {aid: [replace(f, timestamp=f.timestamp + delay) for f in agent_frames]
              for aid, agent_frames in data.frames.items()}
    return replace(data, vector_map={**data.vector_map, "lanelets": lanelets}, poses=poses, frames=frames)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
