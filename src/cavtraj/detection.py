"""BEV-grid object detection: cell features, clustering, and box fitting.

The detector segments each point-cloud frame into clusters of obstacle
cells on a bird's-eye-view grid (fixed ground-height gate + 8-connected
components) and fits a minimum-area oriented 3D box to each cluster.

The grid is sparse: it keeps statistics for the occupied cells only, and
clustering labels just the bounding box of the obstacle cells. The dense
8-channel feature array is built on demand by `BevGrid.features`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateGeometry, InvalidArgument
from .geometry import wrap_angle

# feature plane indices, in the order the grid stores them
F_MAX_HEIGHT = 0
F_TOP_INTENSITY = 1
F_MEAN_HEIGHT = 2
F_MEAN_INTENSITY = 3
F_COUNT = 4
F_ANGLE = 5
F_DISTANCE = 6
F_OCCUPANCY = 7


@dataclass
class DetectionConfig:
    cell_size: float = 0.2
    extent: float = 80.0            # grid covers [-extent, extent] in x and y
    ground_height: float = 0.3      # cells whose max height is below this are ground
    min_cluster_points: int = 10
    min_box_height: float = 0.1
    confidence_saturation: int = 100

    def __post_init__(self):
        if self.cell_size <= 0 or self.extent <= 0:
            raise InvalidArgument("cell_size and extent must be positive")


@dataclass
class PointCloudFrame:
    """One LiDAR frame: (N, 3) points plus per-point intensity."""

    timestamp: float
    points: np.ndarray
    intensities: np.ndarray
    agent_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.intensities = np.asarray(self.intensities, dtype=float).reshape(-1)
        if len(self.intensities) != len(self.points):
            raise InvalidArgument("points and intensities length mismatch")
        if not math.isfinite(self.timestamp):
            raise InvalidArgument("non-finite timestamp")
        if self.points.size and not np.all(np.isfinite(self.points)):
            raise InvalidArgument("non-finite point coordinates")

    def __len__(self):
        return len(self.points)


@dataclass
class BevGrid:
    """Sparse bird's-eye-view grid: statistics of the occupied cells only.

    `cells` holds the sorted flat ids (i * n + j) of the K occupied cells and
    `stats` is (K, 5): max height, intensity of the highest point, mean
    height, mean intensity, point count. `features` expands them into the
    dense (n, n, 8) channel array, adding the angle and distance of each cell
    center and the occupancy flag.
    """

    cell_size: float
    extent: float
    cells: np.ndarray
    stats: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = int(round(2 * self.extent / self.cell_size))
        return n, n

    @property
    def features(self) -> np.ndarray:
        n = self.shape[0]
        feats = np.zeros((n, n, 8))
        c = self.cell_center(np.arange(n))
        feats[:, :, F_ANGLE] = np.arctan2(c[None, :], c[:, None])
        feats[:, :, F_DISTANCE] = np.hypot(c[:, None], c[None, :])
        flat = feats.reshape(n * n, 8)
        flat[self.cells, :F_ANGLE] = self.stats
        flat[self.cells, F_OCCUPANCY] = 1.0
        return feats

    def cell_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map xy coordinates to integer cell indices; mask marks in-bounds points."""
        n = self.shape[0]
        idx = np.floor((points[:, :2] + self.extent) / self.cell_size).astype(int)
        mask = np.all((idx >= 0) & (idx < n), axis=1)
        return idx, mask

    def cell_center(self, ij: np.ndarray) -> np.ndarray:
        return (np.asarray(ij) + 0.5) * self.cell_size - self.extent


def bev_grid_features(frame: PointCloudFrame, config: DetectionConfig) -> BevGrid:
    """Compute the per-cell statistics of the occupied cells of one frame."""
    grid = BevGrid(config.cell_size, config.extent, np.zeros(0, dtype=int), np.zeros((0, 5)))
    n = grid.shape[0]
    idx, mask = grid.cell_indices(frame.points)
    if not mask.any():
        return grid
    z = frame.points[mask, 2]
    inten = frame.intensities[mask]
    flat = idx[mask, 0] * n + idx[mask, 1]

    # one sort by (cell, z): each cell is a run whose last point is the highest
    order = np.lexsort((z, flat))
    flat, z, inten = flat[order], z[order], inten[order]
    start = np.r_[0, np.flatnonzero(np.diff(flat)) + 1]
    last = np.r_[start[1:], len(flat)] - 1
    counts = np.diff(np.r_[start, len(flat)])
    stats = np.c_[
        z[last],
        inten[last],
        np.add.reduceat(z, start) / counts,
        np.add.reduceat(inten, start) / counts,
        counts,
    ]
    return BevGrid(config.cell_size, config.extent, flat[start], stats)


@dataclass
class Cluster:
    """Connected group of obstacle points from one frame."""

    points: np.ndarray
    agent_id: int
    timestamp: float

    def __len__(self):
        return len(self.points)


def cluster_points(grid: BevGrid, frame: PointCloudFrame, config: DetectionConfig) -> list[Cluster]:
    """Group obstacle cells into clusters by 8-connected components.

    Cells are obstacle candidates when occupied and their max height clears
    the ground-height gate; clusters smaller than min_cluster_points are
    dropped.
    """
    n = grid.shape[0]
    cells = grid.cells[grid.stats[:, F_MAX_HEIGHT] >= config.ground_height]
    if len(cells) == 0:
        return []

    # label only the bounding box of the obstacle cells; raster order, and so
    # the label numbering, is the same as on the full grid
    ci, cj = np.divmod(cells, n)
    i0, j0 = ci.min(), cj.min()
    obstacle = np.zeros((ci.max() - i0 + 1, cj.max() - j0 + 1), dtype=bool)
    obstacle[ci - i0, cj - j0] = True
    labels, n_labels = ndimage.label(obstacle, structure=np.ones((3, 3), dtype=int))
    cell_label = labels[ci - i0, cj - j0]

    # keep only obstacle points, not road surface hits sharing the cell; every
    # such point lies in an obstacle cell
    idx, mask = grid.cell_indices(frame.points)
    keep = np.flatnonzero(mask & (frame.points[:, 2] >= config.ground_height))
    point_label = cell_label[np.searchsorted(cells, idx[keep, 0] * n + idx[keep, 1])]

    order = np.argsort(point_label, kind="stable")
    bounds = np.cumsum(np.bincount(point_label, minlength=n_labels + 1)[1:-1])
    members = np.split(frame.points[keep[order]], bounds)
    return [
        Cluster(m, frame.agent_id, frame.timestamp)
        for m in members
        if len(m) >= config.min_cluster_points
    ]


def convex_hull(points2d) -> np.ndarray:
    """Qhull convex hull; vertices counter-clockwise from the lowest, then leftmost, one."""
    pts = np.asarray(points2d, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise DegenerateGeometry("convex hull needs at least 3 points")
    try:
        vertices = ConvexHull(pts).vertices
    except QhullError:
        raise DegenerateGeometry("all points are identical or collinear") from None
    hull = pts[vertices]
    start = np.lexsort((hull[:, 0], hull[:, 1]))[0]
    return np.roll(hull, -start, axis=0)


def min_area_rect(hull: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-area enclosing rectangle of a convex polygon (rotating calipers).

    Returns (center, extents, angle): extents are the side lengths along the
    angle direction and its perpendicular.
    """
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or len(hull) < 3:
        raise DegenerateGeometry("min_area_rect needs a polygon with >= 3 vertices")

    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(lengths < 1e-12):
        edges = edges[lengths >= 1e-12]
        if len(edges) == 0:
            raise DegenerateGeometry("degenerate polygon")
    angles = np.arctan2(edges[:, 1], edges[:, 0])

    best = None
    for ang in angles:
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, s], [-s, c]])  # rotate by -ang: edge becomes +x
        proj = hull @ rot.T
        lo, hi = proj.min(axis=0), proj.max(axis=0)
        area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        if best is None or area < best[0]:
            center_local = (lo + hi) / 2.0
            best = (area, rot.T @ center_local, hi - lo, ang)

    if best is None or best[2][0] * best[2][1] < 1e-15:
        raise DegenerateGeometry("polygon has zero area")
    _, center, extents, angle = best
    return center, extents, wrap_angle(angle)


@dataclass(frozen=True)
class OrientedBox:
    """Upright oriented 3D box; heading points along the length axis."""

    x: float
    y: float
    z: float
    length: float
    width: float
    height: float
    heading: float
    confidence: float = 1.0

    def __post_init__(self):
        if not (self.length >= self.width > 0 and self.height > 0):
            raise InvalidArgument(
                f"box dims must satisfy l >= w > 0, h > 0: "
                f"l={self.length} w={self.width} h={self.height}"
            )
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidArgument(f"confidence must be in [0, 1]: {self.confidence}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def footprint(self) -> np.ndarray:
        """BEV corner polygon (4, 2), counter-clockwise."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        axis_l = np.array([c, s])
        axis_w = np.array([-s, c])
        half_l, half_w = self.length / 2.0, self.width / 2.0
        center = np.array([self.x, self.y])
        return np.array(
            [
                center + half_l * axis_l + half_w * axis_w,
                center - half_l * axis_l + half_w * axis_w,
                center - half_l * axis_l - half_w * axis_w,
                center + half_l * axis_l - half_w * axis_w,
            ]
        )

    def corners3d(self) -> np.ndarray:
        """(8, 3) corners: footprint at bottom height then top height."""
        foot = self.footprint()
        z_lo = self.z - self.height / 2.0
        z_hi = self.z + self.height / 2.0
        bottom = np.c_[foot, np.full(4, z_lo)]
        top = np.c_[foot, np.full(4, z_hi)]
        return np.vstack([bottom, top])

    def contains_bev(self, points: np.ndarray, inflation: float = 0.0) -> np.ndarray:
        """Mask of points whose xy falls inside the (inflated) footprint."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        c, s = math.cos(self.heading), math.sin(self.heading)
        dx = pts[:, 0] - self.x
        dy = pts[:, 1] - self.y
        along = dx * c + dy * s
        across = -dx * s + dy * c
        return (np.abs(along) <= self.length / 2.0 + inflation) & (
            np.abs(across) <= self.width / 2.0 + inflation
        )


def _dominant_direction(hull: np.ndarray) -> np.ndarray:
    """Direction supported by the three extremal hull vertices.

    Takes the most-distant vertex pair (hull diameter) plus the vertex
    farthest from their line; returns the direction of the longest side of
    that triangle.
    """
    d = hull[:, None, :] - hull[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", d, d)
    i, j = np.unravel_index(np.argmax(dist2), dist2.shape)
    p1, p2 = hull[i], hull[j]
    chord = p2 - p1
    chord_len = np.linalg.norm(chord)
    offsets = hull - p1
    lateral = np.abs(offsets[:, 0] * chord[1] - offsets[:, 1] * chord[0]) / max(chord_len, 1e-12)
    p3 = hull[int(np.argmax(lateral))]
    sides = [(p2 - p1), (p3 - p1), (p3 - p2)]
    return max(sides, key=np.linalg.norm)


def fit_bounding_box(cluster: Cluster, config: DetectionConfig | None = None) -> OrientedBox:
    """Fit a minimum-area oriented box to a cluster.

    The footprint comes from the rotating-calipers rectangle of the
    projected hull; the heading is the rectangle axis better aligned with
    the three-extremal-point direction; height spans min to max point z.
    """
    config = config or DetectionConfig()
    if len(cluster) < 3:
        raise DegenerateGeometry("cluster too small to fit a box")
    pts = cluster.points

    hull = convex_hull(pts[:, :2])
    center2d, extents, angle = min_area_rect(hull)

    target = _dominant_direction(hull)
    target_ang = math.atan2(target[1], target[0])
    # pick the rectangle axis (angle or angle + pi/2) closer to the target direction mod pi
    cand = [(angle, extents[0], extents[1]), (angle + math.pi / 2.0, extents[1], extents[0])]
    def axis_mismatch(a):
        d = abs(wrap_angle(a - target_ang))
        return min(d, math.pi - d)
    heading, length, width = min(cand, key=lambda c: axis_mismatch(c[0]))
    if length < width:
        # near-square footprint where the heuristic picked the short axis;
        # keep the l >= w contract and rotate the heading a quarter turn
        heading += math.pi / 2.0
        length, width = width, length

    z_min, z_max = pts[:, 2].min(), pts[:, 2].max()
    height = max(z_max - z_min, config.min_box_height)
    confidence = min(1.0, len(cluster) / config.confidence_saturation)
    return OrientedBox(
        x=float(center2d[0]),
        y=float(center2d[1]),
        z=float((z_min + z_max) / 2.0),
        length=float(max(length, 1e-6)),
        width=float(max(width, 1e-6)),
        height=float(height),
        heading=float(wrap_angle(heading)),
        confidence=float(confidence),
    )


def detect_objects(frame: PointCloudFrame, config: DetectionConfig | None = None) -> list[OrientedBox]:
    """Full per-frame detector: grid features, clustering, box fitting."""
    config = config or DetectionConfig()
    grid = bev_grid_features(frame, config)
    boxes = []
    for cluster in cluster_points(grid, frame, config):
        try:
            boxes.append(fit_bounding_box(cluster, config))
        except DegenerateGeometry:
            continue
    return boxes
