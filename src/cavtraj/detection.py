"""BEV-grid object detection: ground gate, clustering, and box fitting.

The detector segments each point-cloud frame into clusters of obstacle
cells on a bird's-eye-view grid (fixed ground-height gate + 8-connected
components) and fits a minimum-area oriented 3D box to each cluster.

The grid is sparse and holds obstacle cells only: points below the ground
gate are dropped before binning, the remaining points are binned once, and
clustering reads each kept point's cell from that same pass. Labelling runs
on just the bounding box of the obstacle cells.

A box's heading lies along the long side of its footprint; its sign is
arbitrary (a box and its half-turn are the same box). Later stages treat it
that way: BEV IoU does not depend on it, and the tracker aligns it to the
track's heading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateGeometry, InvalidArgument
from .geometry import wrap_angle

@dataclass
class DetectionConfig:
    cell_size: float = 0.2
    extent: float = 80.0            # grid covers [-extent, extent] in x and y
    ground_height: float = 0.3      # points below this height are ground
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
    """Sparse bird's-eye-view grid of the obstacle cells of one frame.

    Only points at or above the ground-height gate are binned. `cells` holds
    the sorted flat ids (i * n + j) of the K cells such points fall in,
    `kept` the frame indices of those points that fall on the grid, in frame
    order, and `kept_cell` each kept point's index into `cells`.
    """

    cell_size: float
    extent: float
    cells: np.ndarray
    kept: np.ndarray
    kept_cell: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = int(round(2 * self.extent / self.cell_size))
        return n, n

    def cell_indices(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map xy coordinates to integer cell indices; mask marks in-bounds points."""
        n = self.shape[0]
        idx = np.floor((points[:, :2] + self.extent) / self.cell_size).astype(int)
        mask = np.all((idx >= 0) & (idx < n), axis=1)
        return idx, mask


def bev_grid_features(frame: PointCloudFrame, config: DetectionConfig) -> BevGrid:
    """Bin the points that clear the ground gate; list the cells they fall in.

    A cell is listed exactly when an in-bounds point with z >= ground_height
    falls in it; points off the grid are dropped.
    """
    empty = np.zeros(0, dtype=int)
    grid = BevGrid(config.cell_size, config.extent, empty, empty, empty)
    above = np.flatnonzero(frame.points[:, 2] >= config.ground_height)
    idx, mask = grid.cell_indices(frame.points[above])
    grid.kept = above[mask]
    grid.cells, grid.kept_cell = np.unique(idx[mask, 0] * grid.shape[0] + idx[mask, 1], return_inverse=True)
    return grid


@dataclass
class Cluster:
    """Connected group of obstacle points from one frame."""

    points: np.ndarray
    agent_id: int
    timestamp: float

    def __len__(self):
        return len(self.points)


def cluster_points(grid: BevGrid, frame: PointCloudFrame, config: DetectionConfig) -> list[Cluster]:
    """Group the grid's obstacle cells into clusters by 8-connected components.

    A cluster holds the kept points of its cells, in frame order; ground
    points sharing a cell with an obstacle never reach it. Clusters smaller
    than min_cluster_points are dropped.
    """
    if len(grid.cells) == 0:
        return []

    # label only the bounding box of the obstacle cells; raster order, and so
    # the label numbering, is the same as on the full grid
    ci, cj = np.divmod(grid.cells, grid.shape[0])
    i0, j0 = ci.min(), cj.min()
    obstacle = np.zeros((ci.max() - i0 + 1, cj.max() - j0 + 1), dtype=bool)
    obstacle[ci - i0, cj - j0] = True
    labels, n_labels = ndimage.label(obstacle, structure=np.ones((3, 3), dtype=int))
    point_label = labels[ci - i0, cj - j0][grid.kept_cell]

    order = np.argsort(point_label, kind="stable")
    bounds = np.cumsum(np.bincount(point_label, minlength=n_labels + 1)[1:-1])
    members = np.split(frame.points[grid.kept[order]], bounds)
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

    The least rectangle has a side on a hull edge (Freeman & Shapira, 1975),
    so the hull is projected onto every edge frame in one matrix product and
    the first edge of least area wins. Returns (center, extents, angle):
    extents are the side lengths along the angle direction and its
    perpendicular.
    """
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or len(hull) < 3:
        raise DegenerateGeometry("min_area_rect needs a polygon with >= 3 vertices")

    edges = np.roll(hull, -1, axis=0) - hull
    edges = edges[np.hypot(edges[:, 0], edges[:, 1]) >= 1e-12]
    if len(edges) == 0:
        raise DegenerateGeometry("degenerate polygon")
    angles = np.arctan2(edges[:, 1], edges[:, 0])

    # column pair k is edge k's frame rotation: its edge becomes +x
    c, s = np.cos(angles), np.sin(angles)
    proj = (hull @ np.stack([np.c_[c, -s], np.c_[s, c]]).reshape(2, -1)).reshape(len(hull), -1, 2)
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    extents = hi - lo
    area = extents[:, 0] * extents[:, 1]
    k = int(np.argmin(area))
    if area[k] < 1e-15:
        raise DegenerateGeometry("polygon has zero area")
    # back to the map frame; matmul rounds this transposed view differently
    # from the same matrix stored C-ordered, so the center keeps this layout
    rot = np.array([[c[k], s[k]], [-s[k], c[k]]])
    return rot.T @ ((lo[k] + hi[k]) / 2.0), extents[k], wrap_angle(angles[k])


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


def fit_bounding_box(cluster: Cluster, config: DetectionConfig | None = None) -> OrientedBox:
    """Fit a minimum-area oriented box to a cluster.

    The footprint is the rotating-calipers rectangle of the projected hull;
    the heading lies along its long side, with an arbitrary sign; height
    spans min to max point z.
    """
    config = config or DetectionConfig()
    if len(cluster) < 3:
        raise DegenerateGeometry("cluster too small to fit a box")
    pts = cluster.points

    center2d, (length, width), heading = min_area_rect(convex_hull(pts[:, :2]))
    if length < width:
        heading, length, width = heading + math.pi / 2.0, width, length

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
