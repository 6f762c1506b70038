"""BEV-grid object detection: ground gate, clustering, and box fitting.

The detector segments each point-cloud frame into clusters of obstacle
cells on a bird's-eye-view grid (fixed ground-height gate + 8-connected
components) and fits a minimum-area oriented 3D box to each cluster.

The grid is sparse and holds obstacle cells only: points below the ground
gate are dropped before binning, the remaining points are binned once, and
clustering reads each kept point's cell from that same pass. Labelling runs
on just the bounding box of the obstacle cells.

Boxes are fitted to all clusters of a frame at once, on their points
concatenated into segments. Points strictly inside each cluster's
extreme-point octagon are dropped (Akl & Toussaint, 1978); on a dense frame
that leaves a few hundred of some 16 000 cluster points. The rest are
sorted once, and every cluster's hull comes from one vectorised monotone
chain (Andrew, 1979). Rotating calipers then score every hull edge of every
cluster in one stacked matrix product.

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

from .errors import InvalidArgument
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
    """One LiDAR frame: its capture time and (N, 3) points in the sensor frame."""

    timestamp: float
    points: np.ndarray
    agent_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
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


def cluster_points(grid: BevGrid, frame: PointCloudFrame, config: DetectionConfig) -> list[np.ndarray]:
    """Group the grid's obstacle cells into clusters by 8-connected components.

    Returns each cluster's (n, 3) points: the kept points of its cells, in
    frame order; ground points sharing a cell with an obstacle never reach
    it. Clusters smaller than min_cluster_points are dropped.
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
    return [m for m in members if len(m) >= config.min_cluster_points]


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


def _octagon_interior(x: np.ndarray, y: np.ndarray, seg: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the points strictly inside their segment's extreme-point octagon.

    The octagon's corners are the first points of least and greatest x, y,
    x + y and y - x. They are points of the segment, so a point strictly
    inside the octagon is no hull vertex (Akl & Toussaint, 1978).
    """
    n = len(x)
    starts = np.cumsum(sizes) - sizes
    keys = np.stack([x, y, x + y, y - x])
    lo, hi = (
        np.minimum.reduceat(np.where(keys == np.repeat(best.reduceat(keys, starts, axis=1), sizes, axis=1),
                                     np.arange(n), n), starts, axis=1)
        for best in (np.minimum, np.maximum)
    )
    # counter-clockwise from the lowest: directions -y, x - y, x, x + y, y, y - x, -x, -x - y
    corner = np.stack([lo[1], lo[3], hi[0], hi[2], hi[1], hi[3], lo[0], lo[2]])
    cx, cy = x[corner], y[corner]

    # fast path, exact in floating point: in every direction, one of the four
    # diagonal corners lies at least as far out as a point strictly inside
    # the box they bound
    box = np.stack([np.maximum(cx[5], cx[7]), np.minimum(cx[1], cx[3]), np.maximum(cy[7], cy[1]), np.minimum(cy[3], cy[5])])
    left, right, bottom, top = np.repeat(box, sizes, axis=1)
    inside = (left < x) & (x < right) & (bottom < y) & (y < top)

    # the rest against the octagon's edges: a point's cross product with edge
    # k, ex * y - ey * x - (ex * cy - ey * cx), must clear a margin far above
    # its rounding error; zero-length edges are skipped
    rest = np.flatnonzero(~inside)
    ex, ey = np.roll(cx, -1, axis=0) - cx, np.roll(cy, -1, axis=0) - cy
    bound = ex * cy - ey * cx + 1e-12 * (np.abs(ex) + np.abs(ey)) * max(np.abs(x).max(), np.abs(y).max())
    flat = (ex == 0) & (ey == 0)
    bound[flat] = -1.0                  # a zero-length edge passes every point
    bound[0, flat.all(axis=0)] = 1.0    # and a single-point octagon none
    s, px, py = seg[rest], x[rest], y[rest]
    inside[rest] = np.all(ex[:, s] * py - ey[:, s] * px > bound[:, s], axis=0)
    return inside


def _chain(x: np.ndarray, y: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Positions that Andrew's monotone chain keeps, run on every group at once.

    Each pass drops every point that is no strict left turn between its
    neighbours in the same group; passes repeat until none is dropped. The
    ends of each group always stay.
    """
    pos = np.arange(len(x))
    while len(pos) > 2:
        cross = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
        drop = (cross <= 0) & (group[:-2] == group[2:])
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        x, y, group, pos = x[keep], y[keep], group[keep], pos[keep]
    return pos


def convex_hulls(xy: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex hulls of consecutive segments of (N, 2) points, all in one pass.

    There is at least one segment; segment s is the next sizes[s] >= 1
    points. Points strictly inside a segment's octagon are dropped first;
    the rest are sorted by segment, x and y, and one monotone chain run
    (Andrew, 1979) gives every segment's lower and upper chains. Returns the
    stacked (T, 2) hull vertices and each segment's vertex count. Each hull
    runs counter-clockwise from its lowest, then leftmost, vertex. Collinear
    and repeated points are no vertices, so a segment whose points are all
    collinear has two and one whose points are all equal has one.
    """
    n_seg = len(sizes)
    x, y = np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1])
    seg = np.repeat(np.arange(n_seg), sizes)
    outer = ~_octagon_interior(x, y, seg, sizes)
    x, y, seg = x[outer], y[outer], seg[outer]

    # sorted, with repeated points dropped: a chain pass may drop a vertex only
    # for a neighbour that is another point
    order = np.lexsort((y, x, seg))
    xs, ys, ss = x[order], y[order], seg[order]
    order = order[np.concatenate(([True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]) | (ss[1:] != ss[:-1])))]
    counts = np.bincount(seg[order], minlength=n_seg)
    first = np.cumsum(counts) - counts
    # each segment's points left to right (its lower chain), then right to
    # left (its upper chain); group 2s is segment s's lower chain, 2s + 1 its upper
    group = np.repeat(np.arange(2 * n_seg), np.repeat(counts, 2))
    j = np.arange(len(group)) - np.repeat(2 * first, 2 * counts)
    n = np.repeat(counts, 2 * counts)
    walk = order[np.repeat(first, 2 * counts) + np.where(j < n, j, 2 * n - 1 - j)]
    kept = _chain(x[walk], y[walk], group)
    g = group[kept]
    # the upper chain's ends are the lower chain's
    end = np.concatenate(([True], g[1:] != g[:-1])) | np.concatenate((g[:-1] != g[1:], [True]))
    verts = walk[kept[~(end & (g % 2 == 1))]]
    vseg = seg[verts]

    # re-root each hull at its lowest, then leftmost, vertex
    counts = np.bincount(vseg, minlength=n_seg)
    first = np.cumsum(counts) - counts
    root = np.lexsort((x[verts], y[verts], vseg))[first] - first
    k = np.arange(len(verts)) - np.repeat(first, counts)
    verts = verts[np.repeat(first, counts) + (k + np.repeat(root, counts)) % np.repeat(counts, counts)]
    return np.stack([x[verts], y[verts]], axis=1), counts


def min_area_rects(hulls: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-area enclosing rectangles of K convex polygons (rotating calipers).

    `hulls` stacks the polygons' (T, 2) vertices, `counts` gives each
    one's count. The least rectangle has a side on a hull edge (Freeman &
    Shapira, 1975): every polygon, padded to the longest by repeating its
    last vertex, is projected onto all its edge frames in one stacked matrix
    product, and its first edge of least area wins; edges shorter than 1e-12
    are skipped. Returns (centers, extents, angles, areas): extents are the
    side lengths along the angle direction, which lies in (-pi, pi], and its
    perpendicular; the area is inf where a polygon has no edge.
    """
    k_count, m = len(counts), int(counts.max())
    j = np.arange(m)
    first = (np.cumsum(counts) - counts)[:, None]
    vert = hulls[first + np.minimum(j, counts[:, None] - 1)]       # (K, m, 2)
    edge = hulls[first + (j + 1) % counts[:, None]] - vert
    angle = np.arctan2(edge[:, :, 1], edge[:, :, 0])
    c, s = np.cos(angle), np.sin(angle)

    # column pair k of a polygon's frames is edge k's rotation: its edge becomes
    # +x; matmul, not x * c + y * s, which rounds differently from the BLAS kernel
    frames = np.stack([c, -s, s, c], axis=-1).reshape(k_count, m, 2, 2).transpose(0, 2, 1, 3).reshape(k_count, 2, 2 * m)
    proj = (vert @ frames).reshape(k_count, m, m, 2)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    extents = hi - lo
    area = extents[:, :, 0] * extents[:, :, 1]
    area[(j >= counts[:, None]) | (np.hypot(edge[:, :, 0], edge[:, :, 1]) < 1e-12)] = np.inf
    rows = np.arange(k_count)
    best = np.argmin(area, axis=1)
    cb, sb = c[rows, best], s[rows, best]
    # back to the map frame; matmul rounds each rotation's transposed view
    # differently from the same matrix stored C-ordered, so the center keeps this layout
    rot = np.stack([cb, sb, -sb, cb], axis=-1).reshape(k_count, 2, 2)
    mid = (lo[rows, best] + hi[rows, best]) / 2.0
    center = (rot.transpose(0, 2, 1) @ mid[:, :, None])[:, :, 0]
    return center, extents[rows, best], wrap_angle(angle[rows, best]), area[rows, best]


def fit_boxes(clusters: list[np.ndarray], config: DetectionConfig) -> list[OrientedBox]:
    """Fit a minimum-area oriented box to every cluster of a frame in one pass.

    A box's footprint is the rotating-calipers rectangle of its cluster's
    projected hull; the heading lies along its long side, with an arbitrary
    sign; height spans min to max point z. Degenerate clusters give no box:
    fewer than 3 points, all collinear or repeated, or a zero-area footprint.
    The boxes keep the order of their clusters.
    """
    sizes = np.array([len(c) for c in clusters], dtype=int)
    use = np.flatnonzero(sizes >= 3)
    if len(use) == 0:
        return []
    pts = np.concatenate([clusters[i] for i in use])
    sizes = sizes[use]
    starts = np.cumsum(sizes) - sizes

    hulls, counts = convex_hulls(pts[:, :2], sizes)
    polygon = counts >= 3
    if not polygon.any():
        return []
    center, extents, angle, area = min_area_rects(hulls[np.repeat(polygon, counts)], counts[polygon])
    ok = np.isfinite(area) & (area >= 1e-15)

    fit = np.flatnonzero(polygon)[ok]
    center, extents, angle = center[ok], extents[ok], angle[ok]
    z_min = np.minimum.reduceat(pts[:, 2], starts)[fit]
    z_max = np.maximum.reduceat(pts[:, 2], starts)[fit]
    swap = extents[:, 0] < extents[:, 1]
    heading = wrap_angle(np.where(swap, angle + math.pi / 2.0, angle))
    length = np.where(swap, extents[:, 1], extents[:, 0])
    width = np.where(swap, extents[:, 0], extents[:, 1])
    rows = zip(
        center[:, 0].tolist(),
        center[:, 1].tolist(),
        ((z_min + z_max) / 2.0).tolist(),
        np.maximum(length, 1e-6).tolist(),
        np.maximum(width, 1e-6).tolist(),
        np.maximum(z_max - z_min, config.min_box_height).tolist(),
        heading.tolist(),
        np.minimum(1.0, sizes[fit] / config.confidence_saturation).tolist(),
    )
    return [OrientedBox(*row) for row in rows]


def detect_objects(frame: PointCloudFrame, config: DetectionConfig | None = None) -> list[OrientedBox]:
    """Full per-frame detector: grid features, clustering, box fitting."""
    config = config or DetectionConfig()
    grid = bev_grid_features(frame, config)
    return fit_boxes(cluster_points(grid, frame, config), config)
