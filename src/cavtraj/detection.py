"""Range-image object detection: ground gate, clustering, and box fitting.

The detector keeps each frame's obstacle points (z at or above a fixed
ground-height gate, within the extent), links them into clusters by
range-adaptive single linkage, and fits a minimum-area oriented 3D box to
each cluster.

LiDAR returns thin out with range, so two points link when they lie within
`link_angle * r` of each other, r being the range from the sensor, floored
at `1.5 * cell_size` near it. The points are binned once on a log-polar
range image (Bogoslavskyi & Stachniss, IROS 2016): azimuth by ln(range),
bins about `link_angle / 2` wide both ways, floored at `cell_size` near the
sensor, the azimuth wrapped. A bin links to a bin within two steps only
when the bounding boxes of their points lie within the link distance (the
merge guard, needed because bins are coarser than points); the clusters are
the connected components of those links, found by hook and compress over
the link arrays (Shiloach & Vishkin, 1982) and each labelled by its least
bin. No two linked points end in different clusters; the rules and why they
hold are in `cluster_points`.

Binning sorts the points once by bin key; the grid keeps their x, y and
range in that order, so clustering reads contiguous columns. The keys are
computed in int64 but sorted in the narrowest unsigned type that holds
them: at the default config every key is below 2**16, so the stable sort
is a radix sort. Candidate bins are found in a dense table of bin slots,
one int32 per possible key; `cluster_points` states its size.

A cluster is the array of its frame rows. Boxes are fitted to all clusters
of a frame at once: their rows are joined once, and x, y and z gathered
from the frame's columns hold every cluster as a segment. Points strictly
inside each cluster's extreme-point octagon are dropped (Akl & Toussaint,
1978); on a dense frame that leaves a few hundred of some 16 000 cluster
points. The rest are sorted once, and every cluster's hull comes from one
vectorised monotone chain (Andrew, 1979). Rotating calipers then score
every hull edge of every cluster in one stacked matrix product.

No per-frame temporary of the fit holds more than one float64 column of the
cluster points, bar the calipers' block, which grows with hull sizes: the
fit gathers x, y and z as columns and frees the joined rows and z before
the hull, and clustering hands the fit row indices, not copies of the
points. The octagon's corners are searched in two (4, n) bool blocks, half
a column each: four keys' equalities to their segment extremes, then one
search for every first hit. Its bounds and edges are tested one side and
one edge at a time. Blocks of several columns (0.4-0.5 MiB each at 16 000
points) made glibc trim the heap after every dense frame and fault it back
in on the next: 170-540 minor page faults and about 1 ms of system time per
`freeway_baseline` frame, against 0-20 under this rule. On small frames the
NumPy calls, not the points, set detection's time, so passes of one shape
share a call where this rule allows, and no pass runs whose result is
known.

A box's heading lies along the long side of its footprint; its sign is
arbitrary (a box and its half-turn are the same box). Later stages treat it
that way: BEV IoU does not depend on it, and the tracker does not read it (a
track's heading is the direction of its estimated velocity).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InvalidArgument, check_number
from .geometry import wrap_angle

_MIN_BOX_HEIGHT = 0.1               # m, the height of a box fitted to a flat cluster
_CONFIDENCE_SATURATION = 100        # points; a box's confidence is min(1, points / this)
_INF = math.inf


@dataclass
class DetectionConfig:
    cell_size: float = 0.2          # m, the range image's finest bin, near the sensor
    extent: float = 80.0            # points beyond [-extent, extent] in x or y are dropped
    ground_height: float = 0.3      # points below this height are ground
    min_cluster_points: int = 10
    link_angle: float = 0.045       # rad, obstacle points link within link_angle * range

    def __post_init__(self):
        for name in ("cell_size", "extent", "link_angle"):
            check_number(getattr(self, name), name, positive=True)
        check_number(self.ground_height, "ground_height")
        check_number(self.min_cluster_points, "min_cluster_points", least=1, integer=True)


@dataclass
class PointCloudFrame:
    """One LiDAR frame: its capture time and (N, 3) points in the sensor frame; [] is (0, 3)."""

    timestamp: float
    points: np.ndarray
    agent_id: int = 0

    def __post_init__(self):
        try:
            points = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"points are not an array of numbers: {exc}") from None
        if points.shape != (0,) and (points.ndim != 2 or points.shape[1] != 3):
            raise InvalidArgument(f"points must have shape (N, 3), got {points.shape}")
        self.points = points.reshape(-1, 3)
        check_number(self.timestamp, "timestamp")
        check_number(self.agent_id, "agent_id", integer=True)
        if self.points.size and not np.all(np.isfinite(self.points)):
            raise InvalidArgument("non-finite point coordinates")

    def __len__(self):
        return len(self.points)


@dataclass
class BevGrid:
    """Sparse log-polar range image of the obstacle points of one frame.

    `kept` holds the frame indices of the points at or above the ground gate
    and within the extent, ordered by bin and, within a bin, by frame order;
    `x`, `y` and `r` hold those points' coordinates and xy range, sorted the
    same way. `keys` holds the sorted int64 keys ring * stride + sector of
    the K occupied bins, `starts` each bin's first position in `kept`, and
    `sectors` the sector count of every ring up to the outermost occupied
    one, a read-only view of a table shared by every grid of the same
    (cell_size, link_angle, extent); the stride is the largest sector count,
    so every key is below len(sectors) * stride. The points are sorted on
    their keys cast to the narrowest unsigned type below that bound: uint16
    at the default config (44 082 keys at most), uint32 for a finer
    `link_angle` (172 072 at 0.02).
    """

    kept: np.ndarray
    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    sectors: np.ndarray


def _bearing(x: np.ndarray) -> np.ndarray:
    """Largest angle at the sensor between two points q, p with |p - q| <= x * |p|."""
    return np.where(x < 1.0, np.arcsin(np.minimum(x, 1.0)), math.pi)


def _rings(r: np.ndarray, config: DetectionConfig) -> np.ndarray:
    """Ring of each range: cell_size wide up to r0 = 2 cell_size / link_angle, then link_angle / 2 in ln(range)."""
    h = config.link_angle / 2.0
    r0 = config.cell_size / h
    s = np.where(r < r0, r / config.cell_size, (1.0 + np.log(np.maximum(r, r0) / r0)) / h)
    return np.floor(s).astype(np.int64)


def _sector_counts(n_rings: int, config: DetectionConfig) -> np.ndarray:
    """Azimuth sectors of rings 0 .. n_rings - 1 (see the range image in `cluster_points`).

    Ring k inside r0 has inner radius k * cell_size, so a link reaching it
    spans at most _bearing(max(link_angle, 1.5 / k)).
    """
    k = np.arange(n_rings)
    with np.errstate(divide="ignore"):
        near = np.floor(3.0 * math.pi / _bearing(np.maximum(config.link_angle, 1.5 / k))).astype(np.int64)
    far = math.floor(4.0 * math.pi / _bearing(config.link_angle))
    return np.where(k * config.link_angle / 2.0 < 1.0, near, far)


@functools.lru_cache(maxsize=16)
def _sector_table(cell_size: float, link_angle: float, extent: float) -> np.ndarray:
    """Read-only `_sector_counts` of every ring up to the one of the extent's corner, hypot(extent, extent)."""
    config = DetectionConfig(cell_size=cell_size, extent=extent, link_angle=link_angle)
    table = _sector_counts(int(_rings(np.hypot(extent, extent), config)) + 1, config)
    table.flags.writeable = False
    return table


def bev_grid_features(frame: PointCloudFrame, config: DetectionConfig) -> BevGrid:
    """Bin the obstacle points on the log-polar range image; list the occupied bins.

    A point is kept when z >= ground_height and |x|, |y| <= extent; its bin
    is (ring, sector) of its xy range and azimuth from the sensor. Every
    kept point lies within the extent's corner, so the sector counts are a
    slice of one table per (cell_size, link_angle, extent).
    """
    points = frame.points
    kept = (points[:, 2] >= config.ground_height).nonzero()[0]
    x, y = points[:, 0][kept], points[:, 1][kept]
    inside = np.maximum(np.abs(x), np.abs(y)) <= config.extent
    if not inside.all():
        kept, x, y = kept[inside], x[inside], y[inside]
    r = np.hypot(x, y)
    if not kept.size:
        empty = np.zeros(0, dtype=np.int64)
        return BevGrid(kept, x, y, r, empty, empty, empty)
    ring = _rings(r, config)
    sectors = _sector_table(config.cell_size, config.link_angle, config.extent)[:ring.max() + 1]
    stride = int(sectors[-1])       # sector counts never fall with the ring
    n = sectors[ring]
    sector = np.floor((np.arctan2(y, x) + math.pi) * (n / (2.0 * math.pi))).astype(np.int64)
    sector[sector == n] = 0         # the floor lies in [0, n], so this is sector % n
    key = ring * stride + sector
    # keys below 2**16 sort by radix in uint16, in the same stable order
    order = key.astype(np.min_scalar_type(len(sectors) * stride)).argsort(kind="stable")
    key = key[order]
    starts = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
    return BevGrid(kept[order], x[order], y[order], r[order], key[starts], starts, sectors)


# candidate links of a bin: the next two sectors of its ring, and the five
# sectors around the one under its centre in each of the two inner rings
_RING_STEP = np.array([0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2])
_SECTOR_STEP = np.array([1, 2, -2, -1, 0, 1, 2, -2, -1, 0, 1, 2])


def cluster_points(grid: BevGrid, config: DetectionConfig) -> list[np.ndarray]:
    """Group the obstacle points by range-adaptive single linkage on the range image.

    Two points p, q link when |p - q| <= max(link_angle * min(r_p, r_q),
    1.5 * cell_size), r being the xy range from the sensor. The range image
    makes this cheap and safe:

    - Rings are cell_size wide up to r0 = 2 cell_size / link_angle and
      link_angle / 2 wide in ln(range) beyond, so a linked pair lies at
      most two rings apart.
    - Beyond r0 every ring has the same sectors, each at least
      asin(link_angle) / 2 wide, so a linked pair lies at most two sectors
      apart. Nearer rings have fewer sectors, each at least 2/3 of the
      largest bearing of a link reaching that ring, so the five sectors
      around the one under a bin's centre, in either of the two inner
      rings, hold every linked point; ring 0 is three sectors. This
      near-sensor floor keeps a blob around the sensor in one piece.
    - Every bin is tested against those candidates, and a candidate link is
      kept when the gap between the two bins' xy bounding boxes is at most
      max(link_angle * min(r1, r2), 1.5 * cell_size), with r1, r2 the
      bins' largest ranges. The guard splits neighbouring bins whose points
      are farther apart than a link.
    - The clusters are the connected components of the kept links, the
      points of each bin joined. They are found by hook and compress
      (Shiloach & Vishkin, 1982): each round hooks the larger root of every
      link whose ends have different roots to the smaller, then pointer
      jumping makes every bin point at its root. A root is never hooked
      above itself, so each component ends labelled by its least bin.

    Candidates are looked up in a dense int32 table of bin slots indexed by
    key, len(sectors) * stride entries: at most 2 / link_angle *
    (1 + ln(sqrt(2) * extent / r0)) + 1 rings of 4 pi / asin(link_angle)
    sectors, so it grows as 1 / link_angle**2. At the default config that
    is 44 082 entries (172 KiB) on a frame reaching the extent's corner; at
    link_angle 0.02, 172 072 (672 KiB).

    Guarantee: no two linked points end in different clusters, so every
    cluster is a union of whole components of exact single linkage; a bin
    may join points up to a bin diagonal apart. Returns each cluster's
    frame rows (indices into the frame's points, as views of one array),
    bin by bin and in frame order within a bin; clusters are ordered by
    their first bin, and those smaller than min_cluster_points are dropped.
    """
    keys, starts, sectors = grid.keys, grid.starts, grid.sectors
    n_bins = keys.size
    if n_bins == 0:
        return []
    x_lo, x_hi = np.minimum.reduceat(grid.x, starts), np.maximum.reduceat(grid.x, starts)
    y_lo, y_hi = np.minimum.reduceat(grid.y, starts), np.maximum.reduceat(grid.y, starts)
    # a link's reach, max(link_angle * min(r1, r2), 1.5 * cell_size) squared,
    # is the lesser of its bins' own: each step is monotone, so it rounds alike
    reach = np.maximum(config.link_angle * np.maximum.reduceat(grid.r, starts), 1.5 * config.cell_size)
    reach *= reach

    # candidate bins, all offsets in one lookup; the sector under a bin's centre
    # in a ring of m sectors is floor((sector + 1/2) * m / n), its own for m = n
    stride = int(sectors[-1])
    ring, sector = np.divmod(keys[:, None], stride)
    t_ring = np.maximum(ring - np.arange(3), 0)
    m = sectors[t_ring]
    centre = (2 * sector + 1) * m // (2 * m[:, :1])
    t_sector = centre[:, _RING_STEP] + _SECTOR_STEP
    m = m[:, _RING_STEP]
    # rings have at least 3 sectors, so t_sector lies in [-2, m + 2) and one
    # step wraps it: this is t_sector % m
    np.subtract(t_sector, m, out=t_sector, where=t_sector >= m)
    np.add(t_sector, m, out=t_sector, where=t_sector < 0)
    # every candidate key is below len(sectors) * stride, so a dense table
    # of bin slots (-1 where empty) answers each lookup in one gather
    slot = np.full(len(sectors) * stride, -1, dtype=np.int32)
    slot[keys] = np.arange(n_bins, dtype=np.int32)
    at = slot[(t_ring * stride)[:, _RING_STEP] + t_sector].ravel()
    idx = ((ring >= _RING_STEP).ravel() & (at >= 0)).nonzero()[0]
    a, b = idx // len(_RING_STEP), at[idx].astype(np.intp)     # gathers index faster by intp

    gap_x = np.maximum(0.0, np.maximum(x_lo[b] - x_hi[a], x_lo[a] - x_hi[b]))
    gap_y = np.maximum(0.0, np.maximum(y_lo[b] - y_hi[a], y_lo[a] - y_hi[b]))
    link = gap_x * gap_x + gap_y * gap_y <= np.minimum(reach[a], reach[b])
    label = _least_bin_labels(n_bins, a[link], b[link])

    # expand the bins of each big enough component, in label order
    size = np.concatenate((starts[1:], [grid.kept.size])) - starts
    comp_size = np.bincount(label, weights=size, minlength=n_bins).astype(np.int64)
    big = comp_size >= config.min_cluster_points
    use = big[label].nonzero()[0]
    if not use.size:
        return []
    use = use[label[use].argsort(kind="stable")]
    count = size[use]
    end = count.cumsum()
    rows = grid.kept[(starts[use] - (end - count)).repeat(count) + np.arange(end[-1])]
    ends = comp_size[big].cumsum().tolist()
    return [rows[i:j] for i, j in zip([0] + ends, ends)]


def _least_bin_labels(n_bins: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each bin's component under the links (a[i], b[i]), labelled by the component's least bin.

    Hook and compress: every round hooks the larger root of each link whose
    ends have different roots to the smaller (the least such root wins),
    then `parent = parent[parent]` repeats until every bin points at its
    root. parent[i] <= i throughout, so a root is its tree's least bin; each
    round hooks at least one root, so the loop ends, once both ends of every
    link share a root.
    """
    parent = np.arange(n_bins)
    ra, rb = a, b                       # every bin is its own root so far
    while True:
        split = (ra != rb).nonzero()[0]
        if not split.size:
            return parent
        if split.size < ra.size:        # links whose ends share a root keep sharing it
            a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        ra, rb = parent[a], parent[b]


@dataclass(frozen=True, init=False)
class OrientedBox:
    """Upright oriented 3D box; heading points along the length axis.

    Its constructor is the only way to make a box: `fit_boxes`, `project_box`
    and `dataclasses.replace` all go through it. It raises InvalidArgument
    unless every field is a real number as `check_number` has it (not a
    bool), x, y, z and the heading are finite, l >= w > 0 and h > 0 with l
    and h finite, and the confidence lies in [0, 1]; it stores the heading
    wrapped to (-pi, pi] by `wrap_angle`.
    """

    x: float
    y: float
    z: float
    length: float
    width: float
    height: float
    heading: float
    confidence: float = 1.0

    def __init__(self, x, y, z, length, width, height, heading, confidence=1.0):
        if not (float is type(x) is type(y) is type(z) is type(length) is type(width) is type(height)
                is type(heading) is type(confidence)):
            # ints and NumPy floats pass the rule for every number; bools and non-numbers stop here
            for name, value in zip(("x", "y", "z", "length", "width", "height", "heading", "confidence"),
                                   (x, y, z, length, width, height, heading, confidence)):
                check_number(value, f"box {name}")
        # plain comparisons, not math.isfinite: NaN fails every one and an infinity the strict bounds
        if not (-_INF < x < _INF and -_INF < y < _INF and -_INF < z < _INF and -_INF < heading < _INF):
            raise InvalidArgument(f"box center and heading must be finite: x={x} y={y} z={z} heading={heading}")
        if not (_INF > length >= width > 0 and _INF > height > 0):
            raise InvalidArgument(
                f"box dims must be finite and satisfy l >= w > 0, h > 0: l={length} w={width} h={height}")
        if not 0.0 <= confidence <= 1.0:
            raise InvalidArgument(f"confidence must be in [0, 1]: {confidence}")
        self.__dict__.update(x=x, y=y, z=z, length=length, width=width, height=height,
                             heading=wrap_angle(heading), confidence=confidence)


def _octagon_corners(x: np.ndarray, y: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each segment's first points of least and greatest x, y, x + y and y - x, as (8, K) positions.

    A segment's first point attaining an extreme is the first position of
    that key's equality at or after the segment's start. Rows run
    counter-clockwise from the lowest corner: directions -y, x - y, x, x + y,
    y, y - x, -x, -x - y. The even rows' four equalities are written into one
    (4, n) bool block, then the odd rows', and each block's first hits come
    from one search; no temporary is wider than one float64 column.
    """
    starts = sizes.cumsum() - sizes
    row_at = len(x) * np.arange(4)[:, None]     # each block row's offset in the flat block
    hit = np.empty((4, len(x)), dtype=bool)
    corner = np.empty((8, len(sizes)), dtype=np.int64)
    for half, (u, v) in enumerate(((y, x), (y - x, x + y))):
        for row, (key, best) in enumerate(((u, np.minimum), (v, np.maximum), (u, np.maximum), (v, np.minimum))):
            np.equal(key, best.reduceat(key, starts).repeat(sizes), out=hit[row])
        flat = hit.ravel().nonzero()[0]
        corner[half::2] = flat[flat.searchsorted(starts + row_at)] - row_at
    return corner


def _octagon_interior(x: np.ndarray, y: np.ndarray, seg: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mask of the points strictly inside their segment's extreme-point octagon.

    The octagon's corners are the first points of least and greatest x, y,
    x + y and y - x. They are points of the segment, so a point strictly
    inside the octagon is no hull vertex (Akl & Toussaint, 1978).
    """
    corner = _octagon_corners(x, y, sizes)
    cx, cy = x[corner], y[corner]

    # fast path, exact in floating point: in every direction, one of the four
    # diagonal corners lies at least as far out as a point strictly inside
    # the box they bound; one side at a time, repeated over its segment's points
    inside = np.maximum(cx[5], cx[7]).repeat(sizes) < x
    inside &= x < np.minimum(cx[1], cx[3]).repeat(sizes)
    inside &= np.maximum(cy[7], cy[1]).repeat(sizes) < y
    inside &= y < np.minimum(cy[3], cy[5]).repeat(sizes)

    # the rest against the octagon's edges: a point's cross product with edge
    # k, ex * y - ey * x - (ex * cy - ey * cx), must clear a margin far above
    # its rounding error, scaled by the largest |x| or |y|, which the corners
    # of least and greatest x and y attain; zero-length edges are skipped
    ex, ey = np.concatenate((cx[1:], cx[:1])) - cx, np.concatenate((cy[1:], cy[:1])) - cy
    scale = max(np.abs(cx[2::4]).max(), np.abs(cy[::4]).max())
    bound = ex * cy - ey * cx + 1e-12 * (np.abs(ex) + np.abs(ey)) * scale
    flat = (ex == 0) & (ey == 0)
    bound[flat] = -1.0                  # a zero-length edge passes every point
    bound[0, flat.all(axis=0)] = 1.0    # and a single-point octagon none
    # rest is sorted by segment, so each segment's edges repeat over its run;
    # one edge at a time
    rest = (~inside).nonzero()[0]
    run = np.bincount(seg[rest], minlength=len(sizes))
    xr, yr = x[rest], y[rest]
    clear = ex[0].repeat(run) * yr - ey[0].repeat(run) * xr > bound[0].repeat(run)
    for k in range(1, 8):
        clear &= ex[k].repeat(run) * yr - ey[k].repeat(run) * xr > bound[k].repeat(run)
    inside[rest] = clear
    return inside


def _chain(x: np.ndarray, y: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Positions that Andrew's monotone chain keeps, run on every group at once.

    Each pass drops every point that is no strict left turn between its
    neighbours in the same group; passes repeat until none is dropped. The
    ends of each group always stay.
    """
    pos = np.arange(len(x))
    # a point between two of its own group stays so, and only such a point is dropped
    inner = np.concatenate(([False], group[:-2] == group[2:], [False]))
    while pos.size > 2:
        cross = (x[1:-1] - x[:-2]) * (y[2:] - y[:-2]) - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
        drop = (cross <= 0) & inner[1:-1]
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True])).nonzero()[0]
        x, y, inner, pos = x[keep], y[keep], inner[keep], pos[keep]
    return pos


def convex_hulls(x: np.ndarray, y: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex hulls of consecutive segments of points, all in one pass.

    The points come as two columns, x and y, of the same length. There is
    at least one segment; segment s is the next sizes[s] >= 1 points.
    Points strictly inside a segment's octagon are dropped first; the rest
    are sorted by segment, x and y, and one monotone chain run (Andrew,
    1979) gives every segment's lower and upper chains. Returns the
    stacked (T, 2) hull vertices and each segment's vertex count. Each hull
    runs counter-clockwise from its leftmost, then lowest, vertex, where its
    lower chain starts. Collinear and repeated points are no vertices, so a
    segment whose points are all collinear has two and one whose points are
    all equal has one.
    """
    n_seg = len(sizes)
    seg = np.arange(n_seg).repeat(sizes)
    outer = (~_octagon_interior(x, y, seg, sizes)).nonzero()[0]
    x, y, seg = x[outer], y[outer], seg[outer]

    # sorted, with repeated points dropped: a chain pass may drop a vertex only
    # for a neighbour that is another point
    order = np.lexsort((y, x, seg))
    xs, ys, ss = x[order], y[order], seg[order]
    order = order[np.concatenate(([True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]) | (ss[1:] != ss[:-1])))]
    counts = np.bincount(seg[order], minlength=n_seg)
    first = counts.cumsum() - counts
    # each segment's points left to right (its lower chain), then right to
    # left (its upper chain); group 2s is segment s's lower chain, 2s + 1 its
    # upper. Walk step t of segment s takes its point min(t - f, 3f + 2c - 1 - t)
    # in sorted order, f being the segment's first and c its count
    twice = 2 * counts
    group = np.arange(2 * n_seg).repeat(counts.repeat(2))
    t = np.arange(group.size)
    walk = order[np.minimum(t - first.repeat(twice), (3 * first + twice - 1).repeat(twice) - t)]
    kept = _chain(x[walk], y[walk], group)
    g = group[kept]
    # the upper chain's ends are the lower chain's
    change = g[1:] != g[:-1]
    end = np.concatenate(([True], change)) | np.concatenate((change, [True]))
    verts = walk[kept[~(end & (g % 2 == 1))]]
    hulls = np.empty((verts.size, 2))
    hulls[:, 0], hulls[:, 1] = x[verts], y[verts]
    return hulls, np.bincount(seg[verts], minlength=n_seg)


def min_area_rects(hulls: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-area enclosing rectangles of K convex polygons (rotating calipers).

    `hulls` stacks the polygons' (T, 2) vertices, `counts` gives each
    one's count. The least rectangle has a side on a hull edge (Freeman &
    Shapira, 1975): every polygon, padded to the longest by repeating its
    last vertex, is projected onto all its edge frames in one stacked matrix
    product, and its first edge of least area wins; edges shorter than 1e-12
    are skipped. Returns (centers, extents, angles, areas): extents are the
    side lengths along the angle direction, the edge's arctan2 in [-pi, pi],
    and its perpendicular; the area is inf where a polygon has no edge.
    """
    k_count, m = len(counts), int(counts.max())
    j = np.arange(m)
    first = (counts.cumsum() - counts)[:, None]
    vert = hulls[first + np.minimum(j, counts[:, None] - 1)]      # (K, m, 2)
    edge = hulls[first + (j + 1) % counts[:, None]] - vert
    angle = np.arctan2(edge[:, :, 1], edge[:, :, 0])
    c, s = np.cos(angle), np.sin(angle)

    # column pair k of a polygon's frames is edge k's rotation: its edge becomes
    # +x; matmul, not x * c + y * s, which rounds differently from the BLAS kernel
    frames = np.empty((k_count, 2, m, 2))
    frames[:, 0, :, 0], frames[:, 0, :, 1], frames[:, 1, :, 0], frames[:, 1, :, 1] = c, -s, s, c
    proj = (vert @ frames.reshape(k_count, 2, 2 * m)).reshape(k_count, m, m, 2)
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    extents = hi - lo
    area = extents[:, :, 0] * extents[:, :, 1]
    area[(j >= counts[:, None]) | (np.hypot(edge[:, :, 0], edge[:, :, 1]) < 1e-12)] = np.inf
    rows = np.arange(k_count)
    best = area.argmin(axis=1)
    cb, sb = c[rows, best], s[rows, best]
    # back to the map frame; matmul rounds each rotation's transposed view
    # differently from the same matrix stored C-ordered, so the center keeps this layout
    rot = np.empty((k_count, 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = cb, sb, -sb, cb
    mid = (lo[rows, best] + hi[rows, best]) / 2.0
    center = (rot.transpose(0, 2, 1) @ mid[:, :, None])[:, :, 0]
    return center, extents[rows, best], angle[rows, best], area[rows, best]


def fit_boxes(points: np.ndarray, clusters: list[np.ndarray]) -> list[OrientedBox]:
    """Fit a minimum-area oriented box to every cluster of a frame in one pass.

    `points` is the frame's (N, 3) array and each cluster an array of its
    rows, as `cluster_points` returns them; the rows are joined once, x, y
    and z gathered through them from the frame's columns, and the joined
    rows and z (once each cluster's z range is taken) freed before the
    hulls. A box's footprint is the rotating-calipers rectangle of its
    cluster's projected hull; the heading lies along its long side, with an
    arbitrary sign. The height spans min to max point z,
    floored at _MIN_BOX_HEIGHT, and the confidence is min(1, points /
    _CONFIDENCE_SATURATION). Degenerate clusters give no box: fewer than 3
    points, all collinear or repeated, or a zero-area footprint. The boxes
    keep the order of their clusters.
    """
    sizes = np.fromiter(map(len, clusters), dtype=int, count=len(clusters))
    use = sizes >= 3
    sizes = sizes[use]
    if not sizes.size:
        return []
    rows = np.concatenate(list(compress(clusters, use)))
    starts = sizes.cumsum() - sizes
    z = points[:, 2][rows]
    z_min, z_max = np.minimum.reduceat(z, starts), np.maximum.reduceat(z, starts)
    x, y = points[:, 0][rows], points[:, 1][rows]
    del rows, z

    # a cluster whose coordinates overflow gets a non-finite footprint, dropped by the area test, or
    # a non-finite z or height, refused by OrientedBox; neither warns on the way
    with np.errstate(over="ignore", invalid="ignore"):
        hulls, counts = convex_hulls(x, y, sizes)
        polygon = counts >= 3
        if not polygon.any():
            return []
        center, extents, angle, area = min_area_rects(hulls[polygon.repeat(counts)], counts[polygon])
        ok = np.isfinite(area) & (area >= 1e-15)

        # one row per box, in OrientedBox's field order; the long side is the length
        fit = polygon.nonzero()[0][ok]
        extents = extents[ok]
        z_min, z_max = z_min[fit], z_max[fit]
        box = np.empty((fit.size, 8))
        box[:, :2] = center[ok]
        box[:, 2] = (z_min + z_max) / 2.0
        box[:, 3] = np.maximum(extents.max(axis=1), 1e-6)
        box[:, 4] = np.maximum(extents.min(axis=1), 1e-6)
        box[:, 5] = np.maximum(z_max - z_min, _MIN_BOX_HEIGHT)
        box[:, 6] = np.where(extents[:, 0] < extents[:, 1], angle[ok] + math.pi / 2.0, angle[ok])
        box[:, 7] = np.minimum(1.0, sizes[fit] / _CONFIDENCE_SATURATION)
    return [OrientedBox(*row) for row in box.tolist()]


def detect_objects(frame: PointCloudFrame, config: DetectionConfig | None = None) -> list[OrientedBox]:
    """Full per-frame detector: grid features, clustering, box fitting."""
    config = config or DetectionConfig()
    # nested, so the grid is freed before the boxes are fitted
    return fit_boxes(frame.points, cluster_points(bev_grid_features(frame, config), config))
