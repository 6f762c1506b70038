import hashlib
import math
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError, cKDTree

from cavtraj import detection
from cavtraj.detection import (
    DetectionConfig,
    OrientedBox,
    bev_grid_features,
    cluster_points,
    convex_hulls,
    detect_objects,
    fit_boxes,
    min_area_rects,
)
from cavtraj.errors import InvalidArgument
from cavtraj.fusion import project_box
from cavtraj.geometry import RigidTransform, wrap_angle
from cavtraj.pipeline.scenario import RoadSpec, ScenarioSpec, SensorSpec, VehicleSpec, generate_scenario
from conftest import box_surface_points, c_calls, in_footprint, make_frame

CFG = DetectionConfig(cell_size=0.5, extent=20.0)


@pytest.mark.parametrize(
    "field, value",
    [("link_angle", 0.0), ("link_angle", -0.01), ("link_angle", math.nan), ("link_angle", math.inf),
     ("cell_size", 0.0), ("cell_size", math.nan), ("extent", -1.0), ("extent", math.nan),
     # true and false are not lengths, angles or heights: each was read as 1.0 or 0.0
     ("cell_size", True), ("extent", True), ("link_angle", True), ("ground_height", False),
     # a non-finite ground gate keeps no point or every point
     ("ground_height", math.nan), ("ground_height", math.inf), ("ground_height", -math.inf),
     # every cluster size >= NaN is false, so a NaN floor keeps no cluster in any frame
     ("min_cluster_points", math.nan), ("min_cluster_points", 0), ("min_cluster_points", 2.5),
     ("min_cluster_points", True),
     # text and integers too large for a float raised TypeError and OverflowError
     ("cell_size", "0.2"), ("extent", 10**400), ("min_cluster_points", 10**400)],
)
def test_config_rejects_non_positive_or_non_finite_values(field, value):
    with pytest.raises(InvalidArgument, match=field):
        DetectionConfig(**{field: value})


def test_config_accepts_a_negative_ground_height():
    assert DetectionConfig(ground_height=-1.5).ground_height == -1.5


@pytest.mark.parametrize("points", [[], np.zeros((0, 3)), [[1.0, 2.0, 3.0]], np.arange(12.0).reshape(4, 3)],
                         ids=["empty_list", "empty_array", "one_point", "four_points"])
def test_frame_keeps_n_by_3_points(points):
    frame = make_frame(points)
    expected = np.asarray(points, dtype=float).reshape(-1, 3)
    assert frame.points.shape == expected.shape and len(frame) == len(expected)
    np.testing.assert_array_equal(frame.points, expected)


BAD_FRAME_POINTS = {
    "transposed": np.arange(12.0).reshape(3, 4),  # reshaping would make 4 scrambled points
    "flat": np.arange(6.0),  # reshaping would make 2 points
    "one_point_flat": [1.0, 2.0, 3.0],
    "two_columns": np.zeros((4, 2)),
    "empty_four_columns": np.zeros((0, 4)),
    "stacked": np.zeros((2, 4, 3)),
    "scalar": 1.0,
    "ragged": [[1.0, 2.0, 3.0], [4.0, 5.0]],
    "text": [["a", "b", "c"]],
}


@pytest.mark.parametrize("points", BAD_FRAME_POINTS.values(), ids=BAD_FRAME_POINTS.keys())
def test_frame_rejects_points_not_n_by_3(points):
    with pytest.raises(InvalidArgument, match="points"):
        make_frame(points)


@pytest.mark.parametrize("timestamp, points", [(math.nan, [[0.0, 0.0, 0.0]]), (0.0, [[0.0, math.inf, 0.0]])],
                         ids=["nan_timestamp", "inf_point"])
def test_frame_rejects_non_finite_values(timestamp, points):
    with pytest.raises(InvalidArgument, match="non-finite"):
        make_frame(points, timestamp=timestamp)


@pytest.mark.parametrize("timestamp", [True, False])
def test_frame_rejects_a_bool_timestamp(timestamp):
    # true and false are not times: each was kept as 1 s or 0 s
    with pytest.raises(InvalidArgument, match="timestamp"):
        make_frame([[0.0, 0.0, 1.0]], timestamp=timestamp)


@pytest.mark.parametrize("timestamp", ["1", None, 10**400], ids=["text", "none", "too_large"])
def test_frame_rejects_a_timestamp_that_is_not_a_number(timestamp):
    # text and None raised TypeError, and an integer too large for a float OverflowError
    with pytest.raises(InvalidArgument, match="timestamp"):
        make_frame([], timestamp=timestamp)


@pytest.mark.parametrize("agent_id", ["a", 1.5, True, None])
def test_frame_rejects_an_agent_id_that_is_not_an_integer(agent_id):
    with pytest.raises(InvalidArgument, match="agent_id must be an integer"):
        make_frame([[1.0, 2.0, 3.0]], agent_id=agent_id)


def test_bev_single_point_features():
    # one point above the gate lists one bin; the same point on the ground lists none
    frame = make_frame([[3.0, 4.0, 1.5]])
    grid = bev_grid_features(frame, CFG)
    np.testing.assert_array_equal(grid.kept, [0])
    np.testing.assert_array_equal(grid.starts, [0])
    # 5 m from the sensor, inside r0 = 2 * 0.5 / 0.045 = 22.2 m: rings are cell_size wide
    ring, sector = divmod(int(grid.keys[0]), int(grid.sectors.max()))
    assert ring == 10
    n = grid.sectors[ring]
    assert sector == math.floor((math.atan2(4.0, 3.0) + math.pi) / (2 * math.pi) * n)
    grid = bev_grid_features(make_frame([[3.0, 4.0, CFG.ground_height - 1e-9]]), CFG)
    assert grid.kept.size == grid.keys.size == grid.starts.size == 0
    # the gate is inclusive
    grid = bev_grid_features(make_frame([[3.0, 4.0, CFG.ground_height]]), CFG)
    np.testing.assert_array_equal(grid.kept, [0])


def test_bev_two_point_statistics():
    # a ground point beside an obstacle point is not kept; a bin holding only
    # ground points is not listed; an obstacle point beyond the extent is dropped
    off = CFG.extent + 0.1
    frame = make_frame([[5.1, 0.1, 0.1], [5.2, 0.2, 3.0], [-5.1, 5.1, 0.0], [-5.2, 5.2, 0.29], [off, 0.0, 2.0],
                        [0.0, -off, 2.0]])
    grid = bev_grid_features(frame, CFG)
    np.testing.assert_array_equal(grid.kept, [1])
    assert len(grid.keys) == 1


def test_bev_empty_frame():
    for points in (np.zeros((0, 3)), [[1.0, 1.0, 0.0], [2.0, -3.0, 0.2]]):
        frame = make_frame(points)
        grid = bev_grid_features(frame, CFG)
        assert grid.kept.shape == grid.keys.shape == grid.starts.shape == (0,)
        assert cluster_points(grid, CFG) == []


def test_bev_occupancy_iff_count():
    for cfg in (CFG, DetectionConfig(extent=60.0)):
        check_bins(cfg)


def check_bins(cfg):
    """Exactly the in-bounds points with z >= ground_height are kept, bin by bin
    and in frame order within a bin; each bin spans one ring and one sector."""
    rng = np.random.default_rng(1)
    pts = np.c_[rng.uniform(-1.2, 1.2, (2000, 2)) * cfg.extent, rng.uniform(0, 2, 2000)]
    pts[:200, :2] *= 0.02  # some near the sensor
    frame = make_frame(pts)
    grid = bev_grid_features(frame, cfg)
    obstacle = (np.abs(pts[:, :2]) <= cfg.extent).all(axis=1) & (pts[:, 2] >= cfg.ground_height)
    assert 0 < obstacle.sum() < len(pts) and (~obstacle & (pts[:, 2] >= cfg.ground_height)).any()
    np.testing.assert_array_equal(np.sort(grid.kept), np.flatnonzero(obstacle))
    assert (np.diff(grid.keys) > 0).all() and grid.starts[0] == 0 and (np.diff(grid.starts) > 0).all()
    bounds = np.append(grid.starts, len(grid.kept))
    r0 = 2 * cfg.cell_size / cfg.link_angle
    near = far = 0
    for b, key in enumerate(grid.keys):
        members = grid.kept[bounds[b]:bounds[b + 1]]
        assert (np.diff(members) > 0).all()
        x, y = pts[members, 0], pts[members, 1]
        r = np.hypot(x, y)
        ring, sector = divmod(int(key), int(grid.sectors.max()))
        n = grid.sectors[ring]
        assert 0 <= sector < n
        if r.max() < r0:
            assert math.floor(r.min() / cfg.cell_size) == math.floor(r.max() / cfg.cell_size) == ring
            near += 1
        elif ring * cfg.link_angle / 2 >= 1:  # rings beyond r0
            assert np.log(r.max() / r.min()) < cfg.link_angle / 2
            assert n >= math.floor(4 * math.pi / cfg.link_angle) - 1  # sectors about link_angle / 2 wide
            far += 1
        phase = (np.arctan2(y, x) + math.pi) / (2 * math.pi) * n
        assert (np.floor(phase) % n == sector).all()
    assert near > 10 and far > 10
    # sectors never get finer toward the sensor, and ring 0 has three
    assert grid.sectors[0] == 3 and (np.diff(grid.sectors) >= 0).all()


def reference_grid(frame, cfg):
    """Reference range image: every extent test compacts, and the sector is taken % n."""
    kept = np.flatnonzero(frame.points[:, 2] >= cfg.ground_height)
    x, y = frame.points[:, 0][kept], frame.points[:, 1][kept]
    inside = (np.abs(x) <= cfg.extent) & (np.abs(y) <= cfg.extent)
    kept, x, y = kept[inside], x[inside], y[inside]
    r = np.hypot(x, y)
    if len(kept) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return detection.BevGrid(kept, x, y, r, empty, empty, empty)
    ring = detection._rings(r, cfg)
    sectors = detection._sector_table(cfg.cell_size, cfg.link_angle, cfg.extent)[:int(ring.max()) + 1]
    n = sectors[ring]
    sector = np.floor((np.arctan2(y, x) + math.pi) * (n / (2.0 * math.pi))).astype(np.int64) % n
    stride = int(sectors.max())
    key = ring * stride + sector
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return detection.BevGrid(kept[order], x[order], y[order], r[order], key[starts], starts, sectors)


def assert_same_grid(got, want):
    for name in ("kept", "x", "y", "r", "keys", "starts", "sectors"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_bev_sectors_at_the_azimuth_seam_and_on_sector_boundaries():
    # azimuth +pi (y = +0.0, x < 0) puts the floor at n in some rings, where
    # the sector wraps to 0; -pi (y = -0.0) is sector 0 itself. Points on and
    # one float either side of every sector boundary of a few rings bin as
    # the reference's % n does
    cfg = DetectionConfig()
    table = detection._sector_table(cfg.cell_size, cfg.link_angle, cfg.extent)
    pts = []
    for r in (0.1, 0.45, 3.3, 9.9, 23.0, 51.7, 79.0):
        n = int(table[int(detection._rings(np.array([r]), cfg)[0])])
        pts += [[-r, 0.0, 1.0], [-r, -0.0, 1.0]]
        edge = np.arange(n) * (2.0 * math.pi / n) - math.pi
        for a in np.concatenate((edge, np.nextafter(edge, -4.0), np.nextafter(edge, 4.0))):
            pts.append([r * math.cos(a), r * math.sin(a), 1.0])
    frame = make_frame(pts)
    grid = bev_grid_features(frame, cfg)
    assert_same_grid(grid, reference_grid(frame, cfg))
    x, y = frame.points[:, 0], frame.points[:, 1]
    n = table[detection._rings(np.hypot(x, y), cfg)]
    floor = np.floor((np.arctan2(y, x) + math.pi) * (n / (2.0 * math.pi)))
    assert (floor == n).any() and (floor <= n).all()
    assert np.signbit(y).sum() > 7 and (y == 0.0).sum() >= 14


@pytest.mark.parametrize("beyond", [True, False], ids=["points beyond the extent", "none beyond"])
def test_bev_grid_equals_the_reference_with_and_without_points_beyond_the_extent(beyond):
    rng = np.random.default_rng(53)
    for cfg in (CFG, DetectionConfig()):
        reach = 1.3 * cfg.extent if beyond else cfg.extent
        pts = np.c_[rng.uniform(-reach, reach, (3000, 2)), rng.uniform(-0.5, 2.0, 3000)]
        pts[:40, :2] = rng.choice([-1.0, 1.0], (40, 2)) * cfg.extent   # on the extent, kept
        frame = make_frame(pts)
        in_extent = (np.abs(pts[:, :2]) <= cfg.extent).all(axis=1)
        assert in_extent.all() != beyond
        assert_same_grid(bev_grid_features(frame, cfg), reference_grid(frame, cfg))
    frame = make_frame([[0.0, 1.5 * CFG.extent, 1.0], [-2.0 * CFG.extent, 0.0, 3.0]])
    assert_same_grid(bev_grid_features(frame, CFG), reference_grid(frame, CFG))


@pytest.mark.parametrize("link_angle, key_type", [(0.045, np.uint16), (0.02, np.uint32)])
def test_both_key_widths(link_angle, key_type):
    # the default config's keys fit 16 bits, link_angle 0.02's do not; in
    # both, bins are strictly increasing int64 keys, the highest key gets a
    # bin of its own and clusters are the exact single-linkage components
    cfg = DetectionConfig(link_angle=link_angle, min_cluster_points=1)
    rng = np.random.default_rng(3)
    centres = [(0.0, 0.0), (12.0, 5.0), (-30.0, 0.2), (-68.0, -0.5), (40.0, -45.0), (-10.0, 60.0)]
    clumps = [np.c_[rng.normal(c, 0.3, (40, 2)), rng.uniform(0.5, 2.0, 40)] for c in centres]
    # the farthest point, just short of azimuth +pi: last ring, last sector
    lone = np.array([[-79.0, 1e-9, 1.0]])
    points = np.vstack(clumps + [lone])
    frame = make_frame(points)
    grid = bev_grid_features(frame, cfg)
    stride = int(grid.sectors.max())
    assert np.min_scalar_type(len(grid.sectors) * stride) == key_type
    assert grid.keys.dtype == np.int64 and (np.diff(grid.keys) > 0).all()
    assert grid.keys[-1] == len(grid.sectors) * stride - 1
    assert grid.starts[-1] == len(grid.kept) - 1 and grid.kept[-1] == len(points) - 1
    got, want = assert_no_component_split(points, cfg)
    assert same_partition(got, want) and got[-1] not in got[:-1]


SECTOR_CONFIGS = {"default": DetectionConfig(), "coarse": CFG,
                  "fine": DetectionConfig(cell_size=0.1, extent=60.0, link_angle=0.02)}


@pytest.mark.parametrize("config", SECTOR_CONFIGS.values(), ids=SECTOR_CONFIGS.keys())
def test_sector_table_slices_are_the_sector_counts(config):
    # one read-only table per (cell_size, link_angle, extent), up to the ring
    # of the extent's corner; every slice of it is _sector_counts' answer
    table = detection._sector_table(config.cell_size, config.link_angle, config.extent)
    corner = int(detection._rings(np.hypot(config.extent, config.extent), config))
    assert len(table) == corner + 1 and not table.flags.writeable
    for n in range(1, corner + 2):
        np.testing.assert_array_equal(table[:n], detection._sector_counts(n, config))
    # a point on the corner reaches the table's last ring; the grid holds a read-only slice
    grid = bev_grid_features(make_frame([[config.extent, -config.extent, 1.0], [1.0, 2.0, 1.0]]), config)
    np.testing.assert_array_equal(grid.sectors, table)
    assert not grid.sectors.flags.writeable


def cluster_of_each_point(clusters, points):
    """Index of the cluster holding each point (-1 for none), matched by coordinates."""
    where = {p.tobytes(): k for k, c in enumerate(clusters) for p in c}
    return np.array([where.get(p.tobytes(), -1) for p in points])


def single_linkage(points, config):
    """Components of exact single linkage: p and q link when |p - q| <= max(link_angle * min(r_p, r_q), 1.5 * cell_size)."""
    xy = points[:, :2]
    reach = np.maximum(config.link_angle * np.hypot(xy[:, 0], xy[:, 1]), 1.5 * config.cell_size)
    i, j = cKDTree(xy).query_pairs(reach.max(), output_type="ndarray").T
    keep = np.hypot(*(xy[i] - xy[j]).T) <= np.minimum(reach[i], reach[j])
    graph = coo_matrix((np.ones(keep.sum()), (i[keep], j[keep])), shape=(len(xy), len(xy)))
    return connected_components(graph, directed=False)[1]


def assert_no_component_split(points, config):
    """Cluster all of the points (no size floor) and check each exact component lies in one cluster."""
    config = replace(config, min_cluster_points=1)
    frame = make_frame(points)
    clusters = cluster_points(bev_grid_features(frame, config), config)
    got = cluster_of_each_point([frame.points[c] for c in clusters], points)
    want = single_linkage(points, config)
    assert (got >= 0).all()
    for comp in np.unique(want):
        assert len(np.unique(got[want == comp])) == 1
    return got, want


def same_partition(a, b):
    pairs = np.unique(np.c_[a, b], axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def assert_least_bin_components(n, a, b):
    """_least_bin_labels gives scipy's partition of n nodes under links (a, b), each labelled by its least node."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    label = detection._least_bin_labels(n, a, b)
    want = connected_components(coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)[1]
    assert same_partition(label, want)
    least = np.full(n, n)
    np.minimum.at(least, want, np.arange(n))
    np.testing.assert_array_equal(label, least[want])


@pytest.mark.parametrize("seed", range(4))
def test_components_match_scipy_on_random_links(seed):
    # 60 link sets a seed: one in six without links, the rest with repeated
    # links (either way round) and self-links
    rng = np.random.default_rng(seed)
    for k in range(60):
        n = int(rng.integers(1, 120))
        if k % 6 == 0:
            assert_least_bin_components(n, [], [])
            continue
        a, b = rng.integers(0, n, (2, int(rng.integers(1, 2 * n + 2))))
        again = rng.integers(0, len(a), len(a) // 3 + 1)
        loops = rng.integers(0, n, int(rng.integers(1, 4)))
        assert_least_bin_components(n, np.r_[a, b[again], loops], np.r_[b, a[again], loops])


def test_components_match_scipy_on_many_round_shapes():
    rng = np.random.default_rng(9)
    n = 400
    path = rng.permutation(n)
    assert_least_bin_components(n, path[:-1], path[1:])                      # a path, shuffled ids
    assert_least_bin_components(n, np.full(n - 1, n - 1), np.arange(n - 1))  # a star, centre largest
    assert_least_bin_components(n, np.arange(n - 1), np.full(n - 1, n - 1))
    assert_least_bin_components(n, np.arange(n), (np.arange(n) + 1) % n)     # a ring
    assert_least_bin_components(n, path, np.roll(path, 1))                   # a ring, shuffled ids
    # a 30 x 30 grid of nodes linked right and down, as laid out and shuffled
    cell = np.arange(900).reshape(30, 30)
    a, b = np.r_[cell[:, :-1].ravel(), cell[:-1].ravel()], np.r_[cell[:, 1:].ravel(), cell[1:].ravel()]
    assert_least_bin_components(900, a, b)
    ids = rng.permutation(900)
    assert_least_bin_components(900, ids[a], ids[b])
    # two shuffled paths and isolated nodes
    ids = rng.permutation(n)
    assert_least_bin_components(n, np.r_[ids[:149], ids[150:299]], np.r_[ids[1:150], ids[151:300]])


@pytest.mark.parametrize("seed", range(6))
def test_clusters_never_split_exact_single_linkage(seed):
    rng = np.random.default_rng(seed)
    cfg = DetectionConfig(cell_size=float(rng.choice([0.2, 0.5])), link_angle=float(rng.uniform(0.02, 0.08)))
    # clumps at every range, across the +-pi seam and on the sensor, set
    # further apart than a link plus a bin diagonal: the clusters are the
    # exact components
    centres = [np.array([0.0, 0.0]), np.array([-15.0, 0.0]), np.array([-40.0, 0.5])]
    while len(centres) < 20:
        d, a = rng.uniform(2.0, 70.0), rng.uniform(-math.pi, math.pi)
        c = d * np.array([math.cos(a), math.sin(a)])
        if all(np.hypot(*(c - b)) > 0.3 * max(d, np.hypot(*b)) + 3.0 for b in centres):
            centres.append(c)
    clumps = []
    for c in centres:
        n = int(rng.integers(3, 60))
        clumps.append(np.c_[rng.normal(c, max(0.4, 0.06 * np.hypot(*c)) / 3, (n, 2)), rng.uniform(0.5, 2.0, n)])
    got, want = assert_no_component_split(np.vstack(clumps), cfg)
    assert same_partition(got, want)
    # uniform clutter: bins may join nearby components, never split one
    pts = np.c_[rng.uniform(-60.0, 60.0, (3000, 2)), np.ones(3000)]
    pts[:300, :2] *= 0.05
    got, want = assert_no_component_split(pts, cfg)
    assert len(np.unique(got)) > 0.5 * len(np.unique(want))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind", ["ground_heavy", "sparse_arc"])
def test_scenario_clusters_never_split_exact_single_linkage(kind, seed):
    v = VehicleSpec
    if kind == "ground_heavy":
        spec = ScenarioSpec(duration=0.2, seed=seed, road=RoadSpec(length=200.0, n_lanes=2),
                            agents=[v(1, 1, 60.0, 22.0)], svs=[v(101, 2, 70.0, 23.0), v(102, 1, 80.0, 21.0)],
                            ground_spacing=0.4, walls=True)
    else:
        spec = ScenarioSpec(duration=0.3, seed=seed, road=RoadSpec(kind="arc", radius=150.0, arc_angle_deg=60.0, n_lanes=2),
                            agents=[v(1, 1, 40.0, 20.0), v(2, 2, 30.0, 20.0)],
                            svs=[v(101, 2, 45.0, 20.0), v(102, 1, 55.0, 20.0), v(103, 2, 64.0, 20.0)],
                            sensor=SensorSpec(base_spacing=0.3), ground_spacing=0.0, poles=False)
    cfg = DetectionConfig()
    for frame in (f for per_agent in generate_scenario(spec).frames.values() for f in per_agent):
        obstacle = frame.points[frame.points[:, 2] >= cfg.ground_height]
        assert_no_component_split(obstacle, cfg)
        # the size floor drops whole clusters only
        kept = cluster_points(bev_grid_features(frame, cfg), cfg)
        every = cluster_points(bev_grid_features(frame, cfg), replace(cfg, min_cluster_points=1))
        assert ([frame.points[c].tobytes() for c in kept]
                == [frame.points[c].tobytes() for c in every if len(c) >= cfg.min_cluster_points])


def test_cluster_mixed_cells_keep_only_obstacle_points():
    # road returns among the blob's points never reach its cluster
    obstacle = blob((2.0, 2.0))
    rng = np.random.default_rng(4)
    ground = np.c_[rng.uniform(1.0, 3.0, (60, 2)), rng.uniform(-0.1, CFG.ground_height - 1e-6, 60)]
    frame = make_frame(np.vstack([ground[:30], obstacle, ground[30:]]))
    clusters = cluster_points(bev_grid_features(frame, CFG), CFG)
    assert len(clusters) == 1
    np.testing.assert_array_equal(np.sort(frame.points[clusters[0]], axis=0), np.sort(obstacle, axis=0))


def test_detect_objects_looks_up_layers_at_call_time(monkeypatch):
    # a tracer wraps layers by name on the module; detect_objects must look all three up at call time
    calls = {"bev_grid_features": 0, "cluster_points": 0, "fit_boxes": 0}

    def counted(name):
        orig = getattr(detection, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(detection, name, counted(name))
    frames = [make_frame(blob((k, 0.0), seed=k), timestamp=0.1 * k) for k in range(3)]
    for k, frame in enumerate(frames, start=1):
        assert len(detection.detect_objects(frame, CFG)) == 1
        assert calls == {"bev_grid_features": k, "cluster_points": k, "fit_boxes": k}


def blob(center, n=40, size=0.8, z=1.0, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-size, size, size=(n, 2)) + center
    zz = rng.uniform(z, z + 0.8, size=(n, 1))
    return np.hstack([xy, zz])


def test_cluster_two_blobs():
    frame = make_frame(np.vstack([blob((-5, 0)), blob((5, 0), seed=1)]))
    grid = bev_grid_features(frame, CFG)
    clusters = cluster_points(grid, CFG)
    assert len(clusters) == 2


def test_cluster_below_ground_gate_filtered():
    frame = make_frame(blob((0, 0), z=0.0) * [1, 1, 0.3])  # all z below 0.3
    grid = bev_grid_features(frame, CFG)
    assert cluster_points(grid, CFG) == []


def test_cluster_min_points_filter():
    frame = make_frame(blob((0, 0), n=5))
    grid = bev_grid_features(frame, CFG)
    assert cluster_points(grid, CFG) == []


def test_cluster_obstacle_cells_on_grid_border():
    # points just inside the extent are kept and clustered, points just beyond are dropped
    lo, hi = -CFG.extent + 0.06, CFG.extent - 0.06
    pts = np.vstack([blob((lo, lo), size=0.05), blob((hi, hi), size=0.05, seed=1), blob((hi + 0.2, 0.0), size=0.05)])
    frame = make_frame(pts)
    clusters = cluster_points(bev_grid_features(frame, CFG), CFG)
    assert sorted(len(c) for c in clusters) == [40, 40]
    np.testing.assert_array_equal(np.sort(frame.points[np.concatenate(clusters)], axis=0), np.sort(pts[:80], axis=0))


def test_cluster_diagonal_touch_is_one_cluster():
    # two 0.6 m lattice squares 30 m out, placed diagonally: one cluster while
    # their nearest corners lie within link_angle * range, two once beyond
    cfg = DetectionConfig()
    side = np.linspace(-0.3, 0.3, 5)
    a = np.c_[np.repeat(side, 5) + 30.0, np.tile(side, 5), np.ones(25)]
    reach = cfg.link_angle * math.hypot(30.3, 0.3)
    for gap, count in ((0.97 * reach, 1), (1.03 * reach, 2)):
        b = a + [0.6 + gap / math.sqrt(2), 0.6 + gap / math.sqrt(2), 0.0]
        frame = make_frame(np.vstack([a, b]))
        assert len(cluster_points(bev_grid_features(frame, cfg), cfg)) == count


def test_cluster_across_the_azimuth_seam_is_one_cluster():
    # a car 25 m behind the sensor straddles azimuth +-pi
    pts = box_surface_points((-25.0, 0.0), 4.6, 1.8, 1.6, heading=math.pi / 2, spacing=0.3)
    assert (pts[:, 1] > 0).any() and (pts[:, 1] < 0).any()
    clusters = cluster_points(bev_grid_features(make_frame(pts), DetectionConfig()), DetectionConfig())
    assert len(clusters) == 1 and len(clusters[0]) == len(pts)


def test_sensor_centred_blob_is_one_box():
    # its roof covers the sensor, so every azimuth holds some of its points
    frame = make_frame(box_surface_points((0.0, 0.0), 4.6, 1.8, 1.6, heading=0.3))
    for cfg in (DetectionConfig(), CFG):
        boxes = detect_objects(frame, cfg)
        assert len(boxes) == 1
        assert (boxes[0].length, boxes[0].width) == pytest.approx((4.6, 1.8), abs=0.05)


def sv_boxes(spec):
    """Per frame, the detected boxes (in the sensor frame) and the truth SV centres in that frame."""
    data = generate_scenario(spec)
    out = []
    for aid, frames in data.frames.items():
        for step, frame in enumerate(frames):
            to_sensor = data.poses[aid][step].transform.inverse()
            truth = [to_sensor.apply(np.array([[g.x, g.y, 0.0]]))[0, :2]
                     for g in data.ground_truth if g.time == frame.timestamp and aid in g.visible_to]
            out.append((detect_objects(frame, DetectionConfig()), truth))
    return out


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("apart", [9.0, 6.0])
def test_adjacent_lane_pair_at_range_gives_two_boxes(apart, seed):
    # two SVs in adjacent lanes, 9 m (or 6 m) apart along the road, 30-45 m
    # ahead, with the sparse beam step: each gets its own box, none spans
    # both. At 6 m their bodies are 2.4 m apart, within two bins' reach but
    # beyond link_angle * range, so only the merge guard splits them
    v = VehicleSpec
    spec = ScenarioSpec(duration=0.5, seed=seed, road=RoadSpec(length=200.0, n_lanes=2),
                        agents=[v(1, 1, 20.0, 20.0)], svs=[v(101, 1, 53.0, 20.0), v(102, 2, 53.0 + apart, 20.0)],
                        sensor=SensorSpec(base_spacing=0.3), ground_spacing=0.0, poles=False)
    for boxes, truth in sv_boxes(spec):
        assert len(truth) == 2 and 30.0 < min(np.hypot(*c) for c in truth) < max(np.hypot(*c) for c in truth) < 45.0
        assert len(boxes) == 2
        for box in boxes:
            assert box.length < 5.0
            assert min(np.hypot(box.x - c[0], box.y - c[1]) for c in truth) < 0.5


@pytest.mark.parametrize("seed", [0, 7])
def test_one_sv_at_40m_sparse_beam_gives_one_box(seed):
    # 40 m out the beam step of 0.03 rad samples the hull every 1.2 m
    v = VehicleSpec
    spec = ScenarioSpec(duration=0.6, seed=seed, road=RoadSpec(length=200.0, n_lanes=2),
                        agents=[v(1, 1, 20.0, 20.0)], svs=[v(101, 2, 60.0, 20.0)],
                        sensor=SensorSpec(base_spacing=0.3), ground_spacing=0.0, poles=False)
    seen = 0
    for boxes, truth in sv_boxes(spec):
        assert len(truth) == 1
        assert 40.0 < np.hypot(*truth[0]) < 40.2
        assert len(boxes) == 1
        assert np.hypot(boxes[0].x - truth[0][0], boxes[0].y - truth[0][1]) < 0.5
        assert (boxes[0].length, boxes[0].width) == pytest.approx((4.6, 1.8), abs=0.15)
        seen += 1
    assert seen == 6


def test_cluster_k_separated_objects():
    rng = np.random.default_rng(5)
    k = 6
    centers = [(i * 8.0 - 20.0, (i % 2) * 10.0 - 5.0) for i in range(k)]
    frames = [box_surface_points(c, 4.0, 2.0, 1.6, heading=rng.uniform(0, 3)) for c in centers]
    frame = make_frame(np.vstack(frames))
    cfg = DetectionConfig(cell_size=0.2, extent=40.0)
    grid = bev_grid_features(frame, cfg)
    clusters = cluster_points(grid, cfg)
    assert len(clusters) == k


# --- convex hull -----------------------------------------------------------


def hull_of(pts):
    """The hull of one segment from the batched convex_hulls."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    hulls, counts = convex_hulls(pts[:, 0], pts[:, 1], np.array([len(pts)]))
    assert counts.tolist() == [len(hulls)]
    return hulls


def test_hull_unit_square_with_interior():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7], [0.9, 0.1]]
    hull = hull_of(pts)
    assert len(hull) == 4
    assert {(0, 0), (1, 0), (1, 1), (0, 1)} == {tuple(v) for v in hull}
    # heavy duplicates: counter-clockwise from the lowest, then leftmost, vertex
    rect = [[2, 1], [0, 1], [2, 0], [0, 0], [1, 0.5]]
    hull = hull_of(np.repeat(rect, [5, 3, 7, 4, 9], axis=0))
    np.testing.assert_array_equal(hull, [[0, 0], [2, 0], [2, 1], [0, 1]])


def test_hull_circle_points_all_kept_in_order():
    angles = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    pts = np.c_[np.cos(angles), np.sin(angles)]
    hull = hull_of(pts)
    assert len(hull) == 24
    hull_angles = np.arctan2(hull[:, 1], hull[:, 0])
    diffs = np.diff(np.unwrap(hull_angles))
    assert np.all(diffs > 0)  # counter-clockwise angular order


def test_hull_ccw_orientation_and_containment():
    inputs = [
        np.random.default_rng(123).uniform(-5, 5, size=(100, 2)),
        # two points collinear, up to rounding, with a hull edge
        np.array([[40.09, 39.835], [39.775, 40.225], [40.06, 39.955], [39.955, 40.375], [39.565, 40.345]]),
    ]
    for pts in inputs:
        hull = hull_of(pts)
        area2 = 0.0
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            area2 += a[0] * b[1] - b[0] * a[1]
        assert area2 > 0  # ccw
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            assert np.all(cross >= -1e-9)  # every point on the left of every edge


def brute_force_hull_vertices(pts):
    """O(n^3) extreme-point oracle: directed edges with all points to the left."""
    n = len(pts)
    on_hull = set()
    for i in range(n):
        rel = pts - pts[i]
        for j in range(n):
            if i == j:
                continue
            cross = rel[:, 0] * rel[j, 1] - rel[:, 1] * rel[j, 0]
            if np.all(cross >= -1e-12):
                on_hull.add(i)
                on_hull.add(j)
    return {tuple(pts[i]) for i in on_hull}


def test_hull_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    pts = rng.uniform(-10, 10, size=(500, 2))
    hull = hull_of(pts)
    assert {tuple(v) for v in hull} == brute_force_hull_vertices(pts)


def test_hull_degenerate_inputs():
    # two points, collinear points and one repeated point make no polygon,
    # whatever segments surround them
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    degenerate = [np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                  np.full((20, 2), 1.5), np.array([[4.0, 5.0]])]
    for pts, n in zip(degenerate, [2, 2, 1, 1]):
        assert len(hull_of(pts)) == n
        xy = np.vstack([square, pts, square])
        hulls, counts = convex_hulls(xy[:, 0], xy[:, 1], np.array([4, len(pts), 4]))
        assert counts.tolist() == [4, n, 4]
        np.testing.assert_array_equal(hulls[:4], square)
        np.testing.assert_array_equal(hulls[-4:], square)


# --- minimum-area rectangle --------------------------------------------------


def rect_scan_oracle(hull):
    """Min bounding-rect area over a dense angle grid plus all edge angles."""
    edges = np.roll(hull, -1, axis=0) - hull
    edge_angles = np.arctan2(edges[:, 1], edges[:, 0])
    angles = np.unique(np.r_[np.deg2rad(np.arange(0.0, 90.0, 0.1)), edge_angles])
    best = math.inf
    for ang in angles:
        c, s = math.cos(ang), math.sin(ang)
        proj = hull @ np.array([[c, -s], [s, c]])
        ext = proj.max(axis=0) - proj.min(axis=0)
        best = min(best, ext[0] * ext[1])
    return best


def rect_of(hull):
    """The rectangle of one polygon from the batched min_area_rects."""
    hull = np.asarray(hull, dtype=float)
    center, extents, angle, _ = min_area_rects(hull, np.array([len(hull)]))
    return center[0], extents[0], angle[0]


def test_rect_axis_aligned_unit_square():
    hull = hull_of([[0, 0], [1, 0], [1, 1], [0, 1]])
    center, extents, angle = rect_of(hull)
    np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(sorted(extents), [1, 1], atol=1e-12)
    assert math.isclose(angle % (math.pi / 2), 0.0, abs_tol=1e-9) or math.isclose(
        angle % (math.pi / 2), math.pi / 2, abs_tol=1e-9
    )


def test_rect_rotated_square_area_invariant():
    ang = math.radians(30)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ rot.T
    _, extents, _ = rect_of(hull_of(square))
    assert extents[0] * extents[1] == pytest.approx(1.0, abs=1e-9)


def test_rect_matches_rotation_scan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.uniform(-8, 8, size=(rng.integers(5, 40), 2))
        hull = hull_of(pts)
        if len(hull) < 3:
            continue
        _, extents, _ = rect_of(hull)
        area = extents[0] * extents[1]
        oracle = rect_scan_oracle(hull)
        assert area == pytest.approx(oracle, rel=1e-6)


def test_rect_never_beats_axis_aligned_bbox():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = rng.uniform(-5, 5, size=(20, 2))
        hull = hull_of(pts)
        _, extents, _ = rect_of(hull)
        aabb = (pts.max(axis=0) - pts.min(axis=0))
        assert extents[0] * extents[1] <= aabb[0] * aabb[1] + 1e-9


def rect_edge_loop(hull):
    """Per-edge rotating-calipers loop: the first edge of strictly least area wins."""
    hull = np.asarray(hull, dtype=float)
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(lengths < 1e-12):
        edges = edges[lengths >= 1e-12]
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
    _, center, extents, angle = best
    return center, extents, angle


def regular_polygon(k, radius=1.0, phase=0.0, center=(0.0, 0.0)):
    ang = phase + 2 * math.pi * np.arange(k) / k
    return np.c_[center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]


def rect_hulls():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(3, 120))
        scale = 10 ** rng.uniform(-1, 1.5)
        ang = rng.uniform(-math.pi, math.pi)
        rot = [[math.cos(ang), math.sin(ang)], [-math.sin(ang), math.cos(ang)]]
        pts = rng.normal(size=(n, 2)) * [scale, scale * rng.uniform(0.05, 1)] @ rot
        hull = hull_of(pts + rng.uniform(-60, 60, 2))
        if len(hull) >= 3:
            yield hull
    # tied areas: every edge of a square, a rectangle's opposite sides, an octagon
    yield np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    yield np.array([[3.0, -1.0], [7.0, -1.0], [7.0, 1.0], [3.0, 1.0]])
    yield regular_polygon(4, radius=2.0, phase=0.3, center=(10.0, -4.0))
    yield regular_polygon(8)
    yield regular_polygon(8, radius=3.0, phase=0.1, center=(-20.0, 35.0))
    # a repeated vertex gives a zero-length edge, which is skipped
    yield np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.5, 1.0], [0.0, 1.5]])


def test_rect_matches_per_edge_loop_bit_for_bit():
    # each polygon alone, and all of them in one batch padded to the longest
    hulls = list(rect_hulls())
    assert len(hulls) > 250
    batch = min_area_rects(np.concatenate(hulls), np.array([len(h) for h in hulls]))
    for k, hull in enumerate(hulls):
        ref_center, ref_extents, ref_angle = rect_edge_loop(hull)
        for center, extents, angle in (rect_of(hull), (batch[0][k], batch[1][k], batch[2][k])):
            assert center.tobytes() == ref_center.tobytes()
            assert extents.tobytes() == ref_extents.tobytes()
            assert angle == ref_angle


def test_rect_degenerate_inputs():
    # every edge of zero length: no edge, infinite area; a flat polygon: zero area
    polygons = [np.full((4, 2), 3.0), np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    _, _, _, area = min_area_rects(np.concatenate(polygons), np.array([4, 3, 3]))
    assert area[0] == math.inf and area[1] < 1e-15 and area[2] == pytest.approx(1.0)
    # fit_boxes gives no box for either, nor for a two-point cluster
    flat = [np.c_[p, np.ones(len(p))] for p in (np.zeros((2, 2)), *polygons[:2])]
    assert fit_point_sets(flat) == []


def test_rect_contains_all_hull_points():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-5, 5, size=(50, 2))
    hull = hull_of(pts)
    center, extents, angle = rect_of(hull)
    c, s = math.cos(angle), math.sin(angle)
    rel = hull - center
    along = rel[:, 0] * c + rel[:, 1] * s
    across = -rel[:, 0] * s + rel[:, 1] * c
    assert np.all(np.abs(along) <= extents[0] / 2 + 1e-9)
    assert np.all(np.abs(across) <= extents[1] / 2 + 1e-9)


# --- box fitting -------------------------------------------------------------


def fit_point_sets(clusters):
    """fit_boxes on (n, 3) point sets, each given as its rows of the sets stacked into one frame array."""
    sizes = [len(c) for c in clusters]
    points = np.concatenate([np.zeros((0, 3)), *clusters])
    return fit_boxes(points, [np.arange(start, start + n) for start, n in zip(np.cumsum(sizes) - sizes, sizes)])


def fit_one(pts):
    (box,) = fit_point_sets([pts])
    return box


def test_fit_box_axis_aligned_vehicle():
    pts = box_surface_points((5.0, 3.0), 4.0, 2.0, 1.5)
    box = fit_one(pts)
    assert box.length == pytest.approx(4.0, abs=CFG.cell_size)
    assert box.width == pytest.approx(2.0, abs=CFG.cell_size)
    assert box.height == pytest.approx(1.5 - 0.4, abs=0.01)  # z spans z_base..height
    assert box.x == pytest.approx(5.0, abs=0.1)
    assert box.y == pytest.approx(3.0, abs=0.1)


def test_fit_box_rotated_45deg():
    pts = box_surface_points((0.0, 0.0), 4.0, 2.0, 1.5, heading=math.radians(45))
    box = fit_one(pts)
    assert box.length == pytest.approx(4.0, abs=CFG.cell_size)
    assert box.width == pytest.approx(2.0, abs=CFG.cell_size)
    heading_mod = math.degrees(box.heading) % 180.0
    assert min(abs(heading_mod - 45.0), abs(heading_mod - 225.0)) < 2.0


def test_fit_box_heading_on_long_side():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(10, 80))
        pts = np.c_[rng.normal(size=(n, 2)) * rng.uniform(0.1, 3.0, 2), rng.uniform(0.5, 2.0, n)]
        box = fit_one(pts)
        _, (e0, e1), angle = rect_of(hull_of(pts[:, :2]))
        assert box.length == max(e0, e1) and box.width == min(e0, e1)
        long_side = angle if e0 >= e1 else angle + math.pi / 2
        turn = (box.heading - long_side) % math.pi
        assert min(turn, math.pi - turn) < 1e-12


def test_fit_box_planar_cluster_height_clamped():
    rng = np.random.default_rng(3)
    pts = np.c_[rng.uniform(-2, 2, (30, 2)), np.full(30, 1.0)]
    box = fit_one(pts)
    assert box.height == detection._MIN_BOX_HEIGHT


def test_fit_box_footprint_contains_all_points():
    rng = np.random.default_rng(11)
    for seed in range(10):
        pts = blob((rng.uniform(-5, 5), rng.uniform(-5, 5)), n=60, seed=seed)
        box = fit_one(pts)
        assert np.all(in_footprint(box, pts, inflation=1e-9))


def test_confidence_monotone_in_point_count():
    rng = np.random.default_rng(13)
    base = blob((0, 0), n=200, seed=7)
    last = -1.0
    for n in (10, 30, 60, 100, 150, 200):
        box = fit_one(base[:n])
        assert box.confidence >= last
        last = box.confidence
    assert last == 1.0


@pytest.mark.parametrize(
    "field, value",
    [("x", math.nan), ("y", math.inf), ("z", -math.inf), ("heading", math.nan), ("heading", math.inf),
     ("length", math.inf), ("width", math.inf), ("height", math.inf), ("length", math.nan)],
)
def test_box_rejects_non_finite_fields(field, value):
    fields = dict(x=1.0, y=2.0, z=0.5, length=4.0, width=2.0, height=1.5, heading=0.3)
    OrientedBox(**fields)
    with pytest.raises(InvalidArgument):
        OrientedBox(**{**fields, field: value})


def qhull_hull(pts2d):
    """Qhull's hull re-rooted at its lowest, then leftmost, vertex; None if Qhull finds no polygon."""
    if len(pts2d) < 3:
        return None
    try:
        hull = pts2d[ConvexHull(pts2d).vertices]
    except QhullError:
        return None
    return np.roll(hull, -np.lexsort((hull[:, 0], hull[:, 1]))[0], axis=0)


def test_hulls_match_qhull_on_lattice_segments():
    # small integer lattices: repeated points, collinear runs and tied
    # extremes everywhere, many segments in one call
    rng = np.random.default_rng(41)
    segments = [rng.integers(0, int(rng.integers(1, 6)), size=(int(rng.integers(1, 40)), 2)).astype(float)
                + rng.integers(-50, 50, 2) for _ in range(400)]
    xy = np.concatenate(segments)
    hulls, counts = convex_hulls(xy[:, 0], xy[:, 1], np.array([len(s) for s in segments]))
    starts = np.cumsum(counts) - counts
    polygons = 0
    for pts, start, count in zip(segments, starts, counts):
        ref = qhull_hull(pts)
        if ref is None:
            assert count == len(np.unique(pts, axis=0)[:2])  # a point or the two ends of a line
        else:
            np.testing.assert_array_equal(hulls[start:start + count], ref)
            polygons += 1
    assert 150 < polygons < 390


def test_octagon_prune_is_per_segment_and_keeps_every_hull_vertex():
    # one batched call masks each segment as a call on that segment alone
    # would, and never masks a vertex of the segment's hull
    rng = np.random.default_rng(43)
    segments = [np.c_[rng.normal(size=(int(k), 2)) * rng.uniform(0.1, 5.0, 2) + rng.uniform(-50, 50, 2)]
                if k % 3 else rng.integers(0, 4, size=(int(k), 2)).astype(float)
                for k in rng.integers(1, 120, 300)]
    sizes = np.array([len(s) for s in segments])
    xy = np.concatenate(segments)
    inside = detection._octagon_interior(xy[:, 0].copy(), xy[:, 1].copy(), np.repeat(np.arange(len(sizes)), sizes), sizes)
    alone = np.concatenate([detection._octagon_interior(s[:, 0].copy(), s[:, 1].copy(), np.zeros(len(s), dtype=int),
                                                        np.array([len(s)])) for s in segments])
    np.testing.assert_array_equal(inside, alone)
    assert 0.5 * len(xy) < inside.sum() < len(xy)
    for pts, masked in zip(segments, np.split(inside, np.cumsum(sizes)[:-1])):
        ref = qhull_hull(pts)
        if ref is not None:
            assert not (masked[:, None] & (pts[:, None, :] == ref[None]).all(axis=2)).any()


def test_octagon_corners_are_each_segments_first_extreme_points():
    # oracle: argmin / argmax of x, y, x + y and y - x on the segment alone,
    # which return the first point attaining the extreme; integer lattices
    # tie everywhere, and one-point segments have all eight corners at 0
    rng = np.random.default_rng(47)
    segments = [rng.integers(0, 4, size=(int(k), 2)).astype(float) + rng.integers(-50, 50, 2) if k % 2
                else rng.normal(size=(int(k), 2)) * rng.uniform(0.1, 5.0, 2) + rng.uniform(-50, 50, 2)
                for k in rng.integers(1, 80, 300)]
    segments += [rng.uniform(-50, 50, size=(1, 2)) for _ in range(5)]
    rng.shuffle(segments)
    sizes = np.array([len(s) for s in segments])
    xy = np.concatenate(segments)
    batched = detection._octagon_corners(xy[:, 0], xy[:, 1], sizes)
    assert batched.shape == (8, len(segments))
    ties = 0
    for pts, start, corners in zip(segments, np.cumsum(sizes) - sizes, batched.T):
        x, y = pts[:, 0], pts[:, 1]
        keys = [-y, x - y, x, x + y, y, y - x, -x, -x - y]     # the rows' directions
        want = [int(np.argmin(y)), int(np.argmin(y - x)), int(np.argmax(x)), int(np.argmax(x + y)),
                int(np.argmax(y)), int(np.argmax(y - x)), int(np.argmin(x)), int(np.argmin(x + y))]
        assert (corners - start).tolist() == want
        assert detection._octagon_corners(x, y, np.array([len(pts)]))[:, 0].tolist() == want
        ties += sum(int((k == k.max()).sum() > 1) for k in keys)
    assert sum(len(s) == 1 for s in segments) >= 5
    assert ties > 300


def test_octagon_corners_of_tied_lattice_segments_are_the_first_argmin_and_argmax():
    # every key ties on these 0..2 lattices, so each block row has several
    # hits per segment; the first at or after the segment's start is the
    # first extreme point, as argmin / argmax on the segment alone returns it
    rng = np.random.default_rng(59)
    segments = [rng.integers(0, 3, size=(int(k), 2)).astype(float) for k in rng.integers(1, 30, 200)]
    segments += [np.full((5, 2), 1.0), np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 0.0]])]
    sizes = np.array([len(s) for s in segments])
    xy = np.concatenate(segments)
    corners = detection._octagon_corners(xy[:, 0], xy[:, 1], sizes)
    for pts, start, got in zip(segments, np.cumsum(sizes) - sizes, corners.T):
        x, y = pts[:, 0], pts[:, 1]
        want = [np.argmin(y), np.argmin(y - x), np.argmax(x), np.argmax(x + y),
                np.argmax(y), np.argmax(y - x), np.argmin(x), np.argmin(x + y)]
        assert (got - start).tolist() == [int(w) for w in want]


def qhull_box(pts):
    """The per-cluster box fit that fit_boxes replaces; None for a degenerate cluster.

    Qhull's hull, re-rooted, then the per-edge rectangle loop; the heading
    turns to the long side; height and confidence as in fit_boxes.
    """
    hull = qhull_hull(pts[:, :2])
    if hull is None:
        return None
    center, (length, width), heading = rect_edge_loop(hull)
    if length * width < 1e-15:
        return None
    if length < width:
        heading, length, width = heading + math.pi / 2.0, width, length
    z_min, z_max = pts[:, 2].min(), pts[:, 2].max()
    return OrientedBox(
        x=float(center[0]),
        y=float(center[1]),
        z=float((z_min + z_max) / 2.0),
        length=float(max(length, 1e-6)),
        width=float(max(width, 1e-6)),
        height=float(max(z_max - z_min, detection._MIN_BOX_HEIGHT)),
        heading=float(wrap_angle(heading)),
        confidence=float(min(1.0, len(pts) / detection._CONFIDENCE_SATURATION)),
    )


def box_bits(boxes):
    return [np.array([b.x, b.y, b.z, b.length, b.width, b.height, b.heading, b.confidence]).tobytes() for b in boxes]


@pytest.mark.parametrize("kind", ["straight_poles", "sparse_arc", "walls_lattice"])
def test_fit_boxes_match_per_cluster_qhull_path(kind):
    v = VehicleSpec
    if kind == "straight_poles":
        spec = ScenarioSpec(duration=0.3, seed=5, road=RoadSpec(length=200.0, n_lanes=3), agents=[v(1, 2, 80.0, 25.0)],
                            svs=[v(101, 1, 80.0, 25.0), v(102, 3, 81.0, 25.1), v(103, 2, 92.0, 24.0)], poles=True)
    elif kind == "sparse_arc":
        spec = ScenarioSpec(duration=0.3, seed=6, road=RoadSpec(kind="arc", radius=150.0, arc_angle_deg=60.0, n_lanes=2),
                            agents=[v(1, 1, 40.0, 20.0), v(2, 2, 30.0, 20.0)],
                            svs=[v(101, 2, 45.0, 20.0), v(102, 1, 30.0, 20.0)], sensor=SensorSpec(base_spacing=0.3),
                            ground_spacing=0.0, poles=False)
    else:
        spec = ScenarioSpec(duration=0.3, seed=7, road=RoadSpec(length=200.0, n_lanes=2), agents=[v(1, 1, 60.0, 22.0)],
                            svs=[v(101, 2, 70.0, 23.0), v(102, 1, 80.0, 21.0)], ground_spacing=0.4, walls=True)
    cfg = DetectionConfig()
    n_boxes = 0
    for frame in (f for per_agent in generate_scenario(spec).frames.values() for f in per_agent):
        clusters = cluster_points(bev_grid_features(frame, cfg), cfg)
        want = [b for b in (qhull_box(frame.points[c]) for c in clusters) if b is not None]
        assert box_bits(fit_boxes(frame.points, clusters)) == box_bits(want)
        n_boxes += len(want)
    assert n_boxes >= 12  # sparse_arc: 2 SVs seen by 2 agents in 3 frames, one box each


def test_fit_boxes_skip_degenerate_clusters_and_are_batch_independent():
    rng = np.random.default_rng(31)
    corners = np.array([[0.0, 0.0, 1.0], [4.0, 0.0, 1.5], [4.0, 2.0, 1.0], [0.0, 2.0, 2.0], [2.0, 1.0, 1.2]])
    valid = [blob((3.0 * k, -2.0), n=int(rng.integers(3, 60)), seed=k) for k in range(5)]
    valid.append(np.repeat(corners, [9, 4, 7, 5, 11], axis=0) + [10.0, 10.0, 0.0])  # heavy duplicates
    valid.append(box_surface_points((-8.0, 6.0), 4.5, 1.9, 1.6, heading=0.3))      # stacked rings share xy
    line = np.arange(12.0)
    degenerate = [
        np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),                    # two points
        np.full((15, 3), 2.5),                                            # one point, repeated
        np.c_[line, 2.0 * line + 1.0, np.ones(12)],                       # collinear
        np.repeat([[1.0, 1.0, 0.5], [3.0, 2.0, 0.7], [5.0, 3.0, 0.6]], 8, axis=0),  # collinear, repeated
        np.array([[0.0, 0.0, 1.0], [0.5, 1e-16, 1.0], [1.0, 0.0, 1.0]]),  # a polygon of area below 1e-15
        np.zeros((0, 3)),
    ]
    clusters = [valid[0], degenerate[0], valid[1], degenerate[1], degenerate[2], valid[2], valid[3],
                degenerate[3], valid[4], degenerate[4], valid[5], degenerate[5], valid[6]]
    boxes = fit_point_sets(clusters)
    alone = [fit_point_sets([c]) for c in valid]
    assert [len(a) for a in alone] == [1] * len(valid)
    assert box_bits(boxes) == box_bits([a[0] for a in alone])
    ref = [qhull_box(c) for c in valid]
    assert box_bits(boxes[:-1]) == box_bits(ref[:-1])
    # the noiseless box's walls are collinear up to rounding: Qhull merges
    # those vertices, the chain keeps them, so the two differ in the last bits
    np.testing.assert_allclose(astuple(boxes[-1]), astuple(ref[-1]), rtol=0, atol=1e-12)
    assert fit_point_sets(degenerate) == []
    assert all(qhull_box(c) is None for c in degenerate)
    assert fit_point_sets([]) == []


def assert_same_boxes(got, want):
    # the same fields bit for bit, and boxes that behave alike: equal, hashed alike, frozen
    assert [type(b) for b in got] == [OrientedBox] * len(want)
    assert box_bits(got) == box_bits(want) and got == want
    assert [hash(b) for b in got] == [hash(b) for b in want]
    for b in got:
        with pytest.raises(FrozenInstanceError):
            b.x = 0.0


def test_a_box_stores_its_heading_wrapped():
    rows = [
        (1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 0.9),
        (0.0, 0.0, 0.0, 3.0, 3.0, 0.1, -math.pi, 1.0),
        (-5.0, 1e5, 2.0, 1e-6, 1e-6, 0.1, math.pi + 1e-9, 0.01),
        (7.0, -3.0, 1.0, 2.0, 1.0, 1.0, float(np.nextafter(math.pi, 0.0)), 0.5),
        (7.0, -3.0, 1.0, 2.0, 1.0, 1.0, 1.5 * math.pi, 0.0),
    ]
    got = [OrientedBox(*row).heading for row in rows]
    assert got == [wrap_angle(row[6]) for row in rows]
    assert got[0] == 0.3
    assert got[1] == math.pi                            # -pi is stored as pi
    assert -math.pi < got[2] < -math.pi + 2e-9          # pi + 1e-9 lands just above -pi
    assert rows[3][6] < math.pi and got[3] == math.pi   # wrap_angle rounds nextafter(pi, 0) to pi
    assert -math.pi < got[4] <= math.pi and got[4] == pytest.approx(-0.5 * math.pi, abs=1e-15)


def test_a_box_behaves_as_a_frozen_dataclass():
    b = OrientedBox(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 0.9)
    assert astuple(b) == (1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 0.9)
    assert OrientedBox(x=1.0, y=2.0, z=0.5, length=4.0, width=2.0, height=1.5, heading=0.3) == replace(b, confidence=1.0)
    turned = replace(b, x=3.0, heading=4.0)              # replace goes through the constructor, which wraps
    assert astuple(turned) == (3.0, 2.0, 0.5, 4.0, 2.0, 1.5, wrap_angle(4.0), 0.9)
    twin = OrientedBox(*astuple(b))
    assert twin == b and twin is not b and hash(twin) == hash(b) and turned != b
    assert {b, twin, turned} == {b, turned}
    assert repr(b) == "OrientedBox(x=1.0, y=2.0, z=0.5, length=4.0, width=2.0, height=1.5, heading=0.3, confidence=0.9)"
    for name in ("x", "heading", "confidence"):
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, 0.0)
    with pytest.raises(FrozenInstanceError):
        del b.y
    assert astuple(b) == (1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 0.9)


@pytest.mark.parametrize("name, bad", [(name, bad) for name in ("x", "y", "z", "heading")
                                       for bad in (math.nan, math.inf, -math.inf)] + [
    ("width", 5.0),             # l < w
    ("width", 0.0), ("width", -1.0), ("length", math.inf), ("length", math.nan),
    ("height", 0.0), ("height", -1.0), ("height", math.inf),
    ("confidence", -0.1), ("confidence", 1.5), ("confidence", math.nan),
    ("x", "a"), ("y", None), ("length", "a"), ("confidence", None),     # not numbers
    ("z", True), ("heading", False), ("width", True), ("height", True), ("confidence", False),
])
def test_every_way_to_make_a_box_refuses_a_bad_field(name, bad, monkeypatch):
    good = OrientedBox(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 0.9)
    fields = {**asdict(good), name: bad}
    with pytest.raises(InvalidArgument):
        OrientedBox(**fields)
    with pytest.raises(InvalidArgument):
        replace(good, **{name: bad})
    # project_box rebuilds every box from the fields it reads, so a record carrying the bad field is refused;
    # it computes the center and heading as floats, so only a float is a bad value there, and an infinite
    # heading stops at math.cos (ValueError) first; no box holds one
    computed = name in ("x", "y", "z", "heading")
    if not computed or type(bad) is float and not (name == "heading" and math.isinf(bad)):
        with pytest.raises(InvalidArgument):
            project_box([SimpleNamespace(**fields)], RigidTransform(np.eye(3), np.zeros(3)))
    # fit_boxes takes x, y and the heading from the calipers' rectangle and z from the points; its
    # dimensions and confidence keep the rules by construction (sorted extents, floors, min(1, ...))
    if computed and type(bad) is float:
        rects = detection.min_area_rects

        def bad_rects(hulls, counts):
            center, extents, angle, area = rects(hulls, counts)
            if name in ("x", "y"):
                center[:, "xy".index(name)] = bad
            elif name == "heading":
                angle[:] = bad
            return center, extents, angle, area

        monkeypatch.setattr(detection, "min_area_rects", bad_rects)
        points = np.array([[0.0, 0.0, 0.5], [2.0, 0.0, 1.0], [2.0, 1.0, 0.5], [0.0, 1.0, 1.0]])
        if name == "z":
            points[1, 2] = bad
        with pytest.raises(InvalidArgument):
            fit_boxes(points, [np.arange(4)])


def test_fit_boxes_equal_checked_boxes_and_reject_non_finite_rows():
    v = VehicleSpec
    spec = ScenarioSpec(duration=0.2, seed=7, road=RoadSpec(length=200.0, n_lanes=2), agents=[v(1, 1, 60.0, 22.0)],
                        svs=[v(101, 2, 70.0, 23.0), v(102, 1, 80.0, 21.0)], ground_spacing=0.4, walls=True, poles=True)
    boxes = [b for frame in generate_scenario(spec).frames[1] for b in detect_objects(frame, DetectionConfig())]
    assert len(boxes) >= 6
    assert_same_boxes(boxes, [OrientedBox(*astuple(b)) for b in boxes])
    # a cluster whose z range overflows has an infinite height, which OrientedBox rejects
    points = np.array([[0.0, 0.0, -1e308], [1.0, 0.0, 1e308], [0.0, 1.0, 0.0], [1.0, 1.0, 5.0]])
    with pytest.raises(InvalidArgument, match="finite"):
        fit_boxes(points, [np.arange(4)])
    # one whose x and y span +-1e308 has a footprint that overflows: no box, and no warning
    points = np.array([[1e308, 0.0, 0.0], [-1e308, 0.0, 1.0], [0.0, 1e308, 0.0], [0.0, -1e308, 1.0]])
    assert fit_boxes(points, [np.arange(4)]) == []


def test_fit_boxes_are_layout_independent():
    # fit_boxes reads the frame's x, y and z as columns: a frame array that is
    # a non-contiguous view gives the boxes of its C-contiguous copy, bit for bit
    clusters = [blob((3.0 * k, -2.0), n=30 + 7 * k, seed=k) for k in range(4)]
    clusters += [box_surface_points((-8.0, 6.0), 4.5, 1.9, 1.6, heading=0.3),
                 box_surface_points((12.0, 9.0), 4.2, 1.8, 1.5, heading=-1.1, rng=np.random.default_rng(3), noise=0.02)]
    stacked = np.concatenate(clusters)
    sizes = [len(c) for c in clusters]
    rows = np.split(np.arange(len(stacked)), np.cumsum(sizes)[:-1])
    wider = np.c_[stacked[:, 2], stacked, np.ones(len(stacked))]
    layouts = {
        "reversed rows": stacked[::-1],
        "fortran order": np.asfortranarray(stacked),
        "columns of a wider array": wider[:, 1:4],
        "every other row": np.repeat(stacked, 2, axis=0)[::2],
    }
    # all four at once: every other row, reversed, of a wider Fortran-ordered array
    layouts["mixed"] = np.asfortranarray(np.repeat(wider, 2, axis=0))[::-2, 1:4]
    for name, view in layouts.items():
        assert not view.flags.c_contiguous, name
        want = fit_boxes(np.ascontiguousarray(view), rows)
        assert len(want) == len(clusters)
        assert box_bits(fit_boxes(view, rows)) == box_bits(want), name


def test_detect_objects_end_to_end():
    pts = np.vstack(
        [
            box_surface_points((8.0, 2.0), 4.2, 1.9, 1.6),
            box_surface_points((-6.0, -3.0), 4.8, 2.1, 1.5, heading=0.4),
        ]
    )
    frame = make_frame(pts)
    boxes = detect_objects(frame, DetectionConfig(cell_size=0.2, extent=20.0))
    assert len(boxes) == 2
    centers = sorted([(b.x, b.y) for b in boxes])
    assert centers[0] == pytest.approx((-6.0, -3.0), abs=0.2)
    assert centers[1] == pytest.approx((8.0, 2.0), abs=0.2)


def test_detect_objects_scenario_frame_pinned():
    # boxes of one seeded scenario frame from the range-image clustering: the
    # SVs at 8 m and 20 m give one box each (the 0.2 m grid broke the far one
    # into five), the eight poles one box each; clusters come nearest ring first
    spec = ScenarioSpec(
        duration=0.1,
        seed=3,
        road=RoadSpec(length=120.0, n_lanes=2),
        agents=[VehicleSpec(1, 1, 40.0, 20.0)],
        svs=[VehicleSpec(101, 2, 48.0, 20.0), VehicleSpec(102, 1, 60.0, 22.0)],
    )
    frame = generate_scenario(spec).frames[1][0]
    boxes = detect_objects(frame, DetectionConfig())
    expected = [
        (8.005787, -3.693281, 1.00049, 4.6933, 1.927165, 1.306831, 3.141055, 1.0),
        (10.040486, 3.878345, 2.14913, 0.16196, 0.078183, 3.519247, -2.557192, 0.3),
        (-9.963543, 3.874439, 2.149594, 0.155911, 0.060028, 3.516082, 0.633996, 0.3),
        (-9.967054, -7.528311, 2.145714, 0.188146, 0.060623, 3.514934, 0.806091, 0.3),
        (10.036912, -7.529698, 2.15792, 0.159559, 0.062979, 3.520278, 0.652307, 0.3),
        (20.00363, -0.002364, 1.010465, 4.704904, 1.891475, 1.295089, 0.001328, 1.0),
        (30.046009, 3.869039, 2.139862, 0.161366, 0.062636, 3.518683, -2.513349, 0.3),
        (-29.967742, 3.872965, 2.140754, 0.190636, 0.051969, 3.540693, -2.742139, 0.3),
        (-29.962614, -7.534118, 2.149243, 0.148508, 0.075953, 3.501148, 0.732245, 0.3),
        (30.040928, -7.518685, 2.162824, 0.1669, 0.101043, 3.492443, -2.810238, 0.3),
    ]
    got = [
        tuple(round(v, 6) for v in (b.x, b.y, b.z, b.length, b.width, b.height, b.heading, b.confidence))
        for b in boxes
    ]
    assert got == expected


def test_detect_objects_pinned():
    # boxes of two seeded frames to 1e-9: a dense straight-road frame with
    # SVs beside and ahead of the agent and poles, and a sparse arc frame
    v = VehicleSpec
    dense = ScenarioSpec(duration=0.1, seed=11, road=RoadSpec(length=200.0, n_lanes=3), agents=[v(1, 2, 100.0, 25.0)],
                         svs=[v(101, 1, 100.0, 25.0), v(102, 3, 101.0, 25.1), v(103, 2, 112.0, 24.0)], poles=True)
    arc = ScenarioSpec(duration=0.1, seed=7, road=RoadSpec(kind="arc", radius=150.0, arc_angle_deg=60.0, n_lanes=2),
                       agents=[v(1, 1, 40.0, 20.0)], svs=[v(101, 2, 52.0, 20.0), v(102, 1, 70.0, 20.0)],
                       sensor=SensorSpec(base_spacing=0.3), ground_spacing=0.0, poles=False)
    expected = {
        "dense": [
            (0.993655822, -3.697410895, 1.002177536, 4.708983062, 1.933283926, 1.339338374, -0.000766839, 1.0),
            (-0.007188213, 3.700794643, 1.011057314, 4.732839666, 1.920855794, 1.308733301, 0.002640613, 1.0),
            (12.005457397, 0.000931027, 1.003095515, 4.697139468, 1.910049915, 1.326397337, -3.136441997, 1.0),
            (-9.974384751, -7.524419881, 2.13692953, 0.168823114, 0.074191731, 3.51506167, -2.571381279, 0.3),
            (10.05041403, -7.515670469, 2.156325322, 0.155634399, 0.071239733, 3.519266965, 0.500640252, 0.3),
            (10.040700614, 7.5826158, 2.165770489, 0.168788154, 0.075499149, 3.549356083, 0.886003548, 0.3),
            (-9.961853597, 7.574321947, 2.136528471, 0.144702845, 0.060067074, 3.505246565, 0.761996108, 0.3),
            (-29.955241822, -7.53119631, 2.144058466, 0.182223273, 0.069870212, 3.571372366, -2.64701803, 0.3),
            (30.037889185, -7.521990683, 2.152256845, 0.164899649, 0.067977386, 3.458821185, 0.581742511, 0.3),
            (30.03526332, 7.579576159, 2.143978054, 0.178790567, 0.084226253, 3.547553125, 0.823341776, 0.3),
            (-29.948151926, 7.580274432, 2.144028693, 0.18043812, 0.06330351, 3.521571102, 0.543300187, 0.3),
        ],
        "arc": [
            (10.988644359, -3.320885968, 1.000155461, 4.69421042, 1.896926372, 1.300981311, -3.064624089, 1.0),
            (29.785962769, 3.020301361, 1.000782553, 4.642764635, 1.859268718, 1.269920584, 0.204740292, 0.54),
        ],
    }
    for name, spec in (("dense", dense), ("arc", arc)):
        frame = generate_scenario(spec).frames[1][0]
        got = [tuple(round(x, 9) for x in astuple(b)) for b in detect_objects(frame, DetectionConfig())]
        assert got == expected[name], name


def test_cluster_points_of_the_pinned_frames_pinned():
    # the frames of test_detect_objects_pinned: each cluster's points, as
    # frame.points[rows] in cluster order, hash to the digest taken when
    # clusters were still gathered into arrays of their own
    v = VehicleSpec
    dense = ScenarioSpec(duration=0.1, seed=11, road=RoadSpec(length=200.0, n_lanes=3), agents=[v(1, 2, 100.0, 25.0)],
                         svs=[v(101, 1, 100.0, 25.0), v(102, 3, 101.0, 25.1), v(103, 2, 112.0, 24.0)], poles=True)
    arc = ScenarioSpec(duration=0.1, seed=7, road=RoadSpec(kind="arc", radius=150.0, arc_angle_deg=60.0, n_lanes=2),
                       agents=[v(1, 1, 40.0, 20.0)], svs=[v(101, 2, 52.0, 20.0), v(102, 1, 70.0, 20.0)],
                       sensor=SensorSpec(base_spacing=0.3), ground_spacing=0.0, poles=False)
    expected = {
        "dense": (11, 16_863, "ae4941d8d2c92d33c9e5dfafd70fcd8bbaad11dc1a7d47d53b20c3749689d3d2"),
        "arc": (2, 298, "aa1969fc89b5f14cf8459d25bd2b88c6b493bb2b6f59109e9b0519ffa89f73c6"),
    }
    config = DetectionConfig()
    for name, spec in (("dense", dense), ("arc", arc)):
        frame = generate_scenario(spec).frames[1][0]
        digest = hashlib.sha256()
        clusters = cluster_points(bev_grid_features(frame, config), config)
        for rows in clusters:
            digest.update(len(rows).to_bytes(8, "little"))
            digest.update(frame.points[rows].tobytes())
        assert (len(clusters), sum(map(len, clusters)), digest.hexdigest()) == expected[name], name


def traced_peak(call):
    """Peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detect_objects_peak_memory_on_the_dense_frame():
    # the dense frame of test_detect_objects_pinned: 18 120 points, 16 863 of
    # them in 11 clusters. No per-frame temporary of the octagon prune is
    # wider than one float64 column of the cluster points (135 KB). One call's
    # traced peak measured 1 783 599 B (1.70 MiB); the range image and the
    # clustering set it, so fit_boxes is bounded alone too: it measured
    # 880 698 B (0.84 MiB), and one (n, 3) or (4, n) block more exceeds 1 MiB
    v = VehicleSpec
    dense = ScenarioSpec(duration=0.1, seed=11, road=RoadSpec(length=200.0, n_lanes=3), agents=[v(1, 2, 100.0, 25.0)],
                         svs=[v(101, 1, 100.0, 25.0), v(102, 3, 101.0, 25.1), v(103, 2, 112.0, 24.0)], poles=True)
    frame = generate_scenario(dense).frames[1][0]
    config = DetectionConfig()
    assert len(frame) == 18_120
    assert len(detect_objects(frame, config)) == 11   # also warms every first-call cache
    assert traced_peak(lambda: detect_objects(frame, config)) < 1.85 * 2**20
    clusters = cluster_points(bev_grid_features(frame, config), config)
    assert (len(clusters), sum(map(len, clusters))) == (11, 16_863)
    assert traced_peak(lambda: fit_boxes(frame.points, clusters)) < 1.0 * 2**20


def test_detect_objects_c_calls_on_a_small_frame():
    """Bound the fixed cost of one detect_objects call: C functions called, not time.

    On small frames the number of NumPy calls, not the number of points,
    sets detection time, so a change that brings back a pass per key or
    per cluster, or NumPy helpers that loop in Python (np.split, np.stack,
    np.roll, np.array_equal), fails here. The count depends on the NumPy
    version: it measured 195 with numpy 2.4.6 (the CI pin) on this frame, 8
    clusters of 20 points and 8 boxes, and the bound is that plus 10 %.
    """
    centres = [(-6.0, 1.0), (5.0, -3.0), (12.0, 8.0), (-12.0, -9.0), (0.0, 15.0), (16.0, -12.0), (-15.0, 12.0),
               (8.0, 4.0)]
    frame = make_frame(np.vstack([blob(c, n=20, seed=k) for k, c in enumerate(centres)]))
    assert len(detect_objects(frame, CFG)) == 8    # also warms every first-call cache
    assert c_calls(lambda: detect_objects(frame, CFG)) <= 195 * 1.1
