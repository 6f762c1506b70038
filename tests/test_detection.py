import math

import numpy as np
import pytest

from cavtraj.detection import (
    DetectionConfig,
    F_ANGLE,
    F_COUNT,
    F_DISTANCE,
    F_MAX_HEIGHT,
    F_MEAN_HEIGHT,
    F_MEAN_INTENSITY,
    F_OCCUPANCY,
    F_TOP_INTENSITY,
    Cluster,
    bev_grid_features,
    cluster_points,
    convex_hull,
    detect_objects,
    fit_bounding_box,
    min_area_rect,
)
from cavtraj.errors import DegenerateGeometry
from cavtraj.pipeline.scenario import RoadSpec, ScenarioSpec, VehicleSpec, generate_scenario
from conftest import box_surface_points, make_frame

CFG = DetectionConfig(cell_size=0.5, extent=20.0)


def grid_cell_of(grid, xy):
    idx, mask = grid.cell_indices(np.array([[xy[0], xy[1], 0.0]]))
    assert mask[0]
    return tuple(idx[0])


def test_bev_single_point_features():
    frame = make_frame([[0.25, 0.25, 1.5]], intensity=10.0)
    grid = bev_grid_features(frame, CFG)
    i, j = grid_cell_of(grid, (0.25, 0.25))
    cell = grid.features[i, j]
    assert cell[F_MAX_HEIGHT] == pytest.approx(1.5)
    assert cell[F_MEAN_HEIGHT] == pytest.approx(1.5)
    assert cell[F_TOP_INTENSITY] == pytest.approx(10.0)
    assert cell[F_MEAN_INTENSITY] == pytest.approx(10.0)
    assert cell[F_COUNT] == 1
    assert cell[F_OCCUPANCY] == 1


def test_bev_two_point_statistics():
    frame = make_frame([[0.1, 0.1, 1.0], [0.2, 0.2, 3.0]])
    grid = bev_grid_features(frame, CFG)
    i, j = grid_cell_of(grid, (0.15, 0.15))
    cell = grid.features[i, j]
    assert cell[F_MAX_HEIGHT] == pytest.approx(3.0)
    assert cell[F_MEAN_HEIGHT] == pytest.approx(2.0)
    assert cell[F_COUNT] == 2


def test_bev_angle_and_distance_channels():
    frame = make_frame([[10.0, 0.0, 1.0]])
    grid = bev_grid_features(frame, CFG)
    i, j = grid_cell_of(grid, (10.0, 0.0))
    cx, cy = grid.cell_center((i, j))
    cell = grid.features[i, j]
    # direct trigonometric evaluation of the cell-center channels
    assert cell[F_DISTANCE] == pytest.approx(math.hypot(cx, cy))
    assert cell[F_ANGLE] == pytest.approx(math.atan2(cy, cx))
    assert cell[F_DISTANCE] == pytest.approx(10.0, abs=CFG.cell_size)
    assert abs(cell[F_ANGLE]) < 0.05


def test_bev_empty_frame():
    frame = make_frame(np.zeros((0, 3)))
    grid = bev_grid_features(frame, CFG)
    assert np.all(grid.features[:, :, F_OCCUPANCY] == 0)
    assert np.all(grid.features[:, :, F_COUNT] == 0)


def test_bev_occupancy_iff_count():
    rng = np.random.default_rng(1)
    frame = make_frame(np.c_[rng.uniform(-15, 15, (200, 2)), rng.uniform(0, 2, 200)])
    grid = bev_grid_features(frame, CFG)
    occ = grid.features[:, :, F_OCCUPANCY]
    cnt = grid.features[:, :, F_COUNT]
    assert np.array_equal(occ > 0, cnt > 0)


def blob(center, n=40, size=0.8, z=1.0, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-size, size, size=(n, 2)) + center
    zz = rng.uniform(z, z + 0.8, size=(n, 1))
    return np.hstack([xy, zz])


def test_cluster_two_blobs():
    frame = make_frame(np.vstack([blob((-5, 0)), blob((5, 0), seed=1)]))
    grid = bev_grid_features(frame, CFG)
    clusters = cluster_points(grid, frame, CFG)
    assert len(clusters) == 2


def test_cluster_below_ground_gate_filtered():
    frame = make_frame(blob((0, 0), z=0.0) * [1, 1, 0.3])  # all z below 0.3
    grid = bev_grid_features(frame, CFG)
    assert cluster_points(grid, frame, CFG) == []


def test_cluster_min_points_filter():
    frame = make_frame(blob((0, 0), n=5))
    grid = bev_grid_features(frame, CFG)
    assert cluster_points(grid, frame, CFG) == []


def test_cluster_obstacle_cells_on_grid_border():
    n = int(round(2 * CFG.extent / CFG.cell_size))
    lo, hi = -CFG.extent + 0.1, CFG.extent - 0.1  # cells 0 and n - 1
    pts = np.vstack([blob((lo, lo), size=0.05), blob((hi, hi), size=0.05, seed=1)])
    frame = make_frame(pts)
    grid = bev_grid_features(frame, CFG)
    assert grid_cell_of(grid, (lo, lo)) == (0, 0)
    assert grid_cell_of(grid, (hi, hi)) == (n - 1, n - 1)
    clusters = cluster_points(grid, frame, CFG)
    assert [len(c) for c in clusters] == [40, 40]
    np.testing.assert_array_equal(clusters[0].points, pts[:40])


def test_cluster_diagonal_touch_is_one_cluster():
    # two blobs in cells (i, j) and (i + 1, j + 1): 8-connected, one cluster
    a, b = blob((0.25, 0.25), size=0.2), blob((0.75, 0.75), size=0.2, seed=1)
    frame = make_frame(np.vstack([a, b]))
    grid = bev_grid_features(frame, CFG)
    clusters = cluster_points(grid, frame, CFG)
    assert len(clusters) == 1
    np.testing.assert_array_equal(clusters[0].points, frame.points)
    # one empty cell between them splits the pair
    frame = make_frame(np.vstack([a, blob((1.25, 1.25), size=0.2, seed=1)]))
    assert len(cluster_points(bev_grid_features(frame, CFG), frame, CFG)) == 2


def test_cluster_k_separated_objects():
    rng = np.random.default_rng(5)
    k = 6
    centers = [(i * 8.0 - 20.0, (i % 2) * 10.0 - 5.0) for i in range(k)]
    frames = [box_surface_points(c, 4.0, 2.0, 1.6, heading=rng.uniform(0, 3)) for c in centers]
    frame = make_frame(np.vstack(frames))
    cfg = DetectionConfig(cell_size=0.2, extent=40.0)
    grid = bev_grid_features(frame, cfg)
    clusters = cluster_points(grid, frame, cfg)
    assert len(clusters) == k


# --- convex hull -----------------------------------------------------------


def test_hull_unit_square_with_interior():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.7], [0.9, 0.1]]
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert {(0, 0), (1, 0), (1, 1), (0, 1)} == {tuple(v) for v in hull}
    # heavy duplicates: counter-clockwise from the lowest, then leftmost, vertex
    rect = [[2, 1], [0, 1], [2, 0], [0, 0], [1, 0.5]]
    hull = convex_hull(np.repeat(rect, [5, 3, 7, 4, 9], axis=0))
    np.testing.assert_array_equal(hull, [[0, 0], [2, 0], [2, 1], [0, 1]])


def test_hull_circle_points_all_kept_in_order():
    angles = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    pts = np.c_[np.cos(angles), np.sin(angles)]
    hull = convex_hull(pts)
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
        hull = convex_hull(pts)
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
    hull = convex_hull(pts)
    assert {tuple(v) for v in hull} == brute_force_hull_vertices(pts)


def test_hull_degenerate_inputs():
    with pytest.raises(DegenerateGeometry):
        convex_hull([[0, 0], [1, 1]])
    with pytest.raises(DegenerateGeometry):
        convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])
    with pytest.raises(DegenerateGeometry):
        convex_hull(np.full((20, 2), 1.5))
    with pytest.raises(DegenerateGeometry):
        convex_hull(np.zeros((0, 2)))


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


def test_rect_axis_aligned_unit_square():
    hull = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1]])
    center, extents, angle = min_area_rect(hull)
    np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(sorted(extents), [1, 1], atol=1e-12)
    assert math.isclose(angle % (math.pi / 2), 0.0, abs_tol=1e-9) or math.isclose(
        angle % (math.pi / 2), math.pi / 2, abs_tol=1e-9
    )


def test_rect_rotated_square_area_invariant():
    ang = math.radians(30)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ rot.T
    _, extents, _ = min_area_rect(convex_hull(square))
    assert extents[0] * extents[1] == pytest.approx(1.0, abs=1e-9)


def test_rect_matches_rotation_scan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.uniform(-8, 8, size=(rng.integers(5, 40), 2))
        try:
            hull = convex_hull(pts)
        except DegenerateGeometry:
            continue
        _, extents, _ = min_area_rect(hull)
        area = extents[0] * extents[1]
        oracle = rect_scan_oracle(hull)
        assert area == pytest.approx(oracle, rel=1e-6)


def test_rect_never_beats_axis_aligned_bbox():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = rng.uniform(-5, 5, size=(20, 2))
        hull = convex_hull(pts)
        _, extents, _ = min_area_rect(hull)
        aabb = (pts.max(axis=0) - pts.min(axis=0))
        assert extents[0] * extents[1] <= aabb[0] * aabb[1] + 1e-9


def test_rect_contains_all_hull_points():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-5, 5, size=(50, 2))
    hull = convex_hull(pts)
    center, extents, angle = min_area_rect(hull)
    c, s = math.cos(angle), math.sin(angle)
    rel = hull - center
    along = rel[:, 0] * c + rel[:, 1] * s
    across = -rel[:, 0] * s + rel[:, 1] * c
    assert np.all(np.abs(along) <= extents[0] / 2 + 1e-9)
    assert np.all(np.abs(across) <= extents[1] / 2 + 1e-9)


# --- box fitting -------------------------------------------------------------


def test_fit_box_axis_aligned_vehicle():
    pts = box_surface_points((5.0, 3.0), 4.0, 2.0, 1.5)
    box = fit_bounding_box(Cluster(pts, 0, 0.0), CFG)
    assert box.length == pytest.approx(4.0, abs=CFG.cell_size)
    assert box.width == pytest.approx(2.0, abs=CFG.cell_size)
    assert box.height == pytest.approx(1.5 - 0.4, abs=0.01)  # z spans z_base..height
    assert box.x == pytest.approx(5.0, abs=0.1)
    assert box.y == pytest.approx(3.0, abs=0.1)


def test_fit_box_rotated_45deg():
    pts = box_surface_points((0.0, 0.0), 4.0, 2.0, 1.5, heading=math.radians(45))
    box = fit_bounding_box(Cluster(pts, 0, 0.0), CFG)
    assert box.length == pytest.approx(4.0, abs=CFG.cell_size)
    assert box.width == pytest.approx(2.0, abs=CFG.cell_size)
    heading_mod = math.degrees(box.heading) % 180.0
    assert min(abs(heading_mod - 45.0), abs(heading_mod - 225.0)) < 2.0


def test_fit_box_planar_cluster_height_clamped():
    rng = np.random.default_rng(3)
    pts = np.c_[rng.uniform(-2, 2, (30, 2)), np.full(30, 1.0)]
    box = fit_bounding_box(Cluster(pts, 0, 0.0), CFG)
    assert box.height == CFG.min_box_height


def test_fit_box_footprint_contains_all_points():
    rng = np.random.default_rng(11)
    for seed in range(10):
        pts = blob((rng.uniform(-5, 5), rng.uniform(-5, 5)), n=60, seed=seed)
        box = fit_bounding_box(Cluster(pts, 0, 0.0), CFG)
        assert np.all(box.contains_bev(pts, inflation=1e-9))


def test_confidence_monotone_in_point_count():
    rng = np.random.default_rng(13)
    base = blob((0, 0), n=200, seed=7)
    last = -1.0
    for n in (10, 30, 60, 100, 150, 200):
        box = fit_bounding_box(Cluster(base[:n], 0, 0.0), CFG)
        assert box.confidence >= last
        last = box.confidence
    assert last == 1.0


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
    # boxes of one seeded scenario frame, pinned from the dense-grid, Graham-scan detector
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
        (-29.962614, -7.534118, 2.149243, 0.148508, 0.075953, 3.501148, 0.732245, 0.3),
        (-29.967742, 3.872965, 2.140754, 0.190636, 0.051969, 3.540693, -2.742139, 0.3),
        (-9.967054, -7.528311, 2.145714, 0.188146, 0.060623, 3.514934, 0.806091, 0.3),
        (-9.963543, 3.874439, 2.149594, 0.155911, 0.060028, 3.516082, 0.633996, 0.3),
        (8.005787, -3.693281, 1.00049, 4.6933, 1.927165, 1.306831, 3.141055, 1.0),
        (10.036912, -7.529698, 2.15792, 0.159559, 0.062979, 3.520278, 0.652307, 0.3),
        (10.040486, 3.878345, 2.14913, 0.16196, 0.078183, 3.519247, -2.557192, 0.3),
        (18.300439, -0.004782, 1.011893, 1.895413, 1.294888, 1.292232, 1.566614, 1.0),
        (19.391312, -0.313469, 1.00707, 1.215809, 0.350898, 1.22539, 1.575897, 0.2),
        (19.388769, 0.762726, 1.016481, 0.346249, 0.310747, 1.202238, 3.140202, 0.14),
        (20.003361, -0.481769, 1.00329, 0.934228, 0.346913, 1.275636, -1.564887, 0.18),
        (21.08919, 0.003494, 1.008455, 2.531501, 1.880972, 1.291071, -0.002261, 1.0),
        (30.040928, -7.518685, 2.162824, 0.1669, 0.101043, 3.492443, -2.810238, 0.3),
        (30.046009, 3.869039, 2.139862, 0.161366, 0.062636, 3.518683, -2.513349, 0.3),
    ]
    got = [
        tuple(round(v, 6) for v in (b.x, b.y, b.z, b.length, b.width, b.height, b.heading, b.confidence))
        for b in boxes
    ]
    assert got == expected
