import functools
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from cavtraj.detection import DetectionConfig, OrientedBox, detect_objects
from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj import fusion
from cavtraj.fusion import DetectionSet, iou_bev, late_fuse, project_box, sync_sets
from cavtraj.geometry import RigidTransform
from cavtraj.pipeline.frames_io import pose_at
from cavtraj.pipeline.scenario import RoadSpec, ScenarioSpec, SensorSpec, VehicleSpec, generate_scenario
from conftest import UTM_SHIFT, box_corners, in_footprint, moved_scenario, rotation_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

IDENTITY = RigidTransform(np.eye(3), np.zeros(3))

def box(x, y, l=4.0, w=2.0, h=1.5, heading=0.0, conf=0.8, z=0.75):
    return OrientedBox(x, y, z, l, w, h, heading, conf)


def make_set(t, aid, boxes=()):
    return DetectionSet(timestamp=t, agent_id=aid, boxes=list(boxes))


# --- synchronization ---------------------------------------------------------


def test_sync_identical_timestamps():
    streams = {
        0: [make_set(t, 0) for t in (0.0, 0.1, 0.2)],
        1: [make_set(t, 1) for t in (0.0, 0.1, 0.2)],
    }
    groups = sync_sets(streams, tolerance=0.05)
    assert len(groups) == 3
    assert all(len(g) == 2 for g in groups)


def test_sync_small_offset_paired():
    streams = {0: [make_set(0.0, 0)], 1: [make_set(0.04, 1)]}
    groups = sync_sets(streams, tolerance=0.05)
    assert len(groups) == 1 and len(groups[0]) == 2


def test_sync_large_offset_passes_through():
    streams = {0: [make_set(0.0, 0)], 1: [make_set(0.2, 1)]}
    groups = sync_sets(streams, tolerance=0.05)
    assert len(groups) == 2 and all(len(g) == 1 for g in groups)


def test_sync_unordered_stream_rejected():
    streams = {0: [make_set(0.2, 0), make_set(0.1, 0)]}
    with pytest.raises(InvalidArgument):
        sync_sets(streams, tolerance=0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sync_non_finite_timestamp_rejected(bad):
    streams = {0: [make_set(0.0, 0), make_set(bad, 0), make_set(0.2, 0)], 1: [make_set(0.0, 1)]}
    with pytest.raises(InvalidArgument, match="non-finite timestamp"):
        sync_sets(streams, tolerance=0.05)


@pytest.mark.parametrize("tolerance", [math.nan, -0.01, -math.inf])
def test_sync_nan_or_negative_tolerance_rejected(tolerance):
    streams = {0: [make_set(0.0, 0)], 1: [make_set(0.0, 1)]}
    with pytest.raises(InvalidArgument, match="tolerance"):
        sync_sets(streams, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [True, False, math.inf])
def test_sync_bool_or_infinite_tolerance_rejected(tolerance):
    # true and false are not durations (each was read as 1 s or 0 s), and an
    # infinite tolerance groups sets of any age
    streams = {0: [make_set(0.0, 0)], 1: [make_set(0.01, 1)]}
    with pytest.raises(InvalidArgument, match="tolerance"):
        sync_sets(streams, tolerance=tolerance)


@pytest.mark.parametrize("tolerance", ["0.1", None, 10**400], ids=["text", "none", "too_large"])
def test_sync_tolerance_that_is_not_a_number_rejected(tolerance):
    # text and None raised TypeError, and an integer too large for a float OverflowError
    with pytest.raises(InvalidArgument, match="tolerance"):
        sync_sets({}, tolerance)


def test_sync_timestamp_that_is_not_a_number_rejected():
    # a string is no time, and math.isfinite would raise TypeError on it
    with pytest.raises(InvalidArgument, match="timestamp in the detection stream of agent 0 must be a real number"):
        sync_sets({0: [DetectionSet("0.1", 0)]}, 0.1)


def test_sync_zero_tolerance_pairs_only_equal_timestamps():
    streams = {0: [make_set(0.0, 0), make_set(0.1, 0)], 1: [make_set(0.0, 1), make_set(0.11, 1)]}
    assert [len(g) for g in sync_sets(streams, tolerance=0.0)] == [2, 1, 1]


def test_sync_three_agents():
    streams = {
        0: [make_set(0.0, 0), make_set(0.1, 0)],
        1: [make_set(0.01, 1), make_set(0.11, 1)],
        2: [make_set(0.5, 2)],
    }
    groups = sync_sets(streams, tolerance=0.05)
    assert [len(g) for g in groups] == [2, 2, 1]


def nearest_partner_sync(streams, tolerance):
    """Reference: each agent's nearest pending set by a full scan, then a stable sort by anchor time."""
    pending = {aid: list(sets) for aid, sets in streams.items()}
    groups = []
    while any(pending.values()):
        anchor_aid = min((aid for aid in pending if pending[aid]), key=lambda aid: (pending[aid][0].timestamp, aid))
        anchor = pending[anchor_aid].pop(0)
        group = [anchor]
        for aid in sorted(pending):
            if aid == anchor_aid or not pending[aid]:
                continue
            gaps = [abs(s.timestamp - anchor.timestamp) for s in pending[aid]]
            best = int(np.argmin(gaps))
            if gaps[best] <= tolerance:
                group.append(pending[aid].pop(best))
        groups.append(group)
    groups.sort(key=lambda g: g[0].timestamp)
    return groups


def random_streams(rng):
    """1-4 agents at 10 Hz with dropped frames, jitter on a 0.01 s grid and repeated timestamps."""
    streams = {}
    for aid in rng.choice(10, size=int(rng.integers(1, 5)), replace=False):
        times = [round(0.1 * k + 0.01 * int(rng.integers(-4, 5)), 2) for k in range(int(rng.integers(0, 25)))]
        times = [t for t in times if rng.random() > 0.2]
        times += [t for t in times if rng.random() < 0.15]
        streams[int(aid)] = [make_set(t, int(aid)) for t in sorted(times)]
    return streams


@pytest.mark.parametrize("tolerance", [0.0, 0.05, 1.0])
def test_sync_matches_nearest_partner_reference(tolerance):
    rng = np.random.default_rng(11)
    for _ in range(300):
        streams = random_streams(rng)
        got = [[id(ds) for ds in g] for g in sync_sets(streams, tolerance)]
        assert got == [[id(ds) for ds in g] for g in nearest_partner_sync(streams, tolerance)], streams


# --- BEV IoU -------------------------------------------------------------------


def raster_iou(a, b, n=700):
    """Fine-raster oracle: point-in-box tests on a dense grid."""
    corners = np.vstack([box_corners(a), box_corners(b)])
    lo = corners.min(axis=0) - 0.1
    hi = corners.max(axis=0) + 0.1
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.c_[gx.ravel(), gy.ravel(), np.zeros(n * n)]
    in_a = in_footprint(a, pts)
    in_b = in_footprint(b, pts)
    inter = np.count_nonzero(in_a & in_b)
    union = np.count_nonzero(in_a | in_b)
    return inter / union if union else 0.0


def test_iou_identical_boxes():
    b = box(3.0, -2.0, heading=0.7)
    assert iou_bev(b, b) == pytest.approx(1.0, abs=1e-9)


def test_iou_disjoint_boxes():
    assert iou_bev(box(0, 0), box(100, 0)) == 0.0


def test_iou_known_half_overlap():
    a = OrientedBox(0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    b = OrientedBox(0.5, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_matches_raster_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = box(rng.uniform(-2, 2), rng.uniform(-2, 2), l=rng.uniform(2, 5),
                w=rng.uniform(1, 2), heading=rng.uniform(-math.pi, math.pi))
        b = box(rng.uniform(-2, 2), rng.uniform(-2, 2), l=rng.uniform(2, 5),
                w=rng.uniform(1, 2), heading=rng.uniform(-math.pi, math.pi))
        assert iou_bev(a, b) == pytest.approx(raster_iou(a, b), abs=1e-2)


def test_iou_symmetry_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = box(rng.uniform(-3, 3), rng.uniform(-3, 3), heading=rng.uniform(-3, 3))
        b = box(rng.uniform(-3, 3), rng.uniform(-3, 3), heading=rng.uniform(-3, 3))
        v = iou_bev(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou_bev(b, a), abs=1e-9)


def reference_polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def reference_clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of `subject` by convex ccw polygon `clip`, on NumPy rows."""
    output = list(subject)
    for i in range(len(clip)):
        a, b = clip[i], clip[(i + 1) % len(clip)]
        edge = b - a
        if not output:
            break
        inputs, output = output, []
        # signed distance from the clip edge; >= 0 means inside (left of edge)
        side = lambda p: edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
        prev = inputs[-1]
        s_prev = side(prev)
        for cur in inputs:
            s_cur = side(cur)
            if (s_cur >= -1e-12) != (s_prev >= -1e-12):
                denom = s_prev - s_cur
                if abs(denom) > 1e-15:
                    t = s_prev / denom
                    output.append(prev + t * (cur - prev))
            if s_cur >= -1e-12:
                output.append(cur)
            prev, s_prev = cur, s_cur
    return np.array(output) if output else np.zeros((0, 2))


def reference_iou_bev(a, b):
    """BEV IoU by clipping NumPy corner arrays in map coordinates, each edge of b's in turn: the float kernel's oracle."""
    pa, pb = box_corners(a), box_corners(b)
    inter_poly = reference_clip_polygon(pa, pb)
    inter = reference_polygon_area(inter_poly) if len(inter_poly) >= 3 else 0.0
    union = reference_polygon_area(pa) + reference_polygon_area(pb) - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


def rotated_about(x, y, angle, cx, cy):
    c, s = math.cos(angle), math.sin(angle)
    return cx + c * x - s * y, cy + s * x + c * y


def oracle_pairs(rng, n):
    """n seeded pairs of each kind: random, identical, nested, disjoint with meeting circles, shared edge."""
    def dims():
        return float(rng.uniform(2.5, 6.0)), float(rng.uniform(1.2, 2.5))

    def rand_box():
        l, w = dims()
        return box(*rng.uniform(-3, 3, 2).tolist(), l=l, w=w, heading=float(rng.uniform(-math.pi, math.pi)))

    pairs = {"random": [], "identical": [], "nested": [], "disjoint": [], "shared_edge": []}
    for _ in range(n):
        pairs["random"].append((rand_box(), rand_box()))
        a = rand_box()
        pairs["identical"].append((a, box(a.x, a.y, l=a.length, w=a.width, heading=a.heading)))
        # inner circumradius + offset <= (0.4 / 2 + 0.1) * hypot(1, 1) * w < w / 2
        inner_l = float(rng.uniform(0.1, 0.4)) * a.width
        inner = box(a.x + float(rng.uniform(-0.1, 0.1)) * a.width, a.y + float(rng.uniform(-0.1, 0.1)) * a.width,
                    l=inner_l, w=inner_l * float(rng.uniform(0.3, 1.0)), heading=float(rng.uniform(-math.pi, math.pi)))
        pairs["nested"].append((a, inner) if rng.uniform() < 0.5 else (inner, a))
        # both along one axis at a random angle, the gap between their ends a
        # share of the circles' overlap: the circles meet, the boxes do not
        (la, wa), (lb, wb) = dims(), dims()
        overlap = 0.5 * (math.hypot(la, wa) + math.hypot(lb, wb)) - (la / 2 + lb / 2)
        angle, cx, cy = float(rng.uniform(-math.pi, math.pi)), *rng.uniform(-50, 50, 2).tolist()
        d = la / 2 + lb / 2 + overlap * float(rng.uniform(0.05, 0.95))
        pairs["disjoint"].append((box(cx, cy, l=la, w=wa, heading=angle),
                                  box(*rotated_about(d, 0.0, angle, cx, cy), l=lb, w=wb, heading=angle)))
        # same width, end to end: the two boxes share one short edge
        l_b = float(rng.uniform(wa, 6.0))
        pairs["shared_edge"].append((box(cx, cy, l=la, w=wa, heading=angle),
                                     box(*rotated_about(la / 2 + l_b / 2, 0.0, angle, cx, cy),
                                         l=l_b, w=wa, heading=angle)))
    return pairs


def test_iou_matches_numpy_reference_kernel():
    rng = np.random.default_rng(2024)
    pairs = oracle_pairs(rng, 420)
    # in late_fuse's order: agent 0's candidate against agent 1's kept box
    pairs["touching"] = [tuple(ds.boxes[0] for ds in _touching_sets())]
    assert sum(len(p) for p in pairs.values()) >= 2000
    for kind, kind_pairs in pairs.items():
        for a, b in kind_pairs:
            got, want = iou_bev(a, b), reference_iou_bev(a, b)
            assert abs(got - want) <= 1e-12, (kind, a, b, got, want)
            assert abs(got - iou_bev(b, a)) <= 1e-12, (kind, a, b)
            if kind == "identical":
                assert got == pytest.approx(1.0, abs=1e-12)
            elif kind == "nested":
                small, big = sorted((a, b), key=lambda x: x.length * x.width)
                assert got == pytest.approx(small.length * small.width / (big.length * big.width), abs=1e-12)
            elif kind in ("disjoint", "shared_edge"):
                assert got <= 1e-12
            elif kind == "touching":
                # the gate's corner case: in b's frame the two corners meet exactly, and the clip's area is 0
                assert got == 0.0


def moved(pairs, dx, dy, turn=0.0):
    """The pairs turned by `turn` about the origin, then shifted by (dx, dy)."""
    c, s = math.cos(turn), math.sin(turn)
    return [tuple(box(c * b.x - s * b.y + dx, s * b.x + c * b.y + dy, l=b.length, w=b.width, heading=b.heading + turn)
                  for b in pair) for pair in pairs]


@pytest.mark.parametrize("turn", [0.0, 0.7], ids=["utm", "utm_turned"])
def test_iou_is_the_same_both_ways_round_and_wherever_the_map_sits(turn):
    pairs = oracle_pairs(np.random.default_rng(2024), 420)
    pairs["touching"] = [tuple(ds.boxes[0] for ds in _touching_sets())]
    for kind, kind_pairs in pairs.items():
        for (a, b), (ma, mb) in zip(kind_pairs, moved(kind_pairs, *UTM_SHIFT, turn)):
            got = iou_bev(ma, mb)
            assert abs(got - iou_bev(mb, ma)) <= 1e-12, (kind, ma, mb)
            # only the offset between the centers rounds at the map's coordinates, by at most 5e-10 m
            assert abs(got - iou_bev(a, b)) <= 1e-9, (kind, a, b)


@pytest.mark.parametrize("turn", [0.0, 0.7])
def test_iou_of_two_poles_is_the_same_at_map_coordinates(turn):
    # two 0.15 x 0.05 m pole boxes of 0.0075 m^2 each, about what a shoelace
    # sum of coordinates near UTM_SHIFT rounds away
    a, b = box(1.0, 2.0, l=0.15, w=0.05, heading=0.3), box(1.03, 2.01, l=0.15, w=0.05, heading=0.25)
    at_origin = iou_bev(a, b)
    assert at_origin == pytest.approx(0.6137, abs=1e-4) and at_origin == pytest.approx(raster_iou(a, b), abs=1e-2)
    (ma, mb), = moved([(a, b)], *UTM_SHIFT, turn)
    assert abs(iou_bev(ma, mb) - at_origin) <= 1e-7 and abs(iou_bev(mb, ma) - at_origin) <= 1e-7


# --- projection and late fusion ------------------------------------------------


def test_project_box_preserves_dims():
    rng = np.random.default_rng(31)
    for _ in range(30):
        b = box(rng.uniform(-20, 20), rng.uniform(-20, 20), l=rng.uniform(3, 6),
                w=rng.uniform(1.5, 2.5), heading=rng.uniform(-math.pi, math.pi))
        t = RigidTransform(
            rotation_matrix(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-50, 50, 3),
        )
        p, = project_box([b], t)
        assert p.length == pytest.approx(b.length, abs=1e-6)
        assert p.width == pytest.approx(b.width, abs=1e-6)
        assert p.height == pytest.approx(b.height, abs=1e-6)


def test_project_box_pure_yaw_moves_heading():
    b = box(10.0, 0.0, heading=0.3)
    t = RigidTransform(rotation_matrix(0.0, 0.0, math.pi / 2), [0, 0, 0])
    p, = project_box([b], t)
    assert p.heading == pytest.approx(0.3 + math.pi / 2, abs=1e-9)
    assert (p.x, p.y) == pytest.approx((0.0, 10.0), abs=1e-9)


def test_project_box_matches_corner_reference():
    # reference: transform the 8 corners, take their mean as the center and the
    # bottom face's length edge for the heading
    rng = np.random.default_rng(5)
    for _ in range(200):
        b = box(*rng.uniform(-60, 60, 2), z=rng.uniform(-2, 2), l=rng.uniform(3, 12),
                w=rng.uniform(1.5, 2.9), h=rng.uniform(1.2, 4), heading=rng.uniform(-math.pi, math.pi))
        t = RigidTransform(
            rotation_matrix(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-500, 500, 3),
        )
        foot = box_corners(b)
        corners = np.vstack([np.c_[foot, np.full(4, b.z + dz)] for dz in (-b.height / 2, b.height / 2)])
        corners = t.apply(corners)
        edge = corners[0] - corners[1]
        p, = project_box([b], t)
        np.testing.assert_allclose([p.x, p.y, p.z], corners.mean(axis=0), rtol=0, atol=1e-12)
        assert abs(math.remainder(p.heading - math.atan2(edge[1], edge[0]), 2 * math.pi)) <= 1e-12


def test_project_box_rounds_as_one_mat_vec_per_box():
    # the stacked product must round as rot @ (x, y, z) + t does for each box alone;
    # centers @ rot.T sums in another order and differs in most of these cases
    rng = np.random.default_rng(43)
    for _ in range(100):
        t = RigidTransform(
            rotation_matrix(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-500, 500, 3),
        )
        boxes = [box(*rng.uniform(-300, 300, 2), z=rng.uniform(-2, 2), heading=rng.uniform(-math.pi, math.pi))
                 for _ in range(3)]
        for b, p in zip(boxes, project_box(boxes, t), strict=True):
            center = t.rotation @ (b.x, b.y, b.z) + t.translation
            axis = t.rotation @ (math.cos(b.heading), math.sin(b.heading), 0.0)
            assert (p.x, p.y, p.z) == tuple(center.tolist())
            assert p.heading == math.atan2(axis[1], axis[0])
            assert (p.length, p.width, p.height, p.confidence) == (b.length, b.width, b.height, b.confidence)
    assert project_box([], IDENTITY) == []


def test_project_box_builds_the_boxes_of_the_checking_constructor():
    rng = np.random.default_rng(47)
    for _ in range(20):
        t = RigidTransform(
            rotation_matrix(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-500, 500, 3),
        )
        boxes = [box(*rng.uniform(-300, 300, 2), z=rng.uniform(-2, 2), l=rng.uniform(0.2, 9.0), w=0.2,
                     heading=rng.uniform(-math.pi, math.pi), conf=rng.uniform(0.0, 1.0)) for _ in range(5)]
        got = project_box(boxes, t)
        want = [OrientedBox(*astuple(p)) for p in got]
        assert [astuple(p) for p in got] == [astuple(p) for p in want] and got == want
        assert [hash(p) for p in got] == [hash(p) for p in want]
    # a half turn of yaw -pi turns the x axis to (-1, -1.2e-16): atan2 gives -pi, which OrientedBox stores as pi
    half_turn = RigidTransform(rotation_matrix(0.0, 0.0, -math.pi), [0.0, 0.0, 0.0])
    axis = half_turn.rotation @ (1.0, 0.0, 0.0)
    assert math.atan2(axis[1], axis[0]) == -math.pi
    p, = project_box([box(1.0, 2.0, heading=0.0)], half_turn)
    assert p.heading == math.pi
    assert astuple(p) == astuple(OrientedBox(p.x, p.y, p.z, p.length, p.width, p.height, -math.pi, p.confidence))


def test_project_box_rejects_a_center_that_overflows():
    with pytest.raises(InvalidArgument, match="finite"):
        project_box([box(0.0, 0.0), box(1.5e308, 0.0)], RigidTransform(np.eye(3), [1.5e308, 0.0, 0.0]))


def test_late_fuse_single_agent_passthrough():
    s = make_set(0.0, 0, [box(5, 0), box(20, 3)])
    fused = late_fuse([s], {0: IDENTITY})
    assert len(fused.boxes) == 2
    assert fused.provenance == [(0,), (0,)]


def test_late_fuse_duplicate_keeps_higher_confidence():
    winner = box(10.0, 0.0, l=4.4, w=2.0, conf=0.9)
    loser = box(10.3, 0.1, l=3.9, w=1.8, conf=0.5)
    s0 = make_set(0.0, 0, [winner])
    s1 = make_set(0.0, 1, [loser])
    assert iou_bev(winner, loser) > 0.3
    fused = late_fuse([s0, s1], {0: IDENTITY, 1: IDENTITY})
    assert len(fused.boxes) == 1
    assert fused.boxes[0].length == pytest.approx(4.4)
    assert fused.provenance == [(0, 1)]


def test_late_fuse_distinct_objects_all_kept():
    s0 = make_set(0.0, 0, [box(0, 0)])
    s1 = make_set(0.0, 1, [box(30, 0)])
    fused = late_fuse([s0, s1], {0: IDENTITY, 1: IDENTITY})
    assert len(fused.boxes) == 2


def test_late_fuse_confidence_tie_prefers_lower_agent_id():
    b0 = box(10.0, 0.0, l=4.2, conf=0.7)
    b1 = box(10.1, 0.0, l=3.8, conf=0.7)
    fused = late_fuse(
        [make_set(0.0, 1, [b1]), make_set(0.0, 0, [b0])],
        {0: IDENTITY, 1: IDENTITY},
    )
    assert len(fused.boxes) == 1
    assert fused.boxes[0].length == pytest.approx(4.2)


def test_late_fuse_missing_transform_is_config_error():
    with pytest.raises(ValidationError):
        late_fuse([make_set(0.0, 0, [box(0, 0)])], {})


def test_late_fuse_self_fusion_idempotent_count():
    boxes = [box(0, 0), box(15, 2), box(-12, -4, heading=0.5)]
    s0 = make_set(0.0, 0, boxes)
    s1 = make_set(0.0, 1, boxes)  # duplicated agent view
    fused = late_fuse([s0, s1], {0: IDENTITY, 1: IDENTITY})
    assert len(fused.boxes) == len(boxes)


def test_late_fuse_output_has_no_overlapping_pair():
    rng = np.random.default_rng(71)
    boxes0 = [box(rng.uniform(-30, 30), rng.uniform(-8, 8), conf=rng.uniform(0.2, 1)) for _ in range(12)]
    boxes1 = [box(rng.uniform(-30, 30), rng.uniform(-8, 8), conf=rng.uniform(0.2, 1)) for _ in range(12)]
    fused = late_fuse([make_set(0.0, 0, boxes0), make_set(0.0, 1, boxes1)], {0: IDENTITY, 1: IDENTITY})
    for i in range(len(fused.boxes)):
        for j in range(i + 1, len(fused.boxes)):
            assert iou_bev(fused.boxes[i], fused.boxes[j]) < fusion._IOU_THRESHOLD


def all_pairs_fuse(sets, transforms):
    """Reference: every candidate is tested against every kept box, in kept order."""
    candidates = []
    for ds in sorted(sets, key=lambda s: s.agent_id):
        candidates += [(p, ds.agent_id) for p in project_box(ds.boxes, transforms[ds.agent_id])]
    order = sorted(range(len(candidates)), key=lambda k: (-candidates[k][0].confidence, candidates[k][1], k))
    kept, contributors = [], []
    for k in order:
        b, aid = candidates[k]
        for i, other in enumerate(kept):
            if iou_bev(b, other) >= fusion._IOU_THRESHOLD:
                contributors[i].add(aid)
                break
        else:
            kept.append(b)
            contributors.append({aid})
    return kept, [tuple(sorted(c)) for c in contributors]


def _touching_sets():
    # two pairs whose circumcircles touch exactly (d == r_a + r_b in floating
    # point) where their footprints meet corner to corner, one rotated, one
    # axis-aligned. Both clip to an area of exactly 0: the gate must let
    # touching circles through.
    diag = -math.atan2(3.0, 4.0)
    return [
        make_set(0.0, 0, [box(0.0, 0.0, l=4.0, w=3.0, heading=diag, conf=0.8),
                          box(20.0, 0.0, l=4.0, w=2.0, conf=0.9)]),
        make_set(0.0, 1, [box(5.0, 0.0, l=4.0, w=3.0, heading=diag, conf=0.9),
                          box(24.0, 2.0, l=4.0, w=2.0, conf=0.8)]),
    ]


def test_late_fuse_matches_all_pairs_reference():
    rng = np.random.default_rng(41)
    cases = [_touching_sets()]
    for _ in range(30):
        # a few objects seen by up to four agents, each view jittered, plus clutter
        objects = [(rng.uniform(-25, 25), rng.uniform(-8, 8), rng.uniform(-math.pi, math.pi))
                   for _ in range(rng.integers(1, 8))]
        sets = []
        for aid in range(rng.integers(1, 5)):
            boxes = [box(x + rng.normal(0, 0.6), y + rng.normal(0, 0.6), l=rng.uniform(3.5, 5.0),
                         w=rng.uniform(1.5, 2.2), heading=h + rng.normal(0, 0.2),
                         conf=round(rng.uniform(0.2, 1.0), 1))
                     for x, y, h in objects if rng.uniform() < 0.8]
            boxes += [box(rng.uniform(-30, 30), rng.uniform(-10, 10), l=rng.uniform(0.2, 1.0),
                          w=0.2, conf=0.3) for _ in range(rng.integers(0, 4))]
            sets.append(make_set(0.0, aid, boxes))
        cases.append(sets)
    for sets in cases:
        transforms = {ds.agent_id: IDENTITY for ds in sets}
        fused = late_fuse(sets, transforms)
        assert (fused.boxes, fused.provenance) == all_pairs_fuse(sets, transforms)


def test_late_fuse_gate_lets_touching_circles_through(monkeypatch):
    calls = []

    def counting_iou(a, b):
        calls.append((a.x, b.x))
        return iou_bev(a, b)

    monkeypatch.setattr(fusion, "iou_bev", counting_iou)
    late_fuse(_touching_sets(), {0: IDENTITY, 1: IDENTITY})
    # each touching pair is clipped, and no other pair
    assert sorted(calls) == [(0.0, 5.0), (24.0, 20.0)]


def test_late_fuse_tests_only_kept_boxes_with_overlapping_circles(monkeypatch):
    calls = []
    merges = fusion._merges

    def recording_merges(box, other, a, b):
        calls.append((round(box.x, 6), round(other.x, 6)))
        return merges(box, other, a, b)

    # every pair late_fuse tests goes through its pair test
    monkeypatch.setattr(fusion, "_merges", recording_merges)
    sets = [make_set(0.0, 0, [box(0, 0), box(30, 0), box(60, 0)]),
            make_set(0.0, 1, [box(0.5, 0, conf=0.5), box(64.4, 0, conf=0.5)])]
    fused = late_fuse(sets, {0: IDENTITY, 1: IDENTITY})
    # circumradius of a 4 x 2 box is sqrt(5): 0.5 m and 4.4 m gaps are inside 2*sqrt(5)
    assert sorted(calls) == [(0.5, 0.0), (64.4, 60.0)]
    assert fused.provenance == [(0, 1), (0,), (0,), (1,)]


def test_late_fuse_never_clips_a_pair_whose_areas_rule_out_the_threshold(monkeypatch):
    # IoU <= min(A, B) / max(A, B): a pole (0.04 m^2) against a wall (6 m^2) can
    # never reach 0.3, so only the two walls and the two poles pass the area
    # bound; the containment bound decides the poles, and the clip the walls
    bounded, clipped = [], []
    bound = fusion._bound

    def recording_bound(a, b):
        bounded.append(sorted((a[6], b[6])))
        return bound(a, b)

    def counting_iou(a, b):
        clipped.append(sorted((a.length * a.width, b.length * b.width)))
        return iou_bev(a, b)

    monkeypatch.setattr(fusion, "_bound", recording_bound)
    monkeypatch.setattr(fusion, "iou_bev", counting_iou)
    wall, pole = dict(l=20.0, w=0.3, conf=0.9), dict(l=0.2, w=0.2, conf=0.3)
    sets = [make_set(0.0, 0, [box(0.0, 0.0, **wall), box(3.0, 0.4, **pole), box(-6.0, -0.3, **pole)]),
            make_set(0.0, 1, [box(0.2, 0.05, **wall), box(3.02, 0.41, **pole)])]
    transforms = {0: IDENTITY, 1: IDENTITY}
    fused = late_fuse(sets, transforms)
    assert len(bounded) == 2 and all(lo >= 0.3 * hi for lo, hi in bounded)
    assert clipped == [pytest.approx([6.0, 6.0])]
    assert fused.provenance == [(0, 1), (0, 1), (0,)]
    monkeypatch.setattr(fusion, "iou_bev", iou_bev)
    assert (fused.boxes, fused.provenance) == all_pairs_fuse(sets, transforms)


def test_late_fuse_merges_a_box_inside_another_at_area_ratio_0_3():
    # a 3 x 3 box inside a 10 x 3 box: IoU 9 / 30, exactly at the threshold and the area bound
    big, small = box(0.0, 0.0, l=10.0, w=3.0, conf=0.9), box(1.0, 0.0, l=3.0, w=3.0, conf=0.5)
    assert iou_bev(big, small) == 0.3
    fused = late_fuse([make_set(0.0, 0, [big]), make_set(0.0, 1, [small])], {0: IDENTITY, 1: IDENTITY})
    assert fused.boxes == [big] and fused.provenance == [(0, 1)]


def shape_of(b):
    """What late_fuse's pair test reads of a box."""
    return (b.x, b.y, math.cos(b.heading), math.sin(b.heading), b.length, b.width, b.length * b.width)


def containment_claims(pairs):
    """Merges the containment bound claims among the pairs, both ways round; the clip must confirm each."""
    claims = []
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            if fusion._bound(shape_of(p), shape_of(q)) is True:
                iou = iou_bev(p, q)
                assert iou >= fusion._IOU_THRESHOLD, (p, q, iou)
                claims.append(iou)
    return claims


def near_threshold_pairs(rng, n):
    """Pairs of a box and a shrunken copy of it, shifted and turned a little: IoU about 0.2 to 0.4."""
    pairs = []
    for _ in range(n):
        l = float(rng.uniform(0.2, 8.0))
        w = l * float(rng.uniform(0.1, 1.0))
        h = float(rng.uniform(-math.pi, math.pi))
        a = box(*rng.uniform(-3, 3, 2).tolist(), l=l, w=w, heading=h)
        s = float(rng.uniform(0.45, 0.65))
        shift = float(rng.uniform(0.0, 0.05)) * l
        turn = h + float(rng.choice([0.0, math.pi])) + float(rng.normal(0.0, 0.01))
        pairs.append((a, box(a.x + shift * math.cos(h), a.y + shift * math.sin(h), l=s * l, w=s * w, heading=turn)))
    return pairs


def overlapping_pairs(rng, n):
    """Pairs of a box and another of similar size and any heading, centered inside it."""
    pairs = []
    for _ in range(n):
        l = float(rng.uniform(0.5, 6.0))
        w = l * float(rng.uniform(0.15, 1.0))
        a = box(*rng.uniform(-3, 3, 2).tolist(), l=l, w=w, heading=float(rng.uniform(-math.pi, math.pi)))
        l_b = l * float(rng.uniform(0.4, 1.2))
        w_b = min(l_b, w * float(rng.uniform(0.4, 1.6)))
        dx, dy = (rng.uniform(-0.3, 0.3, 2) * l).tolist()
        pairs.append((a, box(a.x + dx, a.y + dy, l=l_b, w=w_b, heading=float(rng.uniform(-math.pi, math.pi)))))
    return pairs


def bound_oracle_pairs(far):
    """The seeded pairs, by kind, that the pair test's bounds are checked on, moved about `far` m from the origin."""
    rng = np.random.default_rng(2211)
    offset = rng.uniform(0.1, 1.0, 2) * far
    pairs = oracle_pairs(rng, 200)
    pairs["near_threshold"] = near_threshold_pairs(rng, 1500)
    pairs["overlapping"] = overlapping_pairs(rng, 1500)
    pairs["half_turned"] = [(a, box(a.x, a.y, l=a.length, w=a.width, heading=a.heading + math.pi))
                            for a, _ in pairs["identical"]]
    pairs["touching"] = [tuple(ds.boxes[0] for ds in _touching_sets()), tuple(ds.boxes[1] for ds in _touching_sets())]
    return {kind: moved(kind_pairs, *offset) for kind, kind_pairs in pairs.items()}


FAR = {"near_origin": 0.0, "at_10_km": 1e4, "at_100_km": 1e5, "at_5400_km": 5.4e6}


@pytest.mark.parametrize("far", FAR.values(), ids=FAR.keys())
def test_containment_bound_never_claims_a_merge_the_clip_rejects(far):
    claims = {kind: containment_claims(pairs) for kind, pairs in bound_oracle_pairs(far).items()}
    # a box and its copy, or its copy turned half a turn, contain each other
    assert len(claims["identical"]) == len(claims["half_turned"]) == 2 * 200
    # nested boxes of area ratio below 0.16 and boxes that do not overlap never merge
    assert claims["nested"] == claims["disjoint"] == claims["shared_edge"] == claims["touching"] == []
    # the bound reaches close to the threshold: claims whose clip IoU is below 0.31
    assert sum(iou < 0.31 for iou in claims["near_threshold"]) > 100
    assert len(claims["overlapping"]) > 50


def test_containment_bound_leaves_the_exact_threshold_to_the_clip():
    # the 3 x 3 box fills exactly 0.3 of the union with the 10 x 3 box around it:
    # only the clip decides that pair, and it merges
    big, small = box(0.0, 0.0, l=10.0, w=3.0), box(1.0, 0.0, l=3.0, w=3.0)
    assert fusion._bound(shape_of(small), shape_of(big)) is None
    assert fusion._bound(shape_of(big), shape_of(small)) is None
    # a larger copy of the small box is decided by the bound
    assert fusion._bound(shape_of(box(1.0, 0.0, l=3.01, w=3.0)), shape_of(big)) is True


def short_arc_fleet(seed):
    """1 s on a 4-lane arc (R 400 m): 4 agents in adjacent lanes, 25 SVs every 9 m, sparse beam."""
    v = VehicleSpec
    return ScenarioSpec(
        duration=1.0,
        seed=seed,
        road=RoadSpec(kind="arc", radius=400.0, arc_angle_deg=100.0, n_lanes=4, sample_step=0.5),
        agents=[v(1, 1, 190.0, 25.0), v(2, 2, 170.0, 25.0), v(3, 3, 210.0, 25.0), v(4, 4, 185.0, 25.0)],
        svs=[v(200 + k, 1 + k % 4, 95.0 + 9.0 * k, 21.0 + (7 * k % 9) * 0.9) for k in range(25)],
        sensor=SensorSpec(base_spacing=0.3),
        poles=False,
    )


@functools.cache
def scenario_groups(make_spec, seed):
    """The scenario and its synchronized detection sets."""
    data = generate_scenario(make_spec(seed))
    config = DetectionConfig()
    streams = {aid: [DetectionSet(f.timestamp, aid, detect_objects(f, config)) for f in frames]
               for aid, frames in sorted(data.frames.items())}
    return data, sync_sets(streams, tolerance=0.05)


@pytest.mark.parametrize("seed", [0, 7])
def test_late_fuse_decisions_on_scenario_match_numpy_reference(monkeypatch, seed):
    data, groups = scenario_groups(short_arc_fleet, seed)
    assert [len(g) for g in groups] == [4] * 10

    runs, asked = [], []
    merges = fusion._merges
    for kernel in (iou_bev, reference_iou_bev):
        calls = []

        def recording_merges(box, other, a, b, calls=calls):
            calls.append((box, other, merges(box, other, a, b)))
            return calls[-1][2]

        monkeypatch.setattr(fusion, "iou_bev", kernel)
        monkeypatch.setattr(fusion, "_merges", recording_merges)
        runs.append([late_fuse(g, {ds.agent_id: pose_at(data.poses[ds.agent_id], ds.timestamp) for ds in g})
                     for g in groups])
        asked.append(calls)
    fast, ref = runs
    assert [(f.boxes, f.provenance) for f in fast] == [(r.boxes, r.provenance) for r in ref]
    assert sum(len(p) > 1 for f in fast for p in f.provenance) > 50
    # both runs tested the same pairs with the same outcome, and each outcome is both
    # the clip's and the reference kernel's, whether or not a bound decided it
    assert len(asked[0]) > 100 and asked[0] == asked[1]
    t = fusion._IOU_THRESHOLD
    assert all(merged == (iou_bev(a, b) >= t) == (reference_iou_bev(a, b) >= t) for a, b, merged in asked[0])
    # on every pair tested, the clip and the reference kernel agree; the
    # reference clips absolute coordinates, and at map coordinates of some
    # 300 m its shoelace sums cancel to about 1e-11 of the area
    assert max(abs(iou_bev(a, b) - reference_iou_bev(a, b)) for a, b, _ in asked[0]) <= 1e-10


def test_containment_decides_the_merges_on_scenario(monkeypatch):
    # on short_arc_fleet at seed 0, 285 of the 436 projected candidates merge
    # into a kept box, and the containment bound decides every one of those
    # merges: the clip is never called. On the arc_fleet workload it proves
    # 723 merges, the separation bound rules out 186 disjoint pairs, and the
    # clip decides only the 12 pairs that overlap. On disk_replay (one agent,
    # no merges) the separation bound rules out every pair the area bound
    # leaves, and the clip never runs. The pair test reads only the offset
    # between two boxes, so a map at UTM_SHIFT gives the same counts.
    bound = fusion._bound
    for make_spec, counts in ((short_arc_fleet, (436, 151, 285, 0, 285, 0)),
                              (workloads.arc_fleet, (1215, 490, 723, 186, 921, 12)),
                              (workloads.disk_replay, (493, 493, 0, 180, 180, 0))):
        data, groups = scenario_groups(make_spec, 0)
        for shift in ((0.0, 0.0), UTM_SHIFT):
            poses = moved_scenario(data, shift).poses
            verdicts, clipped = [], []

            def recording_bound(a, b, verdicts=verdicts):
                verdicts.append(bound(a, b))
                return verdicts[-1]

            def counting_iou(a, b, clipped=clipped):
                clipped.append(iou_bev(a, b))
                return clipped[-1]

            monkeypatch.setattr(fusion, "_bound", recording_bound)
            monkeypatch.setattr(fusion, "iou_bev", counting_iou)
            fused = [late_fuse(g, {ds.agent_id: pose_at(poses[ds.agent_id], ds.timestamp) for ds in g}) for g in groups]
            candidates = sum(len(ds.boxes) for g in groups for ds in g)
            got = (candidates, sum(len(f.boxes) for f in fused), verdicts.count(True), verdicts.count(False),
                   len(verdicts), len(clipped))
            assert got == counts, (make_spec.__name__, shift)
            assert all(iou > 0.0 for iou in clipped)


def gated_pairs(monkeypatch, make_spec):
    """Every pair that late_fuse hands to its pair test over one pass of the scenario at seed 0, as box pairs."""
    data, groups = scenario_groups(make_spec, 0)
    pairs = []
    merges = fusion._merges

    def recording_merges(box, other, a, b):
        pairs.append((box, other))
        return merges(box, other, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(fusion, "_merges", recording_merges)
        for g in groups:
            late_fuse(g, {ds.agent_id: pose_at(data.poses[ds.agent_id], ds.timestamp) for ds in g})
    return pairs


def separation_claims(pairs):
    """The pairs, both ways round, that the separation bound rules out; the clip must reject each."""
    claims = []
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            if fusion._bound(shape_of(p), shape_of(q)) is False:
                iou = iou_bev(p, q)
                assert iou < fusion._IOU_THRESHOLD, (p, q, iou)
                claims.append(iou)
    return claims


@pytest.mark.parametrize("far", FAR.values(), ids=FAR.keys())
def test_separation_bound_never_rules_out_a_pair_the_clip_merges(far):
    claims = {kind: separation_claims(pairs) for kind, pairs in bound_oracle_pairs(far).items()}
    # boxes whose circles meet but whose footprints do not are ruled out, both ways round
    assert len(claims["disjoint"]) == 2 * 200
    # boxes that overlap are left to the other bound and the clip; boxes that share an edge or a
    # corner may be ruled out where moving them rounds their centers apart
    for kind in ("identical", "half_turned", "nested", "near_threshold"):
        assert claims[kind] == [], kind
    # every pair ruled out clips to nothing but rounding, the random and overlapping kinds' disjoint ones included
    assert all(iou < 1e-9 for kind_claims in claims.values() for iou in kind_claims)
    assert claims["random"] and claims["overlapping"]


@pytest.mark.parametrize("make_spec", [workloads.arc_fleet, workloads.disk_replay], ids=["arc_fleet", "disk_replay"])
def test_separation_bound_agrees_with_the_clip_on_every_gated_pair(monkeypatch, make_spec):
    # every pair of one pass that meets the circle gate, both ways round, whatever the area bound says
    pairs = gated_pairs(monkeypatch, make_spec)
    claims = separation_claims(pairs)
    assert len(pairs) == {"arc_fleet": 1058, "disk_replay": 755}[make_spec.__name__]
    assert len(claims) > 300 and all(iou == 0.0 for iou in claims)
