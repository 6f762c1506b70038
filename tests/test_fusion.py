import math

import numpy as np
import pytest

from cavtraj.detection import OrientedBox
from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj import fusion
from cavtraj.fusion import DetectionSet, iou_bev, late_fuse, project_box, sync_sets
from cavtraj.geometry import EulerAngles, RigidTransform


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


def test_sync_three_agents():
    streams = {
        0: [make_set(0.0, 0), make_set(0.1, 0)],
        1: [make_set(0.01, 1), make_set(0.11, 1)],
        2: [make_set(0.5, 2)],
    }
    groups = sync_sets(streams, tolerance=0.05)
    assert [len(g) for g in groups] == [2, 2, 1]


# --- BEV IoU -------------------------------------------------------------------


def raster_iou(a, b, n=700):
    """Fine-raster oracle: point-in-box tests on a dense grid."""
    corners = np.vstack([a.footprint(), b.footprint()])
    lo = corners.min(axis=0) - 0.1
    hi = corners.max(axis=0) + 0.1
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.c_[gx.ravel(), gy.ravel(), np.zeros(n * n)]
    in_a = a.contains_bev(pts)
    in_b = b.contains_bev(pts)
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
    assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-3)


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


# --- projection and late fusion ------------------------------------------------


def test_project_box_preserves_dims():
    rng = np.random.default_rng(31)
    for _ in range(30):
        b = box(rng.uniform(-20, 20), rng.uniform(-20, 20), l=rng.uniform(3, 6),
                w=rng.uniform(1.5, 2.5), heading=rng.uniform(-math.pi, math.pi))
        t = RigidTransform.from_euler_translation(
            EulerAngles(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(-math.pi, math.pi)),
            rng.uniform(-50, 50, 3),
        )
        p = project_box(b, t)
        assert p.length == pytest.approx(b.length, abs=1e-6)
        assert p.width == pytest.approx(b.width, abs=1e-6)
        assert p.height == pytest.approx(b.height, abs=1e-6)


def test_project_box_pure_yaw_moves_heading():
    b = box(10.0, 0.0, heading=0.3)
    t = RigidTransform.from_euler_translation(EulerAngles(0, 0, math.pi / 2), [0, 0, 0])
    p = project_box(b, t)
    assert p.heading == pytest.approx(0.3 + math.pi / 2, abs=1e-9)
    assert (p.x, p.y) == pytest.approx((0.0, 10.0), abs=1e-9)


def test_late_fuse_single_agent_passthrough():
    s = make_set(0.0, 0, [box(5, 0), box(20, 3)])
    fused = late_fuse([s], {0: RigidTransform.identity()})
    assert len(fused.boxes) == 2
    assert fused.provenance == [(0,), (0,)]


def test_late_fuse_duplicate_keeps_higher_confidence():
    winner = box(10.0, 0.0, l=4.4, w=2.0, conf=0.9)
    loser = box(10.3, 0.1, l=3.9, w=1.8, conf=0.5)
    s0 = make_set(0.0, 0, [winner])
    s1 = make_set(0.0, 1, [loser])
    assert iou_bev(winner, loser) > 0.3
    fused = late_fuse([s0, s1], {0: RigidTransform.identity(), 1: RigidTransform.identity()})
    assert len(fused.boxes) == 1
    assert fused.boxes[0].length == pytest.approx(4.4)
    assert fused.provenance == [(0, 1)]


def test_late_fuse_distinct_objects_all_kept():
    s0 = make_set(0.0, 0, [box(0, 0)])
    s1 = make_set(0.0, 1, [box(30, 0)])
    fused = late_fuse([s0, s1], {0: RigidTransform.identity(), 1: RigidTransform.identity()})
    assert len(fused.boxes) == 2


def test_late_fuse_confidence_tie_prefers_lower_agent_id():
    b0 = box(10.0, 0.0, l=4.2, conf=0.7)
    b1 = box(10.1, 0.0, l=3.8, conf=0.7)
    fused = late_fuse(
        [make_set(0.0, 1, [b1]), make_set(0.0, 0, [b0])],
        {0: RigidTransform.identity(), 1: RigidTransform.identity()},
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
    fused = late_fuse([s0, s1], {0: RigidTransform.identity(), 1: RigidTransform.identity()})
    assert len(fused.boxes) == len(boxes)


def test_late_fuse_output_has_no_overlapping_pair():
    rng = np.random.default_rng(71)
    boxes0 = [box(rng.uniform(-30, 30), rng.uniform(-8, 8), conf=rng.uniform(0.2, 1)) for _ in range(12)]
    boxes1 = [box(rng.uniform(-30, 30), rng.uniform(-8, 8), conf=rng.uniform(0.2, 1)) for _ in range(12)]
    fused = late_fuse(
        [make_set(0.0, 0, boxes0), make_set(0.0, 1, boxes1)],
        {0: RigidTransform.identity(), 1: RigidTransform.identity()},
        iou_threshold=0.3,
    )
    for i in range(len(fused.boxes)):
        for j in range(i + 1, len(fused.boxes)):
            assert iou_bev(fused.boxes[i], fused.boxes[j]) < 0.3


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5, float("nan")])
def test_late_fuse_threshold_outside_unit_interval_rejected(threshold):
    s = make_set(0.0, 0, [box(0, 0)])
    with pytest.raises(InvalidArgument, match="iou_threshold"):
        late_fuse([s], {0: RigidTransform.identity()}, iou_threshold=threshold)


def all_pairs_fuse(sets, transforms, iou_threshold):
    """Reference: every candidate is tested against every kept box, in kept order."""
    candidates = []
    for ds in sorted(sets, key=lambda s: s.agent_id):
        candidates += [(project_box(b, transforms[ds.agent_id]), ds.agent_id) for b in ds.boxes]
    order = sorted(range(len(candidates)), key=lambda k: (-candidates[k][0].confidence, candidates[k][1], k))
    kept, contributors = [], []
    for k in order:
        b, aid = candidates[k]
        for i, other in enumerate(kept):
            if iou_bev(b, other) >= iou_threshold:
                contributors[i].add(aid)
                break
        else:
            kept.append(b)
            contributors.append({aid})
    return kept, [tuple(sorted(c)) for c in contributors]


def _touching_sets():
    # two pairs whose circumcircles touch exactly (d == r_a + r_b in floating
    # point) where their footprints meet corner to corner, one rotated, one
    # axis-aligned. Clipping the first pair leaves a sliver of rounding-level
    # area (IoU about 2e-33), so at a threshold below that the two boxes
    # merge: the gate must let touching circles through.
    diag = -math.atan2(3.0, 4.0)
    return [
        make_set(0.0, 0, [box(0.0, 0.0, l=4.0, w=3.0, heading=diag, conf=0.8),
                          box(20.0, 0.0, l=4.0, w=2.0, conf=0.9)]),
        make_set(0.0, 1, [box(5.0, 0.0, l=4.0, w=3.0, heading=diag, conf=0.9),
                          box(24.0, 2.0, l=4.0, w=2.0, conf=0.8)]),
    ]


@pytest.mark.parametrize("threshold", [1e-40, 1e-12, 0.05, 0.3, 0.7, 1.0])
def test_late_fuse_matches_all_pairs_reference(threshold):
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
        transforms = {ds.agent_id: RigidTransform.identity() for ds in sets}
        fused = late_fuse(sets, transforms, iou_threshold=threshold)
        assert (fused.boxes, fused.provenance) == all_pairs_fuse(sets, transforms, threshold)


def test_late_fuse_tests_only_kept_boxes_with_overlapping_circles(monkeypatch):
    calls = []

    def counting_iou(a, b):
        calls.append((round(a.x, 6), round(b.x, 6)))
        return iou_bev(a, b)

    monkeypatch.setattr(fusion, "iou_bev", counting_iou)
    sets = [make_set(0.0, 0, [box(0, 0), box(30, 0), box(60, 0)]),
            make_set(0.0, 1, [box(0.5, 0, conf=0.5), box(64.4, 0, conf=0.5)])]
    fused = late_fuse(sets, {0: RigidTransform.identity(), 1: RigidTransform.identity()})
    # circumradius of a 4 x 2 box is sqrt(5): 0.5 m and 4.4 m gaps are inside 2*sqrt(5)
    assert sorted(calls) == [(0.5, 0.0), (64.4, 60.0)]
    assert fused.provenance == [(0, 1), (0,), (0,), (1,)]
