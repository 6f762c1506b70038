"""Late fusion of per-agent detections in a common frame.

Per-agent detection sets are synchronized by timestamp, projected into a
common frame by rigid transform, and deduplicated by BEV IoU, keeping the
higher-confidence box of each overlapping pair.

BEV IoU clips one footprint by the other in plain Python floats, without
NumPy: Sutherland-Hodgman (Sutherland & Hodgman, 1974) cuts the four
corners of the first box by each edge of the second in turn. A vertex is
inside an edge when its signed distance is >= -1e-12; where a polygon edge
crosses the clip edge and the two signed distances differ by more than
1e-15, the crossing point prev + t * (cur - prev) joins the polygon. The
areas are shoelace sums.

The IoU is computed only for pairs whose circumcircles, of radius
½·hypot(length, width), meet (with a relative slack of 1e-9 against
rounding). Disjoint circles mean disjoint footprints and an IoU of 0, below
the merge threshold, so the gate changes no fusion decision. `late_fuse`
evaluates the gate for every pair of candidates in one (N, N) comparison,
with the same float operations as pair by pair.

A pair that passes the gate is clipped only if two bounds leave it open;
each decides only pairs the clip decides alike. Let t = 0.3, A and B be
the areas (length times width), I and U = A + B − I the exact intersection
and union, ε = 2^-52, w the lesser width and S = max(|xa|, |ya|, |xb|,
|yb|) + ℓa + ℓb, which bounds every coordinate the clip handles. Shoelace
sums of at most 8 vertices round by at most 32·ε·S², the vertices' own
rounding moves an area by at most as much again, and a dropped crossing
point loses at most 8e-15·S/w, so the clip's IoU is at least (I − e) /
(U + 3e) for e = 64·ε·S² + 8e-15·S/w; its inside tolerance of 1e-12 grows
the intersection by at most 4e-12·S/w. The area bound rules a pair out
when min(A, B) < t·max(A, B)·(1 − 1e-6), as I <= min(A, B) and U >=
max(A, B); its slack covers 1.9·e and that growth while they stay below
t·1e-6·max(A, B): for w >= 0.1 m, out to S of about 2.7 km·√(max(A, B) /
1 m²). The containment bound rules a pair in: with Δ the heading
difference and (u, v) a's center in b's frame, a scaled by s about its
center lies inside b if and only if |u| + s·(ℓa·|cos Δ| + wa·|sin Δ|)/2
<= ℓb/2 and |v| + s·(ℓa·|sin Δ| + wa·|cos Δ|)/2 <= wb/2. With s_ab the
largest such s in [0, 1] (0 if none) and s_ba that of b in a, I >= I' =
max(s_ab²·A, s_ba²·B), which rounds by at most 32·ε·S²; the IoU grows
with I, so the clip's IoU reaches t where (1 + t)·I' >= t·(A + B) +
163·ε·S² + 1.52e-14·S/w. The bound adds 256·ε·S² + 2e-14·S/w, room for
the rounding of the comparison and of the clip's division (2e-9 of
t·(A + B) for a car at 400 m). It decides most merges of two views of one
vehicle, at a quarter of the clip's cost.

`project_box` projects all boxes of one set at once: their centers and
heading axes are stacked into (2N, 3, 1) columns and multiplied by the
rotation as one stacked mat-vec, which rounds each vector exactly as the
single product rot @ (x, y, z) does. Stacking them as rows, centers @
rot.T, would sum in a different order and change the last bits. A
rotation keeps every check of `OrientedBox` but the centers' finiteness,
which is tested once per set; `OrientedBox._from_rows` builds the boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import OrientedBox
from .errors import InvalidArgument, ValidationError, check_number
from .geometry import RigidTransform

_IOU_THRESHOLD = 0.3    # boxes overlapping at this BEV IoU or more are one object
_AREA_FLOOR = _IOU_THRESHOLD * (1.0 - 1e-6)  # below this area ratio a pair cannot merge


@dataclass
class DetectionSet:
    """All boxes detected by one agent in one frame (agent coordinates)."""

    timestamp: float
    agent_id: int
    boxes: list[OrientedBox] = field(default_factory=list)


@dataclass
class FusedFrame:
    """Deduplicated boxes in the common frame with per-box agent provenance."""

    timestamp: float
    boxes: list[OrientedBox] = field(default_factory=list)
    provenance: list[tuple[int, ...]] = field(default_factory=list)


def sync_sets(streams: dict[int, list[DetectionSet]], tolerance: float) -> list[list[DetectionSet]]:
    """Group per-agent detection sets into synchronized tuples.

    Greedy: the earliest unconsumed set anchors a group (the lowest agent id
    on a tie); every other agent contributes its first unconsumed set if that
    lies within `tolerance`. Each stream is time-ordered and the anchor is
    the earliest of all unconsumed sets, so an agent's first unconsumed set
    is also its nearest to the anchor, and the groups come out in anchor
    time order. Sets with no partner pass through alone.
    """
    check_number(tolerance, "tolerance", least=0)
    for agent_id, sets in streams.items():
        times = [s.timestamp for s in sets]
        for t in times:
            check_number(t, f"timestamp in the detection stream of agent {agent_id}")
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvalidArgument(f"detection stream of agent {agent_id} is not time-ordered")
        if any(s.agent_id != agent_id for s in sets):
            raise InvalidArgument(f"stream of agent {agent_id} contains foreign sets")

    heads = dict.fromkeys(sorted(streams), 0)
    groups = []
    while first := {aid: streams[aid][k] for aid, k in heads.items() if k < len(streams[aid])}:
        anchor = min(first.values(), key=lambda ds: ds.timestamp)
        group = [anchor] + [
            ds for ds in first.values() if ds is not anchor and ds.timestamp - anchor.timestamp <= tolerance
        ]
        for ds in group:
            heads[ds.agent_id] += 1
        groups.append(group)
    return groups


def _shoelace(poly: list[tuple[float, float]]) -> float:
    """Area of a simple polygon given as (x, y) pairs."""
    xy = yx = 0.0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        xy += x0 * y1
        yx += y0 * x1
    return 0.5 * abs(xy - yx)


def iou_bev(a: OrientedBox, b: OrientedBox) -> float:
    """Bird's-eye-view IoU of two oriented boxes via convex polygon clipping."""
    pa, pb = a.footprint(), b.footprint()
    inter = pa
    for (ax, ay), (bx, by) in zip(pb, pb[1:] + pb[:1]):
        if not inter:
            break
        ex, ey = bx - ax, by - ay
        inputs, inter = inter, []
        # signed distance from the clip edge; >= -1e-12 means inside (left of edge)
        px, py = inputs[-1]
        s_prev = ex * (py - ay) - ey * (px - ax)
        for cx, cy in inputs:
            s_cur = ex * (cy - ay) - ey * (cx - ax)
            if (s_cur >= -1e-12) != (s_prev >= -1e-12):
                denom = s_prev - s_cur
                if abs(denom) > 1e-15:
                    t = s_prev / denom
                    inter.append((px + t * (cx - px), py + t * (cy - py)))
            if s_cur >= -1e-12:
                inter.append((cx, cy))
            px, py, s_prev = cx, cy, s_cur
    inter_area = _shoelace(inter) if len(inter) >= 3 else 0.0
    union = _shoelace(pa) + _shoelace(pb) - inter_area
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter_area / union))


def _contained_enough(a: tuple, b: tuple) -> bool:
    """Whether containment proves iou_bev >= _IOU_THRESHOLD for two boxes' `late_fuse` shapes (module docstring)."""
    ax, ay, ac, as_, al, aw, a_area = a
    bx, by, bc, bs, bl, bw, b_area = b
    dx, dy = ax - bx, ay - by
    cos_d, sin_d = abs(ac * bc + as_ * bs), abs(as_ * bc - ac * bs)
    # the largest scale in [0, 1] of a about its center that fits inside b, from a's center in b's frame
    s_ab = max(0.0, min(1.0, (bl - 2.0 * abs(dx * bc + dy * bs)) / (al * cos_d + aw * sin_d),
                        (bw - 2.0 * abs(dy * bc - dx * bs)) / (al * sin_d + aw * cos_d)))
    s_ba = max(0.0, min(1.0, (al - 2.0 * abs(dx * ac + dy * as_)) / (bl * cos_d + bw * sin_d),
                        (aw - 2.0 * abs(dy * ac - dx * as_)) / (bl * sin_d + bw * cos_d)))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by)) + al + bl
    slack = 2.0 ** -44 * scale * scale + 2e-14 * scale / min(aw, bw)  # 256·ε·S² + 2e-14·S/w
    inter = max(s_ab * s_ab * a_area, s_ba * s_ba * b_area)
    return (1.0 + _IOU_THRESHOLD) * inter >= _IOU_THRESHOLD * (a_area + b_area) + slack


def _merges(box: OrientedBox, other: OrientedBox, a: tuple, b: tuple) -> bool:
    """iou_bev(box, other) >= _IOU_THRESHOLD, by a bound where one decides; a, b: the boxes' `late_fuse` shapes."""
    return min(a[6], b[6]) >= _AREA_FLOOR * max(a[6], b[6]) and (
        _contained_enough(a, b) or iou_bev(box, other) >= _IOU_THRESHOLD)


def project_box(boxes: list[OrientedBox], transform: RigidTransform) -> list[OrientedBox]:
    """Re-express boxes in another frame as upright boxes.

    Each center is transformed as a point. A heading is that of the
    transformed length axis projected onto the ground plane. The dimensions
    carry over unchanged.
    """
    if not boxes:
        return []
    # centers and heading axes, one stacked mat-vec per vector: each rounds as rot @ (x, y, z) alone does
    vectors = np.array([(b.x, b.y, b.z, math.cos(b.heading), math.sin(b.heading), 0.0) for b in boxes])
    vectors = (transform.rotation @ vectors.reshape(-1, 3, 1)).reshape(-1, 6)
    centers = vectors[:, :3] + transform.translation
    rows = [(x, y, z, b.length, b.width, b.height, math.atan2(ay, ax), b.confidence)
            for b, (x, y, z), (ax, ay) in zip(boxes, centers.tolist(), vectors[:, 3:5].tolist())]
    return OrientedBox._from_rows(rows, bool(np.isfinite(centers).all()))


def late_fuse(sets: list[DetectionSet], transforms: dict[int, RigidTransform]) -> FusedFrame:
    """Merge synchronized per-agent detections in the common frame.

    Boxes overlapping with BEV IoU >= _IOU_THRESHOLD collapse to the
    higher-confidence one (ties: lower agent id); provenance records every
    agent whose detection merged into the surviving box. A box joins the
    first kept box it overlaps.
    """
    if not sets:
        raise InvalidArgument("late_fuse needs at least one detection set")
    for ds in sets:
        if ds.agent_id not in transforms:
            raise ValidationError(f"missing transform for agent {ds.agent_id}")

    candidates = []
    for ds in sorted(sets, key=lambda s: s.agent_id):
        candidates += [(box, ds.agent_id) for box in project_box(ds.boxes, transforms[ds.agent_id])]
    # rank order: higher confidence first; ties by lower agent id, then input order (the sort is stable)
    candidates.sort(key=lambda c: (-c[0].confidence, c[1]))
    # each candidate's shape, what the pair test reads: center, heading's cosine and sine, length, width, area
    shape = [(b.x, b.y, math.cos(b.heading), math.sin(b.heading), b.length, b.width, b.length * b.width)
             for b, _ in candidates]

    # the circle gate of every pair at once; a kept box is tested only if it meets the candidate's circle
    x, y, radius = np.array([(a[0], a[1], 0.5 * math.hypot(a[4], a[5])) for a in shape]).reshape(-1, 3).T
    near = np.hypot(x[:, None] - x, y[:, None] - y) <= (radius[:, None] + radius) * (1.0 + 1e-9)
    # each candidate's higher-ranked neighbours, ascending; kept boxes are in rank order too
    earlier: list[list[int]] = [[] for _ in candidates]
    for k, j in zip(*(a.tolist() for a in np.nonzero(np.tril(near, -1)))):
        earlier[k].append(j)

    kept: list[OrientedBox] = []
    contributors: list[set[int]] = []
    slot: list[int | None] = []  # rank -> position in kept, None if merged
    for (box, aid), a, neighbours in zip(candidates, shape, earlier):
        for j in neighbours:
            i = slot[j]
            if i is not None and _merges(box, kept[i], a, shape[j]):
                contributors[i].add(aid)
                slot.append(None)
                break
        else:
            slot.append(len(kept))
            kept.append(box)
            contributors.append({aid})

    return FusedFrame(timestamp=sets[0].timestamp, boxes=kept, provenance=[tuple(sorted(c)) for c in contributors])
