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
with the same float operations as pair by pair. A pair that passes the gate
is still not clipped when its footprint areas A and B (length times width)
satisfy min(A, B) < 0.3 * max(A, B) * (1 - 1e-6): the intersection is at
most min(A, B) and the union at least max(A, B), so the IoU is below the
threshold. The relative slack of 1e-6 is far above the rounding of the
clipped areas, so no pair whose computed IoU could reach the threshold is
skipped, and a pair at exactly the threshold ratio is still clipped. The
bound is one float comparison per pair; it spares the clip of a pole
against a wall or a vehicle.

`project_box` projects all boxes of one set at once: their centers and
heading axes are stacked into (N, 3, 1) columns and multiplied by the
rotation as one stacked mat-vec, which rounds each box exactly as the
single product rot @ (x, y, z) does. Stacking them as rows, centers @
rot.T, would sum in a different order and change the last bits.
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


def project_box(boxes: list[OrientedBox], transform: RigidTransform) -> list[OrientedBox]:
    """Re-express boxes in another frame as upright boxes.

    Each center is transformed as a point. A heading is that of the
    transformed length axis projected onto the ground plane. The dimensions
    carry over unchanged.
    """
    if not boxes:
        return []
    rot = transform.rotation
    centers = np.array([(b.x, b.y, b.z) for b in boxes])
    axes = np.array([(math.cos(b.heading), math.sin(b.heading), 0.0) for b in boxes])
    # one mat-vec per box, stacked: each rounds as rot @ (x, y, z) alone does
    centers = (rot @ centers[:, :, None])[:, :, 0] + transform.translation
    axes = (rot @ axes[:, :, None])[:, :, 0]
    return [
        OrientedBox(
            x=x,
            y=y,
            z=z,
            length=box.length,
            width=box.width,
            height=box.height,
            heading=math.atan2(ay, ax),
            confidence=box.confidence,
        )
        for box, (x, y, z), (ax, ay, _) in zip(boxes, centers.tolist(), axes.tolist())
    ]


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

    # the circle gate of every pair at once; a kept box is tested only if it meets the candidate's circle
    x = np.array([b.x for b, _ in candidates])
    y = np.array([b.y for b, _ in candidates])
    radius = np.array([0.5 * math.hypot(b.length, b.width) for b, _ in candidates])
    near = np.hypot(x[:, None] - x, y[:, None] - y) <= (radius[:, None] + radius) * (1.0 + 1e-9)
    # each candidate's higher-ranked neighbours, ascending; kept boxes are in rank order too
    earlier: list[list[int]] = [[] for _ in candidates]
    for k, j in zip(*(a.tolist() for a in np.nonzero(np.tril(near, -1)))):
        earlier[k].append(j)

    kept: list[OrientedBox] = []
    kept_area: list[float] = []
    contributors: list[set[int]] = []
    slot: list[int | None] = []  # rank -> position in kept, None if merged
    for (box, aid), neighbours in zip(candidates, earlier):
        area = box.length * box.width
        for i in (slot[j] for j in neighbours if slot[j] is not None):
            if min(area, kept_area[i]) < _AREA_FLOOR * max(area, kept_area[i]):
                continue
            if iou_bev(box, kept[i]) >= _IOU_THRESHOLD:
                contributors[i].add(aid)
                slot.append(None)
                break
        else:
            slot.append(len(kept))
            kept.append(box)
            kept_area.append(area)
            contributors.append({aid})

    anchor_time = sets[0].timestamp
    return FusedFrame(
        timestamp=anchor_time,
        boxes=kept,
        provenance=[tuple(sorted(c)) for c in contributors],
    )
