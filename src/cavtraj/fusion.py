"""Late fusion of per-agent detections in a common frame.

Per-agent detection sets are synchronized by timestamp, projected into a
common frame by rigid transform, and deduplicated by BEV IoU, keeping the
higher-confidence box of each overlapping pair.

The IoU is computed only for pairs whose circumcircles, of radius
½·hypot(length, width), meet (with a relative slack of 1e-9 against
rounding). Disjoint circles mean disjoint footprints and an IoU of 0, below
any threshold in (0, 1], so the gate changes no fusion decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .detection import OrientedBox
from .errors import InvalidArgument, ValidationError
from .geometry import RigidTransform, wrap_angle


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

    Greedy: the earliest unconsumed set anchors a group; every other agent
    contributes its nearest unconsumed set within `tolerance`. Sets with no
    partner pass through alone.
    """
    for agent_id, sets in streams.items():
        times = [s.timestamp for s in sets]
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvalidArgument(f"detection stream of agent {agent_id} is not time-ordered")
        if any(s.agent_id != agent_id for s in sets):
            raise InvalidArgument(f"stream of agent {agent_id} contains foreign sets")

    pending = {aid: list(sets) for aid, sets in streams.items()}
    groups = []
    while any(pending.values()):
        anchor_aid = min(
            (aid for aid in pending if pending[aid]),
            key=lambda aid: (pending[aid][0].timestamp, aid),
        )
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


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clipping of `subject` by convex ccw polygon `clip`."""
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


def iou_bev(a: OrientedBox, b: OrientedBox) -> float:
    """Bird's-eye-view IoU of two oriented boxes via convex polygon clipping."""
    pa, pb = a.footprint(), b.footprint()
    inter_poly = _clip_polygon(pa, pb)
    inter = _polygon_area(inter_poly) if len(inter_poly) >= 3 else 0.0
    union = _polygon_area(pa) + _polygon_area(pb) - inter
    if union <= 0.0:
        return 0.0
    return float(min(1.0, max(0.0, inter / union)))


def project_box(box: OrientedBox, transform: RigidTransform) -> OrientedBox:
    """Re-express a box in another frame as an upright box.

    The center is transformed as a point. The heading is that of the
    transformed length axis projected onto the ground plane. The dimensions
    carry over unchanged.
    """
    rot = transform.rotation
    center = rot @ (box.x, box.y, box.z) + transform.translation
    axis = rot @ (math.cos(box.heading), math.sin(box.heading), 0.0)
    return OrientedBox(
        x=float(center[0]),
        y=float(center[1]),
        z=float(center[2]),
        length=box.length,
        width=box.width,
        height=box.height,
        heading=wrap_angle(math.atan2(axis[1], axis[0])),
        confidence=box.confidence,
    )


def late_fuse(
    sets: list[DetectionSet],
    transforms: dict[int, RigidTransform],
    iou_threshold: float = 0.3,
) -> FusedFrame:
    """Merge synchronized per-agent detections in the common frame.

    Boxes overlapping with BEV IoU >= threshold collapse to the
    higher-confidence one (ties: lower agent id); provenance records every
    agent whose detection merged into the surviving box. A box joins the
    first kept box it overlaps.
    """
    if not sets:
        raise InvalidArgument("late_fuse needs at least one detection set")
    if not 0.0 < iou_threshold <= 1.0:
        raise InvalidArgument(f"iou_threshold must be in (0, 1]: {iou_threshold}")
    for ds in sets:
        if ds.agent_id not in transforms:
            raise ValidationError(f"missing transform for agent {ds.agent_id}")

    candidates = []
    for ds in sorted(sets, key=lambda s: s.agent_id):
        t = transforms[ds.agent_id]
        for box in ds.boxes:
            candidates.append((project_box(box, t), ds.agent_id))

    # higher confidence wins; ties by lower agent id, then input order
    order = sorted(
        range(len(candidates)),
        key=lambda k: (-candidates[k][0].confidence, candidates[k][1], k),
    )
    kept: list[OrientedBox] = []
    contributors: list[set[int]] = []
    kept_x, kept_y, kept_r = (np.empty(len(candidates)) for _ in range(3))
    for k in order:
        box, aid = candidates[k]
        n = len(kept)
        radius = 0.5 * math.hypot(box.length, box.width)
        gap = np.hypot(kept_x[:n] - box.x, kept_y[:n] - box.y)
        for i in np.flatnonzero(gap <= (kept_r[:n] + radius) * (1.0 + 1e-9)):
            if iou_bev(box, kept[i]) >= iou_threshold:
                contributors[i].add(aid)
                break
        else:
            kept_x[n], kept_y[n], kept_r[n] = box.x, box.y, radius
            kept.append(box)
            contributors.append({aid})

    anchor_time = sets[0].timestamp
    return FusedFrame(
        timestamp=anchor_time,
        boxes=kept,
        provenance=[tuple(sorted(c)) for c in contributors],
    )
