"""Vector map with Frenet projection, on-road tests, and lane lookup.

The map is a set of lanelets (atomic lane segments) with centerline and
boundary polylines. Downtrack distance is measured from the start of a
lanelet's chain (predecessors of the same lane); crosstrack is positive to
the right of the driving direction.

Each centerline vertex carries a unit normal that bisects the normals of its
two adjacent segments; at a lanelet joint the neighbour segment is the first
or last one of the same-lane successor or predecessor, so both lanelets share
the joint normal. Along a segment the normal is interpolated linearly between
its two vertex normals. A point's foot is where it lies on that interpolated
normal: downtrack is the chain offset plus the centerline length up to the
foot, crosstrack the signed distance from the foot along the normal. The
normals form a continuous field, so downtrack advances smoothly along curves
and across joints; for evenly spaced vertices on a circle the normal line is
exactly radial.

The lanelet choice, the corridor test and the lane count use the nearest
chord of each polyline. At load every segment of every centerline and
boundary is stacked into flat arrays, so a query is one vectorised
projection onto all segments (no spatial prefilter); `np.minimum.reduceat`
gives each polyline's least distance and the first segment attaining it,
the one a per-polyline `argmin` picks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ValidationError

_CONNECT_TOL = 0.1  # m, successor start must sit on predecessor end


@dataclass(frozen=True)
class FrenetCoord:
    """Road-aligned coordinates plus lane bookkeeping.

    `downtrack` is the distance along the lane chain to the foot of the point
    on the interpolated vertex normal; `crosstrack` is the signed distance
    from that foot along the normal, positive to the right. The lanelet, lane
    and lane count come from chord distances (see the module docstring).
    """

    downtrack: float
    crosstrack: float
    lanelet_id: int
    lane_id: int
    total_lanes: int


def _right_normal(direction: np.ndarray) -> np.ndarray:
    """Unit directions (last axis) turned a quarter turn clockwise."""
    return np.stack([direction[..., 1], -direction[..., 0]], axis=-1)


def _bisect(n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
    """Unit vectors halfway between the unit vectors n0 and n1 (last axis)."""
    mid = n0 + n1
    norm = np.hypot(mid[..., 0], mid[..., 1])
    if np.any(norm < 1e-9):
        raise ValidationError("polyline turns back on itself")
    return mid / norm[..., None]


class _Polyline:
    """2D polyline with cached segment geometry and vertex normals."""

    __slots__ = ("points", "seg_start", "seg_dir", "seg_len", "cum_len", "length", "normals")

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        self.points = pts
        d = np.diff(pts[:, :2], axis=0)
        self.seg_len = np.hypot(d[:, 0], d[:, 1])
        if np.any(self.seg_len < 1e-9):
            raise ValidationError("polyline has zero-length segment")
        self.seg_start = pts[:-1, :2]
        self.seg_dir = d / self.seg_len[:, None]
        self.cum_len = np.r_[0.0, np.cumsum(self.seg_len)]
        self.length = float(self.cum_len[-1])
        seg_normal = _right_normal(self.seg_dir)
        # right-pointing unit normal per vertex; the two ends keep their
        # segment's normal until VectorMap joins them to a neighbour lanelet
        self.normals = np.r_[seg_normal[:1], _bisect(seg_normal[:-1], seg_normal[1:]), seg_normal[-1:]]

    def frenet(self, xy, s_chord: float) -> tuple[float, float]:
        """Arc length and right-positive crosstrack of the foot on the vertex normals.

        On segment k with unit direction e and length L the foot is
        P(u) = start + u·e, at the u where p − P(u) is parallel to
        N(u) = N_k + (u/L)·(N_{k+1} − N_k). The search starts on the segment
        holding `s_chord` (the nearest chord's foot) and walks to the neighbour
        while u leaves [0, L]. On the first and last segment u extrapolates past
        the end, which keeps downtrack continuous across lanelet joints.
        """
        p = np.asarray(xy, dtype=float)[:2]
        last = len(self.seg_len) - 1
        k = min(int(np.searchsorted(self.cum_len, s_chord, side="right")) - 1, last)
        u = self._foot(p, k)
        step = 1 if u > self.seg_len[k] else -1
        while (u > self.seg_len[k] if step > 0 else u < 0.0) and 0 <= k + step <= last:
            k += step
            u = self._foot(p, k)
        if (u < 0.0 and k > 0) or (u > self.seg_len[k] and k < last):
            # walked past the point: it lies where the normals of neighbouring
            # segments cross (inside a sharp bend); take their shared vertex
            u = min(max(u, 0.0), float(self.seg_len[k]))
        n0, n1 = self.normals[k], self.normals[k + 1]
        normal = n0 + (u / self.seg_len[k]) * (n1 - n0)
        off = p - self.seg_start[k] - u * self.seg_dir[k]
        cross = (off[0] * normal[0] + off[1] * normal[1]) / math.hypot(normal[0], normal[1])
        return float(self.cum_len[k] + u), float(cross)

    def _foot(self, p: np.ndarray, k: int) -> float:
        # p − P(u) ∥ N(u) is cross(r − u·e, N_k + u·m) = 0 with r = p − start
        # and m = (N_{k+1} − N_k)/L, i.e. qa·u² + qb·u + qc = 0. The root taken
        # tends to −qc/qb as the segment straightens (m → 0), where 2·qc/den
        # stays exact.
        ex, ey = self.seg_dir[k].tolist()
        nx, ny = self.normals[k].tolist()
        mx, my = ((self.normals[k + 1] - self.normals[k]) / self.seg_len[k]).tolist()
        rx, ry = (p - self.seg_start[k]).tolist()
        qa = mx * ey - my * ex
        qb = (rx * my - ry * mx) - (ex * ny - ey * nx)
        qc = rx * ny - ry * nx
        den = -qb - math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb)
        if den == 0.0:
            return float(rx * ex + ry * ey)  # no foot on this segment's normals
        return float(2.0 * qc / den)


@dataclass
class Lanelet:
    lanelet_id: int
    lane_id: int
    centerline: _Polyline
    left_boundary: _Polyline
    right_boundary: _Polyline
    predecessors: tuple[int, ...]
    successors: tuple[int, ...]
    chain_offset: float = 0.0  # downtrack of this lanelet's start within its lane chain

    @property
    def length(self) -> float:
        return self.centerline.length


def _join_normals(pred: Lanelet, succ: Lanelet) -> None:
    """Give the joint of two same-lane lanelets one vertex normal, shared by both."""
    a, b = pred.centerline, succ.centerline
    try:
        joint = _bisect(_right_normal(a.seg_dir[-1]), _right_normal(b.seg_dir[0]))
    except ValidationError as exc:
        raise ValidationError(f"lanelets {pred.lanelet_id} -> {succ.lanelet_id}: {exc}") from exc
    a.normals[-1] = joint
    b.normals[0] = joint


class VectorMap:
    """Immutable-after-load lanelet map supporting Frenet queries."""

    def __init__(self, lanelets: list[Lanelet], name: str = "", lateral_window: float = 15.0):
        self.name = name
        self.lateral_window = lateral_window
        self.lanelets: dict[int, Lanelet] = {}
        for ll in lanelets:
            if ll.lanelet_id in self.lanelets:
                raise ValidationError(f"duplicate lanelet_id {ll.lanelet_id}")
            self.lanelets[ll.lanelet_id] = ll
        self._validate_connectivity()
        self._link_lane_chains()
        self._stack_segments()

    def _validate_connectivity(self):
        for ll in self.lanelets.values():
            for sid in ll.successors:
                if sid not in self.lanelets:
                    raise ValidationError(
                        f"lanelet {ll.lanelet_id} references unknown successor {sid}"
                    )
                succ = self.lanelets[sid]
                gap = np.linalg.norm(
                    ll.centerline.points[-1, :2] - succ.centerline.points[0, :2]
                )
                if gap > _CONNECT_TOL:
                    raise ValidationError(
                        f"successor {sid} of lanelet {ll.lanelet_id} starts {gap:.3f} m "
                        f"away from its end (tolerance {_CONNECT_TOL} m)"
                    )
            for pid in ll.predecessors:
                if pid not in self.lanelets:
                    raise ValidationError(
                        f"lanelet {ll.lanelet_id} references unknown predecessor {pid}"
                    )

    def _link_lane_chains(self):
        # predecessor within the same lane; lane chains must be linear. Each
        # same-lane joint gets a shared normal, then each lanelet its offset.
        same_lane_pred: dict[int, int] = {}
        for ll in self.lanelets.values():
            for sid in ll.successors:
                succ = self.lanelets[sid]
                if succ.lane_id == ll.lane_id:
                    if sid in same_lane_pred:
                        raise ValidationError(f"lanelet {sid} has multiple same-lane predecessors")
                    same_lane_pred[sid] = ll.lanelet_id
                    _join_normals(ll, succ)
        for ll in self.lanelets.values():
            offset = 0.0
            seen = set()
            cur = ll.lanelet_id
            while cur in same_lane_pred:
                if cur in seen:
                    raise ValidationError(f"lane chain containing lanelet {cur} has a cycle")
                seen.add(cur)
                cur = same_lane_pred[cur]
                offset += self.lanelets[cur].length
            ll.chain_offset = offset

    def _stack_segments(self):
        # polylines: the lanelets' centerlines in id order, then their left,
        # then their right boundaries; each polyline's segments are contiguous
        self._by_id = [self.lanelets[i] for i in sorted(self.lanelets)]
        sides = ("centerline", "left_boundary", "right_boundary")
        polys = [getattr(ll, side) for side in sides for ll in self._by_id]
        counts = [len(p.seg_len) for p in polys]
        self._poly_first = np.r_[0, np.cumsum(counts)[:-1]]
        self._poly_len = np.array([p.length for p in polys])
        self._seg_poly = np.repeat(np.arange(len(polys)), counts)
        self._seg_index = np.arange(self._seg_poly.size)
        # one contiguous array per coordinate
        self._seg_x, self._seg_y = np.concatenate([p.seg_start for p in polys]).T.copy()
        self._seg_dx, self._seg_dy = np.concatenate([p.seg_dir for p in polys]).T.copy()
        self._seg_len = np.concatenate([p.seg_len for p in polys])
        self._seg_cum = np.concatenate([p.cum_len[:-1] for p in polys])

    def to_frenet(self, point, margin: float = 0.5) -> FrenetCoord | None:
        """Project a map point; None marks off-road (beyond boundaries + margin).

        A lanelet is a candidate when the foot on its centerline's nearest
        chord falls inside the centerline's span (0.5 m end tolerance) and
        the point is at most `margin` outside either boundary's nearest chord.
        The least (distance rounded to 1e-9, |offset|, lanelet id) wins.
        `total_lanes` counts lanes whose centerline foot is inside the span
        and within the lateral window. A non-finite point is off-road.
        """
        xy = np.asarray(point, dtype=float)[:2]
        if not np.isfinite(xy).all():
            return None
        x, y = xy.tolist()
        t_raw = (x - self._seg_x) * self._seg_dx + (y - self._seg_y) * self._seg_dy
        t = np.minimum(np.maximum(t_raw, 0.0), self._seg_len)
        diff_x = x - (self._seg_x + t * self._seg_dx)
        diff_y = y - (self._seg_y + t * self._seg_dy)
        dist = np.hypot(diff_x, diff_y)
        nearest = np.minimum.reduceat(dist, self._poly_first)
        hit = np.where(dist == nearest[self._seg_poly], self._seg_index, self._seg_index.size)
        k = np.minimum.reduceat(hit, self._poly_first)  # first nearest segment per polyline
        cross = diff_x[k] * self._seg_dy[k] - diff_y[k] * self._seg_dx[k]
        along = self._seg_cum[k] + t_raw[k]
        interior = (-0.5 <= along) & (along <= self._poly_len + 0.5)

        n = len(self._by_id)
        center, y_left, y_right = cross[:n], cross[n : 2 * n], cross[2 * n :]
        inside = interior[:n] & (y_left >= -margin) & (y_right <= margin)
        keys = ((round(float(nearest[j]), 9), abs(float(center[j])), self._by_id[j].lanelet_id, j)
                for j in np.flatnonzero(inside))
        best = min(keys, default=None)
        if best is None:
            return None
        j = best[-1]
        ll = self._by_id[j]
        s, crosstrack = ll.centerline.frenet(xy, float(self._seg_cum[k[j]] + t[k[j]]))
        in_window = interior[:n] & (np.abs(center) <= self.lateral_window)
        return FrenetCoord(
            downtrack=ll.chain_offset + s,
            crosstrack=crosstrack,
            lanelet_id=ll.lanelet_id,
            lane_id=ll.lane_id,
            total_lanes=len({self._by_id[i].lane_id for i in np.flatnonzero(in_window)}),
        )


def filter_on_road(tracks, vmap: VectorMap, margin: float = 0.5):
    """Keep tracks whose center projects on-road; annotate with FrenetCoord.

    `tracks` is any iterable of objects exposing .position (3-vector).
    Returns a list of (track, FrenetCoord) pairs.
    """
    kept = []
    for track in tracks:
        fc = vmap.to_frenet(track.position, margin)
        if fc is not None:
            kept.append((track, fc))
    return kept


def _load_schema() -> dict:
    with resources.files("cavtraj.data").joinpath("vector_map.schema.json").open() as fh:
        return json.load(fh)


def _polyline_points(entry: dict, side: str) -> np.ndarray:
    """(n, 3) float array of a lanelet's polyline; every point is three finite numbers.

    The schema checks only that a polyline is a list of at least two items;
    one pass here replaces its per-number walk.
    """
    points = entry[side]
    if not all(
        isinstance(p, list) and len(p) == 3
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
        for p in points
    ):
        raise ValidationError(f"{side}: points must be [x, y, z] lists of numbers")
    try:
        arr = np.array(points, dtype=float)
    except OverflowError:
        raise ValidationError(f"{side}: coordinate out of float range") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{side}: non-finite coordinate")
    return arr


def vector_map_from_dict(data: dict) -> VectorMap:
    """Build and validate a VectorMap from parsed JSON."""
    try:
        jsonschema.validate(data, _load_schema())
    except jsonschema.ValidationError as exc:
        raise ValidationError(f"vector map schema violation at {list(exc.absolute_path)}: {exc.message}") from exc

    lanelets = []
    for entry in data["lanelets"]:
        try:
            lanelets.append(
                Lanelet(
                    lanelet_id=int(entry["lanelet_id"]),
                    lane_id=int(entry["lane_id"]),
                    centerline=_Polyline(_polyline_points(entry, "centerline")),
                    left_boundary=_Polyline(_polyline_points(entry, "left_boundary")),
                    right_boundary=_Polyline(_polyline_points(entry, "right_boundary")),
                    predecessors=tuple(entry.get("predecessors", ())),
                    successors=tuple(entry.get("successors", ())),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"lanelet {entry.get('lanelet_id')}: {exc}") from exc
    # the schema's exclusiveMinimum lets NaN and infinity through
    try:
        lateral_window = float(data.get("lateral_window", 15.0))
    except OverflowError:
        lateral_window = math.inf
    if not math.isfinite(lateral_window):
        raise ValidationError("lateral_window: non-finite or out of float range")
    return VectorMap(lanelets, name=data.get("name", ""), lateral_window=lateral_window)


def load_vector_map(path) -> VectorMap:
    """Load and validate a vector map JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return vector_map_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
