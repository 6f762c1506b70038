"""Vector map with Frenet projection, on-road tests, and lane lookup.

The map is a set of lanelets (atomic lane segments) with centerline and
boundary polylines, read from a JSON file in the map frame:

    {"name": "freeway",
     "lanelets": [{"lanelet_id": 100, "lane_id": 1,
                   "centerline": [[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]],
                   "left_boundary": [...], "right_boundary": [...],
                   "predecessors": [], "successors": [101]}, ...]}

The top level is an object with only the keys `name` (a string, default
"") and `lanelets` (required, a non-empty list). Each lanelet is an object
that needs `lanelet_id`, `lane_id` and the three polylines and may carry
other keys, which are ignored. Ids are integers >= 0; an integral number
such as 100.0 counts, true and false do not. `predecessors` and `successors` are
optional lists of integer lanelet ids. A polyline is a list of at least two
[x, y, z] points of finite numbers in metres, with no zero-length segment
and no half-turn. Every listed predecessor and successor must exist, lanelet
ids must be unique, a successor must start within 0.1 m of its
predecessor's end, and each lane's chain of same-lane successors must be
linear and acyclic. A breach of the structural rules raises ValidationError
"vector map schema violation at <path>", where the path lists the keys and
indices down to the offending value; every other breach names its lanelet.
A file that cannot be read or parsed as JSON raises ValidationError too.

Downtrack distance is measured from the start of a
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

The lanelet choice and the corridor test use the nearest chord of each
polyline. At load the centerline segments of all lanelets are stacked into
flat arrays, and so are the boundary segments, lanelet by lanelet.
`VectorMap.project` takes a batch of points in two vectorised stages: every
point against every centerline segment, which tells for each
lanelet whether the centerline foot lies inside its span, then only those
interior (point, lanelet) pairs against their own lanelet's two boundaries.
There is no spatial prefilter. `np.minimum.reduceat` gives each polyline's
least distance and the first segment attaining it, the one a per-polyline
`argmin` picks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidArgument, ValidationError

_CONNECT_TOL = 0.1  # m, successor start must sit on predecessor end
_ON_ROAD_MARGIN = 0.5  # m, how far outside a lanelet's boundaries a point still counts as on it
_MAP_KEYS = ("name", "lanelets")
_POLYLINES = ("centerline", "left_boundary", "right_boundary")
_LANELET_KEYS = ("lanelet_id", "lane_id", *_POLYLINES)
_TINY = np.finfo(float).tiny
_PAIRS = 16_384  # (point, centerline segment) pairs per chunk: float64 temporaries of 128 KiB


@dataclass(frozen=True)
class FrenetCoord:
    """Road-aligned coordinates of a point and the lanelet and lane it is on.

    `downtrack` is the distance along the lane chain to the foot of the point
    on the interpolated vertex normal; `crosstrack` is the signed distance
    from that foot along the normal, positive to the right. The lanelet, and
    with it the lane, is chosen by chord distances (see the module docstring).
    """

    downtrack: float
    crosstrack: float
    lanelet_id: int
    lane_id: int


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

    def __init__(self, lanelets: list[Lanelet], name: str = ""):
        self.name = name
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
        # stage 1 stacks the centerlines in lanelet id order, stage 2 each
        # lanelet's left then right boundary, lanelet by lanelet
        self._by_id = [self.lanelets[i] for i in sorted(self.lanelets)]
        self._center = _Segments([ll.centerline for ll in self._by_id])
        self._bounds = _Segments([line for ll in self._by_id for line in (ll.left_boundary, ll.right_boundary)])
        self._center_len = np.array([ll.length for ll in self._by_id])
        # a full chunk's (point, centerline segment) pairs, flattened point by
        # point: each pair's (point, lanelet) group and each group's first pair
        first, n = self._center.first, len(self._by_id)
        self._chunk = max(_PAIRS // int(first[-1]), 1)
        rows = np.arange(self._chunk)[:, None]
        self._group_of = (rows * n + np.repeat(np.arange(n), np.diff(first))).ravel()
        self._group_first = (rows * first[-1] + first[:-1]).ravel()

    def project(self, points) -> list[FrenetCoord | None]:
        """Project map points; None marks off-road.

        A lanelet is a candidate when the foot on its centerline's nearest
        chord falls inside the centerline's span (0.5 m end tolerance) and
        the point is at most `_ON_ROAD_MARGIN` (0.5 m) outside either
        boundary's nearest chord. Among the candidates the least (centerline
        chord distance rounded to 1e-9, |offset|, lanelet id) wins; a point
        with no candidate, or a non-finite one, is off-road.

        A point is a sequence of at least two real numbers (x, y, ...), and
        only x and y are read. A malformed point raises InvalidArgument.

        Stage 1 projects the points, in chunks of at most `_PAIRS` (point,
        centerline segment) pairs, onto every centerline segment; that gives
        each lanelet's nearest centerline chord and whether its foot is
        inside the span. Stage 2 projects only the interior (point, lanelet)
        pairs, all in one pass, onto their own lanelet's two boundaries: no
        other boundary result is read.
        """
        xy = np.empty((len(points), 2))
        for i, point in enumerate(points):
            coords = np.asarray(point)
            if coords.ndim != 1 or coords.size < 2 or coords.dtype.kind not in "fiu":
                raise InvalidArgument(f"point {i} is not a sequence of at least two real numbers: {point!r}")
            xy[i] = coords[:2]
        result: list[FrenetCoord | None] = [None] * len(points)
        finite = np.flatnonzero(np.isfinite(xy).all(axis=1))
        if finite.size == 0:
            return result
        xy = xy[finite]
        pairs = [self._centerline_pairs(xy[lo:lo + self._chunk], lo) for lo in range(0, len(xy), self._chunk)]
        row, lane, nearest, center, s_chord = (np.concatenate(a) for a in zip(*pairs))
        inside = self._within_boundaries(xy, row, lane)

        # the least key per point among its candidates
        best = {}
        for r, j, dist, off, s in zip(*(a[inside].tolist() for a in (row, lane, nearest, center, s_chord))):
            ll = self._by_id[j]
            key = (round(dist, 9), abs(off), ll.lanelet_id)
            if r not in best or key < best[r][0]:
                best[r] = (key, ll, s)
        for r, (_, ll, s) in best.items():
            downtrack, crosstrack = ll.centerline.frenet(xy[r], s)
            result[finite[r]] = FrenetCoord(
                downtrack=ll.chain_offset + downtrack,
                crosstrack=crosstrack,
                lanelet_id=ll.lanelet_id,
                lane_id=ll.lane_id,
            )
        return result

    def _centerline_pairs(self, xy: np.ndarray, row0: int):
        """Stage 1: a chunk of points against every centerline segment.

        Returns, for each (point, lanelet) pair whose nearest centerline chord
        has its foot inside the span: the point's row (counted from row0), the
        lanelet's index, the chord distance and offset, and the arc length of
        the foot.
        """
        c, n, m = self._center, len(self._by_id), len(xy)
        x, y = xy[:, :1], xy[:, 1:]
        t_raw = (x - c.x) * c.dx + (y - c.y) * c.dy
        t = np.minimum(np.maximum(t_raw, 0.0), c.len)
        diff_x = x - (c.x + t * c.dx)
        diff_y = y - (c.y + t * c.dy)
        k = _first_nearest(diff_x.ravel(), diff_y.ravel(),
                           self._group_first[:m * n], self._group_of[:m * c.len.size])
        along = c.cum[k % c.len.size] + t_raw.flat[k]
        interior = np.flatnonzero((-0.5 <= along) & (along <= np.tile(self._center_len, m) + 0.5))
        row, lane = np.divmod(interior, n)
        k = k[interior]
        seg = k % c.len.size
        nearest = np.hypot(diff_x.flat[k], diff_y.flat[k])
        center = diff_x.flat[k] * c.dy[seg] - diff_y.flat[k] * c.dx[seg]
        return row0 + row, lane, nearest, center, c.cum[seg] + t.flat[k]

    def _within_boundaries(self, xy: np.ndarray, row: np.ndarray, lane: np.ndarray) -> np.ndarray:
        """Stage 2: whether each (point, lanelet) pair is at most `_ON_ROAD_MARGIN` outside both boundaries.

        Each pair is projected onto its own lanelet's left and right boundary
        only, the two boundary chords its result reads.
        """
        if len(row) == 0:
            return np.zeros(0, dtype=bool)
        b = self._bounds
        start, mid, end = b.first[2 * lane], b.first[2 * lane + 1], b.first[2 * lane + 2]
        sizes = np.column_stack([mid - start, end - mid]).ravel()  # left, right per pair
        first = np.r_[0, np.cumsum(sizes)[:-1]]
        idx = np.arange(first[-1] + sizes[-1]) + np.repeat(start - first[::2], end - start)
        x, y = np.repeat(xy[row, 0], end - start), np.repeat(xy[row, 1], end - start)
        seg_x, seg_y, seg_dx, seg_dy = b.x[idx], b.y[idx], b.dx[idx], b.dy[idx]
        t = np.minimum(np.maximum((x - seg_x) * seg_dx + (y - seg_y) * seg_dy, 0.0), b.len[idx])
        diff_x = x - (seg_x + t * seg_dx)
        diff_y = y - (seg_y + t * seg_dy)
        k = _first_nearest(diff_x, diff_y, first, np.repeat(np.arange(sizes.size), sizes))
        cross = diff_x[k] * seg_dy[k] - diff_y[k] * seg_dx[k]
        return (cross[0::2] >= -_ON_ROAD_MARGIN) & (cross[1::2] <= _ON_ROAD_MARGIN)


class _Segments:
    """The segments of consecutive polylines as flat arrays, one per coordinate."""

    __slots__ = ("x", "y", "dx", "dy", "len", "cum", "first")

    def __init__(self, polys: list[_Polyline]):
        # polyline i spans the segments first[i]:first[i + 1]
        self.first = np.r_[0, np.cumsum([len(p.seg_len) for p in polys])]
        self.x, self.y = np.concatenate([p.seg_start for p in polys]).T.copy()
        self.dx, self.dy = np.concatenate([p.seg_dir for p in polys]).T.copy()
        self.len = np.concatenate([p.seg_len for p in polys])
        self.cum = np.concatenate([p.cum_len[:-1] for p in polys])


def _first_nearest(diff_x: np.ndarray, diff_y: np.ndarray, first: np.ndarray, group_of: np.ndarray) -> np.ndarray:
    """Index of the first nearest chord in each group of point-to-chord offsets.

    Group g holds the offsets first[g]:first[g + 1], and group_of maps each
    offset to its group. hypot decides only among offsets whose squared length
    is within a relative 1e-9 of their group's least; the floor keeps
    underflowed squares in.
    """
    dist2 = diff_x * diff_x + diff_y * diff_y
    bound = np.minimum.reduceat(dist2, first) * (1.0 + 1e-9) + _TINY
    cand = np.flatnonzero(dist2 <= bound[group_of])
    cand_first = np.searchsorted(cand, first)  # each group's first candidate
    dist = np.hypot(diff_x[cand], diff_y[cand])
    hit = np.where(dist == np.minimum.reduceat(dist, cand_first)[group_of[cand]], cand, dist2.size)
    return np.minimum.reduceat(hit, cand_first)


def filter_on_road(tracks, vmap: VectorMap):
    """Keep tracks whose center projects on-road; annotate with FrenetCoord.

    `tracks` is any iterable of objects exposing .position (3-vector); all
    positions go through one `VectorMap.project` call. Returns a list of
    (track, FrenetCoord) pairs in input order.
    """
    tracks = list(tracks)
    coords = vmap.project([track.position for track in tracks])
    return [(track, fc) for track, fc in zip(tracks, coords) if fc is not None]


def _violation(path: list, message: str) -> ValidationError:
    return ValidationError(f"vector map schema violation at {path}: {message}")


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_integer(value) -> bool:
    # JSON has one number type: 100.0 is an integer, true is not
    return _is_number_type(type(value)) and (not isinstance(value, float) or value.is_integer())


def _lanelet_from_dict(entry, path: list) -> Lanelet:
    """One lanelet; the structural rules raise a schema violation at their path."""
    if not isinstance(entry, dict):
        raise _violation(path, "a lanelet must be an object")
    missing = [key for key in _LANELET_KEYS if key not in entry]
    if missing:
        raise _violation(path, f"missing keys {missing}")
    for key in ("lanelet_id", "lane_id"):
        if not (_is_integer(entry[key]) and entry[key] >= 0):
            raise _violation(path + [key], f"{entry[key]!r} is not an integer >= 0")
    links = {}
    for key in ("predecessors", "successors"):
        ids = entry.get(key, [])
        if not isinstance(ids, list):
            raise _violation(path + [key], f"{ids!r} is not a list of lanelet ids")
        for k, value in enumerate(ids):
            if not _is_integer(value):
                raise _violation(path + [key, k], f"{value!r} is not an integer")
        links[key] = tuple(int(v) for v in ids)
    for side in _POLYLINES:
        if not (isinstance(entry[side], list) and len(entry[side]) >= 2):
            raise _violation(path + [side], "a polyline is a list of at least 2 points")

    lanelet_id = int(entry["lanelet_id"])
    polylines = {}
    try:
        for side in _POLYLINES:
            points = entry[side]
            # each distinct point and coordinate type is tested once, not each number
            if not (all(issubclass(t, list) for t in set(map(type, points))) and set(map(len, points)) == {3}
                    and all(map(_is_number_type, set(map(type, itertools.chain.from_iterable(points)))))):
                raise ValidationError(f"{side}: points must be [x, y, z] lists of numbers")
            try:
                arr = np.array(points, dtype=float)
            except OverflowError:
                raise ValidationError(f"{side}: coordinate out of float range") from None
            if not np.isfinite(arr).all():
                raise ValidationError(f"{side}: non-finite coordinate")
            polylines[side] = _Polyline(arr)
    except ValidationError as exc:
        raise ValidationError(f"lanelet {lanelet_id}: {exc}") from exc
    return Lanelet(lanelet_id=lanelet_id, lane_id=int(entry["lane_id"]), **polylines, **links)


def vector_map_from_dict(data) -> VectorMap:
    """Build and validate a VectorMap from parsed JSON; the rules are in the module docstring."""
    if not isinstance(data, dict):
        raise _violation([], "the map must be an object")
    extra = [key for key in data if key not in _MAP_KEYS]
    if extra:
        raise _violation([], f"unexpected keys {extra}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise _violation(["name"], f"{name!r} is not a string")
    if "lanelets" not in data:
        raise _violation([], "missing key 'lanelets'")
    entries = data["lanelets"]
    if not (isinstance(entries, list) and entries):
        raise _violation(["lanelets"], "lanelets must be a non-empty list")
    lanelets = [_lanelet_from_dict(entry, ["lanelets", k]) for k, entry in enumerate(entries)]
    return VectorMap(lanelets, name=name)


def load_vector_map(path) -> VectorMap:
    """Load and validate a vector map JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers invalid JSON and non-UTF-8 bytes; RecursionError, nesting too deep to parse
        raise ValidationError(f"{path}: unreadable JSON map: {exc}") from exc
    try:
        return vector_map_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
