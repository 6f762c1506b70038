"""Vector map with Frenet projection, on-road tests, and lane lookup.

The map is a set of lanelets (atomic lane segments) with centerline and
boundary polylines, read from a JSON file in the map frame:

    {"name": "freeway",
     "lanelets": [{"lanelet_id": 100, "lane_id": 1,
                   "centerline": [[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]],
                   "left_boundary": [...], "right_boundary": [...],
                   "predecessors": [], "successors": [101]}, ...]}

The top level is an object with only the keys `name` (optional, a string,
which is checked and not kept) and `lanelets` (required, a non-empty list).
Each lanelet is an object that needs `lanelet_id`, `lane_id` and the three
polylines and may carry other keys, which are ignored. Ids are integers >= 0; an integral number
such as 100.0 counts, true and false do not. `predecessors` and `successors` are
optional lists of integer lanelet ids. A polyline is a list of at least two
[x, y, z] points of finite numbers in metres, with no zero-length segment
and no half-turn. Every listed predecessor and successor must exist, a
lanelet's predecessors must list it as a successor, lanelet ids must be
unique, a successor must start within 0.1 m of its predecessor's end, and
each lane's chain of same-lane successors must be linear (no lanelet has two
same-lane predecessors or two same-lane successors) and acyclic. A breach of
the structural rules raises ValidationError "vector map schema violation at
<path>", where the path lists the keys and indices down to the offending
value; every other breach names its lanelet.
A file that cannot be read or parsed as JSON raises ValidationError too.
The first breach is raised, with the checks in this order: the structural
rules of every lanelet; the polylines' points and segments, naming the first
faulty polyline in input order (lanelet by lanelet, centerline, left then
right boundary); unique ids; unknown predecessors and successors;
predecessors that do not list the lanelet as a successor; successor gaps;
multiple same-lane predecessors or successors; half-turns at same-lane
joints; cycles.

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

At load the geometry of every polyline is built in one stacked pass, in
input order: one type check over the distinct point and coordinate types,
one `np.fromiter` conversion, one `np.diff` with the rows that cross from one
polyline to the next set to NaN (so nothing derived from them can fail a
check), one `_bisect` for all interior vertex normals, one for all joint
normals, and a row-wise cumsum over the segment lengths padded with zeros,
which adds in the order of a cumsum per polyline (one padded block per power
of two of the segment count, so the padding stays below the points). The
stack is read-only once the joint normals are written. The stack plus one
frozen `Lanelet` per lanelet (ids, links, centerline length and chain offset)
is the whole map, and the projection reads the stack's rows by polyline
number.

The lanelet choice and the corridor test use the nearest chord of each
polyline. Each lanelet has a reach box: the axis-aligned bounding box of its
centerline and both boundaries, grown by 1 m (the 0.5 m on-road margin plus
the 0.5 m end tolerance of the centerline foot). A lanelet can hold a point
only inside its reach box; this is part of the on-road rule, not only a
speed-up, because the chord tests alone have no finite reach (see
`VectorMap.project` for two maps where they admit points 1000 m and 5.19 m
off the centerline). `VectorMap.project` takes a batch of points: one
vectorised test against every reach box gives the (point, lanelet) pairs,
stage 1 projects each pair onto its own lanelet's centerline segments,
which tells whether the centerline foot lies inside the span, and stage 2
projects only those interior pairs onto their own lanelet's two
boundaries. `np.minimum.reduceat` gives each polyline's least distance and
the first segment attaining it, the one a per-polyline `argmin` picks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import InvalidArgument, ValidationError

_CONNECT_TOL = 0.1  # m, successor start must sit on predecessor end
_ON_ROAD_MARGIN = 0.5  # m, how far outside a lanelet's boundaries a point still counts as on it
_END_TOL = 0.5  # m, how far past either end of a centerline the foot on its nearest chord may fall
_MAP_KEYS = ("name", "lanelets")
_POLYLINES = ("centerline", "left_boundary", "right_boundary")
_LANELET_KEYS = ("lanelet_id", "lane_id", *_POLYLINES)
_PAIRS = 16_384  # (point, centerline segment) pairs per split: float64 temporaries of about 128 KiB


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


def _bisect(n0: np.ndarray, n1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors halfway between the unit vectors n0 and n1 (last axis).

    Also returns where there is none, a half-turn; those rows are not unit.
    """
    mid = n0 + n1
    norm = np.hypot(mid[..., 0], mid[..., 1])
    half_turn = norm < 1e-9
    return mid / np.where(half_turn, 1.0, norm)[..., None], half_turn


def _numbers(polylines: list):
    """The coordinates of the polylines' points, one after another, as an iterator."""
    return itertools.chain.from_iterable(itertools.chain.from_iterable(polylines))


def _xyz_lists(polylines: list) -> bool:
    """Whether every point of the polylines is an [x, y, z] list of numbers.

    Each distinct point and coordinate type is tested once, not each number.
    """
    point_types = set(map(type, itertools.chain.from_iterable(polylines)))
    return (all(issubclass(t, list) for t in point_types)
            and set(map(len, itertools.chain.from_iterable(polylines))) == {3}
            and all(map(_is_number_type, set(map(type, _numbers(polylines))))))


class _PolylineStack:
    """The checked geometry of a map's polylines, stacked in input order.

    Polyline i holds the vertices first[i]:first[i + 1] of `points` and
    `normals`. Segment j runs from vertex j to vertex j + 1, so polyline i
    owns the segment rows first[i]:first[i + 1] - 1 of `seg_dir` and
    `seg_len`; the row from one polyline's last vertex to the next one's
    first is no segment and holds NaN. `cum_len` holds each vertex's arc
    length along its polyline.
    """

    __slots__ = ("first", "points", "seg_dir", "seg_len", "cum_len", "normals")

    def __init__(self, polylines: list, lanelet_ids: list[int]):
        """Check and stack the polylines; polyline i is side i % 3 of lanelet lanelet_ids[i // 3].

        A fault raises ValidationError naming the first faulty polyline.
        """

        def fail(f: int, fault: str):
            # polyline f is named only once the polylines before it pass every check
            if f:
                _PolylineStack(polylines[:f], lanelet_ids)
            raise ValidationError(f"lanelet {lanelet_ids[f // 3]}: " + fault.format(side=_POLYLINES[f % 3]))

        def polyline_of(vertex: int) -> int:
            return int(np.searchsorted(first, vertex, side="right")) - 1

        if not _xyz_lists(polylines):
            fail(next(f for f, line in enumerate(polylines) if not _xyz_lists([line])),
                 "{side}: points must be [x, y, z] lists of numbers")
        counts = np.fromiter(map(len, polylines), dtype=np.intp, count=len(polylines))
        self.first = first = np.r_[0, np.cumsum(counts)]
        try:
            points = np.fromiter(_numbers(polylines), dtype=float, count=3 * first[-1]).reshape(-1, 3)
        except OverflowError:
            for f, line in enumerate(polylines):
                try:
                    np.fromiter(_numbers([line]), dtype=float)
                except OverflowError:
                    fail(f, "{side}: coordinate out of float range")
        if not np.isfinite(points).all():
            fail(polyline_of(np.flatnonzero(~np.isfinite(points).all(axis=1))[0]), "{side}: non-finite coordinate")

        with np.errstate(over="ignore"):  # between two polylines far apart; no segment
            d = np.diff(points[:, :2], axis=0)
        seg_len = np.hypot(d[:, 0], d[:, 1])
        # the rows from one polyline's last vertex to the next one's first are
        # NaN, and so is everything derived from them
        seg_len[first[1:-1] - 1] = np.nan
        bad = np.flatnonzero(seg_len < 1e-9)
        if bad.size:
            fail(polyline_of(bad[0]), "polyline has zero-length segment")
        seg_dir = d / seg_len[:, None]
        seg_normal = _right_normal(seg_dir)
        # right-pointing unit normal per vertex, bisecting its two segments'
        # normals; the two ends of each polyline keep their segment's normal
        # until VectorMap joins them to a neighbour lanelet
        normals = np.empty((first[-1], 2))
        normals[1:-1], half_turn = _bisect(seg_normal[:-1], seg_normal[1:])
        if half_turn.any():  # pair k meets at vertex k + 1
            fail(polyline_of(half_turn.argmax() + 1), "polyline turns back on itself")
        normals[first[:-1]] = seg_normal[first[:-1]]
        normals[first[1:] - 1] = seg_normal[first[1:] - 2]

        # a cumsum along the rows of a zero-padded block adds in the order of a
        # cumsum per polyline; each block holds the polylines whose segment
        # counts share a power of two, so its padding stays below its size
        cum_len = np.zeros(first[-1])
        sizes = counts - 1
        block = np.frexp(sizes)[1]
        for b in np.unique(block).tolist():
            rows = np.flatnonzero(block == b)
            inside = np.arange(sizes[rows].max()) < sizes[rows, None]
            seg = (first[rows, None] + np.arange(inside.shape[1]))[inside]
            padded = np.zeros(inside.shape)
            padded[inside] = seg_len[seg]
            cum_len[seg + 1] = np.cumsum(padded, axis=1)[inside]
        self.points, self.seg_dir, self.seg_len, self.cum_len, self.normals = points, seg_dir, seg_len, cum_len, normals

    def freeze(self) -> None:
        for a in (self.first, self.points, self.seg_dir, self.seg_len, self.cum_len, self.normals):
            a.flags.writeable = False


@dataclass(frozen=True)
class Lanelet:
    """A lanelet's ids and links as its map entry gives them; load fills in the two lengths.

    Its geometry is the rows of the map's polyline stack: the lanelet at
    input position k owns polylines 3k (centerline), 3k + 1 and 3k + 2.
    """

    lanelet_id: int
    lane_id: int
    predecessors: tuple[int, ...]
    successors: tuple[int, ...]
    length: float = 0.0  # of the centerline
    chain_offset: float = 0.0  # downtrack of this lanelet's start within its lane chain


class VectorMap:
    """Immutable-after-load lanelet map supporting Frenet queries; `vector_map_from_dict` builds it."""

    def __init__(self, lanelets: list[Lanelet], stack: _PolylineStack):
        """lanelets[k] owns the polylines 3k to 3k + 2 of the stack; its two lengths are filled in here."""
        index: dict[int, int] = {}  # lanelet id -> input position
        for k, ll in enumerate(lanelets):
            if ll.lanelet_id in index:
                raise ValidationError(f"duplicate lanelet_id {ll.lanelet_id}")
            index[ll.lanelet_id] = k
        same_lane_pred = self._join_lane_chains(lanelets, index, stack)
        stack.freeze()
        self._stack = stack
        # each centerline's length is the arc length at its last vertex
        length = dict(zip(index, stack.cum_len[stack.first[1::3] - 1].tolist()))
        offset = _chain_offsets(same_lane_pred, length)
        self._lanelets = tuple(replace(ll, length=length[ll.lanelet_id], chain_offset=offset[ll.lanelet_id])
                               for ll in lanelets)  # in input order, as the stack
        self.lanelets = MappingProxyType({ll.lanelet_id: ll for ll in self._lanelets})
        # reach boxes, (2, n) arrays of x and y bounds in input order: the bounding box of
        # each lanelet's three polylines, grown by the on-road margin and the end tolerance
        xy, first = stack.points[:, :2], stack.first[:-1:3]
        self._reach_lo = (np.minimum.reduceat(xy, first) - (_ON_ROAD_MARGIN + _END_TOL)).T
        self._reach_hi = (np.maximum.reduceat(xy, first) + (_ON_ROAD_MARGIN + _END_TOL)).T
        self._reach_lo.flags.writeable = self._reach_hi.flags.writeable = False

    @staticmethod
    def _join_lane_chains(lanelets: list[Lanelet], index: dict[int, int], stack: _PolylineStack) -> dict[int, int]:
        """Check the links and give each same-lane joint one vertex normal, shared by both lanelets.

        Returns each lanelet's predecessor within its lane; lane chains must be linear.
        """
        for ll in lanelets:
            for kind, others in (("successor", ll.successors), ("predecessor", ll.predecessors)):
                for other in others:
                    if other not in index:
                        raise ValidationError(f"lanelet {ll.lanelet_id} references unknown {kind} {other}")
        for ll in lanelets:
            for other in ll.predecessors:
                if ll.lanelet_id not in lanelets[index[other]].successors:
                    raise ValidationError(
                        f"lanelet {ll.lanelet_id} lists predecessor {other}, which does not list it as a successor")
        # (predecessor, successor) positions, and the last centerline vertex of
        # the one and the first of the other
        pred, succ = np.array([(k, index[sid]) for k, ll in enumerate(lanelets) for sid in ll.successors],
                              dtype=np.intp).reshape(-1, 2).T
        end, start = stack.first[3 * pred + 1] - 1, stack.first[3 * succ]
        gap = np.hypot(*(stack.points[end, :2] - stack.points[start, :2]).T)
        far = np.flatnonzero(gap > _CONNECT_TOL)
        ids = list(index)  # lanelet ids in input order
        if far.size:
            m = far[0]
            raise ValidationError(
                f"successor {ids[succ[m]]} of lanelet {ids[pred[m]]} starts {gap[m]:.3f} m "
                f"away from its end (tolerance {_CONNECT_TOL} m)"
            )

        same_lane_pred: dict[int, int] = {}
        joint = []
        for m, (a, b) in enumerate(zip(pred.tolist(), succ.tolist())):
            if lanelets[a].lane_id == lanelets[b].lane_id:
                pid, sid = ids[a], ids[b]
                if sid in same_lane_pred:
                    raise ValidationError(f"lanelet {sid} has multiple same-lane predecessors")
                if joint and pred[joint[-1]] == a:  # the pairs run predecessor by predecessor
                    raise ValidationError(f"lanelet {pid} has multiple same-lane successors")
                same_lane_pred[sid] = pid
                joint.append(m)
        pred, succ, end, start = (a[joint] for a in (pred, succ, end, start))
        normals, half_turn = _bisect(_right_normal(stack.seg_dir[end - 1]), _right_normal(stack.seg_dir[start]))
        if half_turn.any():
            m = half_turn.argmax()
            raise ValidationError(f"lanelets {ids[pred[m]]} -> {ids[succ[m]]}: polyline turns back on itself")
        stack.normals[start] = stack.normals[end] = normals
        return same_lane_pred

    def project(self, points) -> list[FrenetCoord | None]:
        """Project map points; None marks off-road.

        A lanelet is a candidate when the point lies inside its reach box,
        the foot on its centerline's nearest chord falls inside the
        centerline's span (`_END_TOL`, 0.5 m, end tolerance) and the point
        is at most `_ON_ROAD_MARGIN` (0.5 m) outside either boundary's
        nearest chord. The reach box is the axis-aligned bounding box of
        the lanelet's three polylines grown by both tolerances, 1 m. Among
        the candidates the least (centerline chord distance rounded to 1e-9,
        |offset|, lanelet id) wins; a point with no candidate, or a
        non-finite one, is off-road.

        Without the reach box the chord tests alone would admit points at
        any distance: where a boundary's nearest chord has its foot clipped
        to an end, the offset is taken from the chord's extension line. On a
        lanelet with centerline (0, 0) -> (10, 0), left boundary (0, 1.75)
        -> (10, 1.75) and a notched right boundary (0, -1.75) -> (5, -1.75)
        -> (5, -3) -> (4, -3) -> (4, -2) -> (10, -2), the point (5, -1000)
        would pass with crosstrack 1000 m; on a right-angle bend with 10 m
        legs and a 1.85 m half width, (14, -2) would pass with crosstrack
        5.19 m. Both lie outside the reach box and are off-road.

        A point is a sequence of at least two real numbers (x, y, ...), and
        only x and y are read. A malformed point raises InvalidArgument.

        One vectorised test of every point against every reach box gives
        the (point, lanelet) pairs. The pairs are split wherever their
        cumulative count of (point, centerline segment) pairs passes a
        multiple of `_PAIRS`, so the temporaries stay bounded for any batch.
        Stage 1 projects each pair onto its own lanelet's centerline
        segments; that gives the nearest centerline chord and whether its
        foot is inside the span. Stage 2 projects only the interior pairs
        onto their own lanelet's two boundaries.
        """
        xy = np.empty((len(points), 2))
        for i, point in enumerate(points):
            coords = np.asarray(point)
            if coords.ndim != 1 or coords.size < 2 or coords.dtype.kind not in "fiu":
                raise InvalidArgument(f"point {i} is not a sequence of at least two real numbers: {point!r}")
            xy[i] = coords[:2]
        result: list[FrenetCoord | None] = [None] * len(points)
        finite = np.flatnonzero(np.isfinite(xy).all(axis=1))
        xy = xy[finite]
        (lo_x, lo_y), (hi_x, hi_y) = self._reach_lo, self._reach_hi
        x, y = xy[:, :1], xy[:, 1:]
        row, lane = np.nonzero((lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y))
        # a split starts where a pair's first (point, segment) pair enters the next block of _PAIRS
        sizes = np.diff(self._stack.first)[3 * lane] - 1
        split = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _PAIRS)) + 1
        parts = [self._candidates(xy, r, j) for r, j in zip(np.split(row, split), np.split(lane, split))]

        # the least key per point among its candidates
        best = {}
        for r, j, dist, off, s in zip(*(np.concatenate(a).tolist() for a in zip(*parts))):
            key = (round(dist, 9), abs(off), self._lanelets[j].lanelet_id)
            if r not in best or key < best[r][0]:
                best[r] = (key, j, s)
        for r, (_, j, s) in best.items():
            ll = self._lanelets[j]
            downtrack, crosstrack = _frenet(self._stack, 3 * j, xy[r], s)
            result[finite[r]] = FrenetCoord(
                downtrack=ll.chain_offset + downtrack,
                crosstrack=crosstrack,
                lanelet_id=ll.lanelet_id,
                lane_id=ll.lane_id,
            )
        return result

    def _candidates(self, xy: np.ndarray, row: np.ndarray, lane: np.ndarray):
        """Stages 1 and 2 for the (point row, lanelet position) pairs of one split.

        Returns, for each pair that passes both chord tests: the point's
        row, the lanelet's position, the centerline chord distance and
        offset, and the arc length of the foot.
        """
        stack = self._stack
        seg, t_raw, t, diff_x, diff_y = _nearest(stack, xy[row], 3 * lane)
        along = stack.cum_len[seg] + t_raw
        length = stack.cum_len[stack.first[3 * lane + 1] - 1]
        interior = (-_END_TOL <= along) & (along <= length + _END_TOL)
        row, lane, seg, t, diff_x, diff_y = (a[interior] for a in (row, lane, seg, t, diff_x, diff_y))
        # the left then the right boundary of each interior pair's own lanelet
        bseg, _, _, bdiff_x, bdiff_y = _nearest(stack, np.repeat(xy[row], 2, axis=0), (3 * lane[:, None] + [1, 2]).ravel())
        cross = bdiff_x * stack.seg_dir[bseg, 1] - bdiff_y * stack.seg_dir[bseg, 0]
        inside = (cross[0::2] >= -_ON_ROAD_MARGIN) & (cross[1::2] <= _ON_ROAD_MARGIN)
        center = diff_x * stack.seg_dir[seg, 1] - diff_y * stack.seg_dir[seg, 0]
        return tuple(a[inside] for a in (row, lane, np.hypot(diff_x, diff_y), center, stack.cum_len[seg] + t))


def _chain_offsets(same_lane_pred: dict[int, int], length: dict[int, float]) -> dict[int, float]:
    """Each lanelet's downtrack within its lane chain: the lengths of its same-lane predecessors."""
    offsets = {}
    for lanelet_id in length:
        offset, seen, cur = 0.0, set(), lanelet_id
        while cur in same_lane_pred:
            if cur in seen:
                raise ValidationError(f"lane chain containing lanelet {cur} has a cycle")
            seen.add(cur)
            cur = same_lane_pred[cur]
            offset += length[cur]
        offsets[lanelet_id] = offset
    return offsets


def _nearest(stack: _PolylineStack, xy: np.ndarray, poly: np.ndarray):
    """The first nearest chord of the stack's polyline poly[g] to the point xy[g], for each g.

    The (point, segment) pairs are flattened group by group; polyline i's
    segments are the rows first[i]:first[i + 1] - 1, so no seam row is read.
    Returns each chord's segment row, the foot's distance along it before and
    after clipping to the segment, and the offset from the foot to the point.
    """
    start = stack.first[poly]
    sizes = stack.first[poly + 1] - start - 1
    first = np.cumsum(sizes) - sizes
    idx = np.arange(sizes.sum()) + np.repeat(start - first, sizes)
    x, y = np.repeat(xy[:, 0], sizes), np.repeat(xy[:, 1], sizes)
    # gathered through column views: a 1-D gather is several times faster than indexing rows of a 2-D array
    seg_x, seg_y = stack.points[:, 0][idx], stack.points[:, 1][idx]
    seg_dx, seg_dy = stack.seg_dir[:, 0][idx], stack.seg_dir[:, 1][idx]
    t_raw = (x - seg_x) * seg_dx + (y - seg_y) * seg_dy
    t = np.minimum(np.maximum(t_raw, 0.0), stack.seg_len[idx])
    diff_x = x - (seg_x + t * seg_dx)
    diff_y = y - (seg_y + t * seg_dy)
    k = _first_nearest(diff_x, diff_y, first, np.repeat(np.arange(sizes.size), sizes))
    return idx[k], t_raw[k], t[k], diff_x[k], diff_y[k]


def _first_nearest(diff_x: np.ndarray, diff_y: np.ndarray, first: np.ndarray, group_of: np.ndarray) -> np.ndarray:
    """Index of the first nearest chord in each group of point-to-chord offsets.

    Group g holds the offsets first[g]:first[g + 1], and group_of maps each
    offset to its group.
    """
    dist = np.hypot(diff_x, diff_y)
    hit = np.where(dist == np.minimum.reduceat(dist, first)[group_of], np.arange(dist.size), dist.size)
    return np.minimum.reduceat(hit, first)


def _frenet(stack: _PolylineStack, i: int, xy: np.ndarray, s_chord: float) -> tuple[float, float]:
    """Arc length along the stack's polyline i and right-positive crosstrack of xy's foot on the vertex normals.

    On segment k with unit direction e and length L the foot is
    P(u) = start + u·e, at the u where p − P(u) is parallel to
    N(u) = N_k + (u/L)·(N_{k+1} − N_k). The search starts on the segment
    holding `s_chord` (the nearest chord's foot) and walks to the neighbour
    while u leaves [0, L]. On the first and last segment u extrapolates past
    the end, which keeps downtrack continuous across lanelet joints. As in
    `_nearest`, k is an absolute row: polyline i's segments are the rows
    first[i] to first[i + 1] - 2.
    """
    start, end = stack.first[i:i + 2].tolist()
    last = end - 2
    k = min(start + int(np.searchsorted(stack.cum_len[start:end], s_chord, side="right")) - 1, last)
    u = _foot(stack, xy, k)
    step = 1 if u > stack.seg_len[k] else -1
    while (u > stack.seg_len[k] if step > 0 else u < 0.0) and start <= k + step <= last:
        k += step
        u = _foot(stack, xy, k)
    if (u < 0.0 and k > start) or (u > stack.seg_len[k] and k < last):
        # walked past the point: it lies where the normals of neighbouring
        # segments cross (inside a sharp bend); take their shared vertex
        u = min(max(u, 0.0), float(stack.seg_len[k]))
    n0, n1 = stack.normals[k], stack.normals[k + 1]
    normal = n0 + (u / stack.seg_len[k]) * (n1 - n0)
    off = xy - stack.points[k, :2] - u * stack.seg_dir[k]
    cross = (off[0] * normal[0] + off[1] * normal[1]) / math.hypot(normal[0], normal[1])
    return float(stack.cum_len[k] + u), float(cross)


def _foot(stack: _PolylineStack, p: np.ndarray, k: int) -> float:
    # p − P(u) ∥ N(u) is cross(r − u·e, N_k + u·m) = 0 with r = p − start
    # and m = (N_{k+1} − N_k)/L, i.e. qa·u² + qb·u + qc = 0. The root taken
    # tends to −qc/qb as the segment straightens (m → 0), where 2·qc/den
    # stays exact.
    ex, ey = stack.seg_dir[k].tolist()
    nx, ny = stack.normals[k].tolist()
    mx, my = ((stack.normals[k + 1] - stack.normals[k]) / stack.seg_len[k]).tolist()
    rx, ry = (p - stack.points[k, :2]).tolist()
    qa = mx * ey - my * ex
    qb = (rx * my - ry * mx) - (ex * ny - ey * nx)
    qc = rx * ny - ry * nx
    den = -qb - math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb)
    if den == 0.0:
        return float(rx * ex + ry * ey)  # no foot on this segment's normals
    return float(2.0 * qc / den)


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


def _lanelet_links(entry, path: list) -> Lanelet:
    """One lanelet's ids and links; the structural rules raise a schema violation at their path."""
    if not isinstance(entry, dict):
        raise _violation(path, "a lanelet must be an object")
    missing = [key for key in _LANELET_KEYS if key not in entry]
    if missing:
        raise _violation(path, f"missing keys {missing}")
    for key in ("lanelet_id", "lane_id"):
        if not (_is_integer(entry[key]) and entry[key] >= 0):
            raise _violation(path + [key], f"{entry[key]!r} is not an integer >= 0")
    links = []
    for key in ("predecessors", "successors"):
        ids = entry.get(key, [])
        if not isinstance(ids, list):
            raise _violation(path + [key], f"{ids!r} is not a list of lanelet ids")
        for k, value in enumerate(ids):
            if not _is_integer(value):
                raise _violation(path + [key, k], f"{value!r} is not an integer")
        links.append(tuple(int(v) for v in ids))
    for side in _POLYLINES:
        if not (isinstance(entry[side], list) and len(entry[side]) >= 2):
            raise _violation(path + [side], "a polyline is a list of at least 2 points")
    return Lanelet(int(entry["lanelet_id"]), int(entry["lane_id"]), *links)


def vector_map_from_dict(data) -> VectorMap:
    """Build and validate a VectorMap from parsed JSON; the rules are in the module docstring."""
    if not isinstance(data, dict):
        raise _violation([], "the map must be an object")
    extra = [key for key in data if key not in _MAP_KEYS]
    if extra:
        raise _violation([], f"unexpected keys {extra}")
    if not isinstance(data.get("name", ""), str):
        raise _violation(["name"], f"{data['name']!r} is not a string")
    if "lanelets" not in data:
        raise _violation([], "missing key 'lanelets'")
    entries = data["lanelets"]
    if not (isinstance(entries, list) and entries):
        raise _violation(["lanelets"], "lanelets must be a non-empty list")
    lanelets = [_lanelet_links(entry, ["lanelets", k]) for k, entry in enumerate(entries)]
    stack = _PolylineStack([entry[side] for entry in entries for side in _POLYLINES],
                           [ll.lanelet_id for ll in lanelets])
    return VectorMap(lanelets, stack)


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
