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
exactly radial. The field is coarse where a sharp bend is coarsely sampled:
there the interpolated normals slant strongly, and |crosstrack| exceeds the
point's distance to the centerline. On a left-hand right-angle bend with
10 m legs and a single corner vertex, a point 2.33 m inside the corner reads
crosstrack −3.28. Maps from `build_vector_map_dict` sample arcs every 0.5 m
and are not affected; resampling long chords at load would bound it.

At load the geometry of every polyline is built in one stacked pass, in
input order: one type check over the distinct point and coordinate types,
one `np.fromiter` conversion, one `np.diff` with the rows that cross from one
polyline to the next set to NaN (so nothing derived from them can fail a
check), one `_bisect` for all interior vertex normals and one for all
joint normals. Arc lengths are one cumsum per centerline over its segment
lengths; nothing reads a boundary's, so none is computed. The stack is
read-only once the joint normals are written. The stack plus one frozen
`Lanelet` per lanelet (ids, links, centerline length and chain offset) is
the whole map, and the projection reads the stack's rows by polyline
number. Its points and segment directions are stored column by column, so
the chord search gathers from contiguous x, y and direction columns.

The lanelet choice and the corridor test use the nearest chord of each
polyline. Each lanelet has a reach box: the axis-aligned bounding box of its
centerline and both boundaries, grown by 1 m (the 0.5 m on-road margin plus
the 0.5 m end tolerance of the centerline foot). A lanelet can hold a point
only inside its reach box; this is part of the on-road rule, not only a
speed-up, because the chord tests alone have no finite reach (see
`VectorMap.project` for two maps where they admit points 1000 m and 5.19 m
off the centerline). `VectorMap.project` takes a batch of points and tests
them in two vectorised stages, which its docstring sets out.
`np.minimum.reduceat` gives each polyline's least distance and the first
segment attaining it, the one a per-polyline `argmin` picks.
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
_BOUNDARIES = np.array([1, 2])  # a lanelet's left and right boundary, after its centerline in the polyline stack


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
    first is no segment and holds NaN. `cum_len` holds each centerline
    vertex's arc length along its centerline (polylines 0, 3, 6, ...); a
    boundary's rows hold 0, and no code reads them. `seg_count` holds each
    polyline's segment count. `points` and `seg_dir` are stored column by
    column, and `x`, `y`, `dir_x` and `dir_y` are their columns, which the
    chord search gathers from.
    """

    __slots__ = ("first", "seg_count", "points", "x", "y", "seg_dir", "dir_x", "dir_y", "seg_len", "cum_len",
                 "normals")

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
        # column by column, so that each column is a contiguous array: a 1-D gather from one is several
        # times faster than from a row of a 2-D array
        points = np.asfortranarray(points)

        with np.errstate(over="ignore"):  # between two polylines far apart; no segment
            d = np.diff(points[:, :2], axis=0)
        seg_len = np.hypot(d[:, 0], d[:, 1])
        # the rows from one polyline's last vertex to the next one's first are
        # NaN, and so is everything derived from them
        seg_len[first[1:-1] - 1] = np.nan
        bad = np.flatnonzero(seg_len < 1e-9)
        if bad.size:
            fail(polyline_of(bad[0]), "polyline has zero-length segment")
        seg_dir = np.asfortranarray(d / seg_len[:, None])
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

        cum_len = np.zeros(first[-1])
        for a, b in zip(first[:-1:3].tolist(), first[1::3].tolist()):  # the centerlines
            np.cumsum(seg_len[a:b - 1], out=cum_len[a + 1:b])
        self.points, self.seg_dir, self.seg_len, self.cum_len, self.normals = points, seg_dir, seg_len, cum_len, normals
        self.seg_count, self.x, self.y, self.dir_x, self.dir_y = counts - 1, *points[:, :2].T, *seg_dir.T

    def freeze(self) -> None:
        for a in (self.first, self.seg_count, self.points, self.x, self.y, self.seg_dir, self.dir_x, self.dir_y,
                  self.seg_len, self.cum_len, self.normals):
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
        # each centerline's length is the arc length at its last vertex, in input order
        self._length = stack.cum_len[stack.first[1::3] - 1]
        length = dict(zip(index, self._length.tolist()))
        offset = _chain_offsets(same_lane_pred, length)
        self._lanelets = tuple(replace(ll, length=length[ll.lanelet_id], chain_offset=offset[ll.lanelet_id])
                               for ll in lanelets)  # in input order, as the stack
        self.lanelets = MappingProxyType({ll.lanelet_id: ll for ll in self._lanelets})
        # each lanelet's rank by id, in input order: a NumPy sort on it breaks key ties as the id does
        self._id_rank = np.argsort(sorted(range(len(lanelets)), key=lambda k: lanelets[k].lanelet_id))
        # reach boxes, (2, n) arrays of x and y bounds in input order: the bounding box of
        # each lanelet's three polylines, grown by the on-road margin and the end tolerance
        xy, first = stack.points[:, :2], stack.first[:-1:3]
        self._reach_lo = (np.minimum.reduceat(xy, first) - (_ON_ROAD_MARGIN + _END_TOL)).T
        self._reach_hi = (np.maximum.reduceat(xy, first) + (_ON_ROAD_MARGIN + _END_TOL)).T
        for a in (self._id_rank, self._reach_lo, self._reach_hi, self._length):
            a.flags.writeable = False

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
        the (point, lanelet) pairs. Stage 1 projects each pair onto its own
        lanelet's centerline segments: the nearest chord, whether its foot
        is inside the span, and the pair's key. Stage 2, onto the lanelet's
        two boundaries, runs on each point's least-keyed interior pair, and
        only where that fails on its other interior pairs, the first to pass
        in key order winning (on an arc_fleet step, 15 pairs of 54). Each
        stage is split wherever the pairs' cumulative count of (point,
        centerline segment) pairs passes a multiple of `_PAIRS`, so the
        temporaries stay bounded for any batch; a batch within one split,
        such as a tracker step's, runs each stage once on its whole arrays.
        """
        xy = np.empty((len(points), 2))
        for i, point in enumerate(points):
            coords = np.asarray(point)
            if coords.ndim != 1 or coords.size < 2 or coords.dtype.kind not in "fiu":
                raise InvalidArgument(f"point {i} is not a sequence of at least two real numbers: {point!r}")
            xy[i] = coords[:2]
        result: list[FrenetCoord | None] = [None] * len(points)
        # the reach boxes are finite, so a NaN or infinite coordinate fails one of their comparisons
        (lo_x, lo_y), (hi_x, hi_y) = self._reach_lo, self._reach_hi
        x, y = xy[:, :1], xy[:, 1:]
        row, lane = ((lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y)).nonzero()
        row, lane, seg, t, dist, offset = self._in_splits(self._centerline, xy, row, lane)
        if not row.size:
            return result

        # each point's interior pairs in key order, its least-keyed one first; np.round rounds otherwise
        order = np.lexsort((self._id_rank[lane], np.abs(offset), [round(d, 9) for d in dist.tolist()], row))
        ranked = row[order]
        is_best = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        best = order[is_best]
        ok, = self._in_splits(self._inside, xy, row[best], lane[best])
        won = best[ok]
        if not ok.all():
            # the other pairs of the points whose best pair fails; the first to pass wins
            rest = order[~ok[is_best.cumsum() - 1] & ~is_best]
            rest = rest[self._in_splits(self._inside, xy, row[rest], lane[rest])[0]]
            won = np.concatenate((won, rest[np.unique(row[rest], return_index=True)[1]]))

        for r, j, s in zip(row[won].tolist(), lane[won].tolist(), (self._stack.cum_len[seg[won]] + t[won]).tolist()):
            ll = self._lanelets[j]
            downtrack, crosstrack = _frenet(self._stack, 3 * j, *xy[r].tolist(), s)
            result[r] = FrenetCoord(ll.chain_offset + downtrack, crosstrack, ll.lanelet_id, ll.lane_id)
        return result

    def _in_splits(self, stage, xy: np.ndarray, row: np.ndarray, lane: np.ndarray) -> tuple[np.ndarray, ...]:
        """stage(xy, row, lane) on the (point row, lanelet position) pairs in splits (see `project`), joined."""
        sizes = self._stack.seg_count[3 * lane]
        start = sizes.cumsum() - sizes     # each pair's first (point, centerline segment) pair
        if not start.size or start[-1] < _PAIRS:
            return stage(xy, row, lane)     # one split
        bounds = [0, *(np.diff(start // _PAIRS).nonzero()[0] + 1).tolist(), start.size]
        parts = [stage(xy, row[i:j], lane[i:j]) for i, j in zip(bounds, bounds[1:])]
        return tuple(np.concatenate(a) for a in zip(*parts))

    def _centerline(self, xy: np.ndarray, row: np.ndarray, lane: np.ndarray):
        """Stage 1: the interior pairs' rows and lanelets, nearest chords, feet along them, distances and offsets."""
        stack = self._stack
        seg, t_raw, t, diff_x, diff_y = _nearest(stack, xy[row], 3 * lane)
        along = stack.cum_len[seg] + t_raw
        interior = (-_END_TOL <= along) & (along <= self._length[lane] + _END_TOL)
        row, lane, seg, t, diff_x, diff_y = (a[interior] for a in (row, lane, seg, t, diff_x, diff_y))
        offset = diff_x * stack.dir_y[seg] - diff_y * stack.dir_x[seg]
        return row, lane, seg, t, np.hypot(diff_x, diff_y), offset

    def _inside(self, xy: np.ndarray, row: np.ndarray, lane: np.ndarray) -> tuple[np.ndarray]:
        """Stage 2: whether each pair's point is within the margin of its lanelet's left and right boundary."""
        stack = self._stack
        bseg, _, _, bdiff_x, bdiff_y = _nearest(stack, xy[row].repeat(2, axis=0), (3 * lane[:, None] + _BOUNDARIES).ravel())
        cross = bdiff_x * stack.dir_y[bseg] - bdiff_y * stack.dir_x[bseg]
        return ((cross[0::2] >= -_ON_ROAD_MARGIN) & (cross[1::2] <= _ON_ROAD_MARGIN),)


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
    start, sizes = stack.first[poly], stack.seg_count[poly]
    first = sizes.cumsum() - sizes
    group_of = np.arange(sizes.size).repeat(sizes)
    idx = np.arange(group_of.size) + (start - first)[group_of]
    x, y = xy[:, 0][group_of], xy[:, 1][group_of]
    seg_x, seg_y, seg_dx, seg_dy = stack.x[idx], stack.y[idx], stack.dir_x[idx], stack.dir_y[idx]
    t_raw = (x - seg_x) * seg_dx + (y - seg_y) * seg_dy
    t = np.minimum(np.maximum(t_raw, 0.0), stack.seg_len[idx])
    diff_x = x - (seg_x + t * seg_dx)
    diff_y = y - (seg_y + t * seg_dy)
    k = _first_nearest(diff_x, diff_y, first, group_of)
    return idx[k], t_raw[k], t[k], diff_x[k], diff_y[k]


def _first_nearest(diff_x: np.ndarray, diff_y: np.ndarray, first: np.ndarray, group_of: np.ndarray) -> np.ndarray:
    """Index of the first nearest chord in each group of point-to-chord offsets.

    Group g holds the offsets first[g]:first[g + 1], and group_of maps each
    offset to its group.
    """
    dist = np.hypot(diff_x, diff_y)
    hit = np.where(dist == np.minimum.reduceat(dist, first)[group_of], np.arange(dist.size), dist.size)
    return np.minimum.reduceat(hit, first)


def _frenet(stack: _PolylineStack, i: int, px: float, py: float, s_chord: float) -> tuple[float, float]:
    """Arc length along the stack's polyline i and right-positive crosstrack of (px, py)'s foot on the vertex normals.

    On segment k with unit direction e and length L the foot is
    P(u) = start + u·e, at the u where p − P(u) is parallel to
    N(u) = N_k + (u/L)·(N_{k+1} − N_k). The search starts on the segment
    holding `s_chord` (the nearest chord's foot) and walks to the neighbour
    while u leaves [0, L]. On the first and last segment u extrapolates past
    the end, which keeps downtrack continuous across lanelet joints. As in
    `_nearest`, k is an absolute row: polyline i's segments are the rows
    first[i] to first[i + 1] - 2. It runs on Python floats, which round as NumPy's element operations do.
    """
    start, end = stack.first[i:i + 2].tolist()
    last = end - 2
    k = min(start + int(np.searchsorted(stack.cum_len[start:end], s_chord, side="right")) - 1, last)
    u, length = _foot(stack, px, py, k)
    step = 1 if u > length else -1
    while (u > length if step > 0 else u < 0.0) and start <= k + step <= last:
        k += step
        u, length = _foot(stack, px, py, k)
    if (u < 0.0 and k > start) or (u > length and k < last):
        # walked past the point: it lies where the normals of neighbouring
        # segments cross (inside a sharp bend); take their shared vertex
        u = min(max(u, 0.0), length)
    (n0x, n0y), (n1x, n1y) = stack.normals[k:k + 2].tolist()
    normal_x, normal_y = n0x + u / length * (n1x - n0x), n0y + u / length * (n1y - n0y)
    (x, y, _), (ex, ey) = stack.points[k].tolist(), stack.seg_dir[k].tolist()
    off_x, off_y = px - x - u * ex, py - y - u * ey
    cross = (off_x * normal_x + off_y * normal_y) / math.hypot(normal_x, normal_y)
    return float(stack.cum_len[k]) + u, cross


def _foot(stack: _PolylineStack, px: float, py: float, k: int) -> tuple[float, float]:
    # the foot u on segment k, and its length L: p − P(u) ∥ N(u) is
    # cross(r − u·e, N_k + u·m) = 0 with r = p − start and m = (N_{k+1} −
    # N_k)/L, i.e. qa·u² + qb·u + qc = 0. The root taken tends to −qc/qb as
    # the segment straightens (m → 0), where 2·qc/den stays exact.
    length = float(stack.seg_len[k])
    ex, ey = stack.seg_dir[k].tolist()
    (nx, ny), (n1x, n1y) = stack.normals[k:k + 2].tolist()
    mx, my = (n1x - nx) / length, (n1y - ny) / length
    x, y, _ = stack.points[k].tolist()
    rx, ry = px - x, py - y
    qa = mx * ey - my * ex
    qb = (rx * my - ry * mx) - (ex * ny - ey * nx)
    qc = rx * ny - ry * nx
    den = -qb - math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb)
    if den == 0.0:
        return rx * ex + ry * ey, length  # no foot on this segment's normals
    return 2.0 * qc / den, length


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
