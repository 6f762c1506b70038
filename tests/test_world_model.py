import copy
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavtraj.errors import InvalidArgument, ValidationError
from cavtraj.pipeline.scenario import RoadSpec, build_vector_map_dict
from cavtraj.world_model import _PAIRS, FrenetCoord, filter_on_road, load_vector_map, vector_map_from_dict

MAPS = Path(__file__).parent / "fixtures" / "maps"


@pytest.fixture(scope="module")
def straight():
    return load_vector_map(MAPS / "straight.json")


@pytest.fixture(scope="module")
def arc():
    return load_vector_map(MAPS / "arc.json")


@pytest.fixture(scope="module")
def freeway():
    return load_vector_map(MAPS / "freeway3.json")


def test_load_minimal_straight_map(straight):
    assert len(straight.lanelets) == 3  # 120 m split into 50 m lanelets
    fc = straight.project([(5.0, 0.0, 0.0)])[0]
    assert fc is not None and fc.lane_id == 1


def test_load_freeway_topology(freeway):
    lane_ids = {ll.lane_id for ll in freeway.lanelets.values()}
    assert lane_ids == {1, 2, 3}
    # chained lanelets accumulate offsets
    offsets = sorted(ll.chain_offset for ll in freeway.lanelets.values() if ll.lane_id == 2)
    assert offsets[0] == 0.0 and offsets[-1] == pytest.approx(250.0)


def test_load_dangling_successor_rejected(straight):
    data = json.loads((MAPS / "straight.json").read_text())
    data["lanelets"][0]["successors"] = [999]
    with pytest.raises(ValidationError, match="999"):
        vector_map_from_dict(data)


def test_load_reversing_centerline_rejected():
    # a 180 degree turn has no vertex normal: inside a lanelet and at a joint
    data = json.loads((MAPS / "straight.json").read_text())
    inside, joint = copy.deepcopy(data), copy.deepcopy(data)
    inside["lanelets"][0]["centerline"][-1] = [36.0, 0.0, 0.0]
    joint["lanelets"][1]["centerline"] = [[40.0, 0.0, 0.0], [39.0, 0.0, 0.0]]
    joint["lanelets"][1]["successors"] = []
    with pytest.raises(ValidationError, match="lanelet 100: polyline turns back"):
        vector_map_from_dict(inside)
    with pytest.raises(ValidationError, match="lanelets 100 -> 101: polyline turns back"):
        vector_map_from_dict(joint)


SCHEMA_VIOLATIONS = {
    "lanelet_missing_keys": {"lanelets": [{"lanelet_id": 1}]},
    # the map frame has no geodetic anchor: a map that names one is rejected, not read as if it had none
    "geodetic_origin": {
        **json.loads((MAPS / "straight.json").read_text()),
        "origin": {"latitude": 48.0, "longitude": 11.0},
    },
}


@pytest.mark.parametrize("data", SCHEMA_VIOLATIONS.values(), ids=SCHEMA_VIOLATIONS.keys())
def test_load_schema_violation_rejected(data):
    with pytest.raises(ValidationError, match="schema violation"):
        vector_map_from_dict(data)


def _lanelet_1(**fields):
    return lambda data: data["lanelets"][1].update(fields)


# one case per structural rule of the map format: (in-place edit of the straight map, path the error names)
MAP_RULES = {
    "top_level_not_object": (None, []),
    "extra_top_level_key": (lambda d: d.update(version=2), []),
    "lanelets_missing": (lambda d: d.pop("lanelets"), []),
    "lanelets_not_list": (lambda d: d.update(lanelets={"100": {}}), ["lanelets"]),
    "lanelets_empty": (lambda d: d.update(lanelets=[]), ["lanelets"]),
    # a list that holds every key name passes a membership test for each key
    "lanelet_not_object": (lambda d: d["lanelets"].insert(1, list(d["lanelets"][1])), ["lanelets", 1]),
    "lanelet_missing_key": (lambda d: d["lanelets"][1].pop("lane_id"), ["lanelets", 1]),
    "lanelet_id_negative": (_lanelet_1(lanelet_id=-1), ["lanelets", 1, "lanelet_id"]),
    "lanelet_id_bool": (_lanelet_1(lanelet_id=True), ["lanelets", 1, "lanelet_id"]),
    "lanelet_id_fraction": (_lanelet_1(lanelet_id=101.5), ["lanelets", 1, "lanelet_id"]),
    "lanelet_id_string": (_lanelet_1(lanelet_id="101"), ["lanelets", 1, "lanelet_id"]),
    "lane_id_negative": (_lanelet_1(lane_id=-1), ["lanelets", 1, "lane_id"]),
    "lane_id_nan": (_lanelet_1(lane_id=math.nan), ["lanelets", 1, "lane_id"]),
    "successors_not_list": (_lanelet_1(successors=102), ["lanelets", 1, "successors"]),
    "successor_string": (_lanelet_1(successors=["102"]), ["lanelets", 1, "successors", 0]),
    "predecessor_bool": (_lanelet_1(predecessors=[100, True]), ["lanelets", 1, "predecessors", 1]),
    "predecessor_fraction": (_lanelet_1(predecessors=[100.5]), ["lanelets", 1, "predecessors", 0]),
    "centerline_one_point": (_lanelet_1(centerline=[[50.0, 0.0, 0.0]]), ["lanelets", 1, "centerline"]),
    "left_boundary_string": (_lanelet_1(left_boundary="50,1.85,0"), ["lanelets", 1, "left_boundary"]),
    "right_boundary_tuple": (_lanelet_1(right_boundary=([50.0, -1.85, 0.0], [100.0, -1.85, 0.0])),
                             ["lanelets", 1, "right_boundary"]),
    "name_not_string": (lambda d: d.update(name=7), ["name"]),
    # not part of the format: rejected like any other extra key
    "retired_lateral_window": (lambda d: d.update(lateral_window=15.0), []),
}


@pytest.mark.parametrize("edit, path", MAP_RULES.values(), ids=MAP_RULES.keys())
def test_map_structural_rule_rejected_at_its_path(edit, path):
    data = json.loads((MAPS / "straight.json").read_text())
    if edit is None:
        data = [data]
    else:
        edit(data)
    with pytest.raises(ValidationError, match=re.escape(f"vector map schema violation at {path}: ")):
        vector_map_from_dict(data)


def test_map_integral_float_ids_and_extra_lanelet_keys_accepted(straight):
    data = json.loads((MAPS / "straight.json").read_text())
    for entry in data["lanelets"]:
        entry["note"] = "ignored"
        for key in ("lanelet_id", "lane_id"):
            entry[key] = float(entry[key])
        for key in ("predecessors", "successors"):
            entry[key] = [float(i) for i in entry[key]]
    vmap = vector_map_from_dict(data)
    assert sorted(vmap.lanelets) == sorted(straight.lanelets)
    for lid, ll in vmap.lanelets.items():
        ref = straight.lanelets[lid]
        assert (ll.lane_id, ll.predecessors, ll.successors, ll.chain_offset) == (
            ref.lane_id, ref.predecessors, ref.successors, ref.chain_offset)


@pytest.mark.parametrize(
    "value, message",
    [
        (math.nan, "non-finite"),
        (math.inf, "non-finite"),
        (-math.inf, "non-finite"),
        (10**400, "out of float range"),
        (True, "lists of numbers"),
        ("1.85", "lists of numbers"),
        (None, "lists of numbers"),
    ],
    ids=["nan", "inf", "-inf", "huge-int", "bool", "string", "null"],
)
def test_load_bad_coordinate_rejected(tmp_path, value, message):
    # json.dumps writes NaN and Infinity tokens, which json.loads accepts
    data = json.loads((MAPS / "straight.json").read_text())
    data["lanelets"][1]["left_boundary"][0][1] = value
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=f"lanelet 101: left_boundary: .*{message}"):
        load_vector_map(path)


@pytest.mark.parametrize(
    "polyline, message",
    [
        ([[40.0, 1.85], [42.0, 1.85]], "lanelet 101: right_boundary: .*lists of numbers"),
        ([[40.0, 1.85, 0.0, 1.0], [42.0, 1.85, 0.0]], "lanelet 101: right_boundary: .*lists of numbers"),
        ([[40.0, 1.85, 0.0], (42.0, 1.85, 0.0)], "lanelet 101: right_boundary: .*lists of numbers"),
        ([[40.0, 1.85, 0.0]], "schema"),
        ("40,1.85,0", "schema"),
    ],
    ids=["2-value-point", "4-value-point", "tuple-point", "single-point", "string"],
)
def test_load_bad_polyline_shape_rejected(polyline, message):
    data = json.loads((MAPS / "straight.json").read_text())
    data["lanelets"][1]["right_boundary"] = polyline
    with pytest.raises(ValidationError, match=message):
        vector_map_from_dict(data)


def test_load_bad_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_vector_map(bad)


UNREADABLE_MAPS = {
    "missing": lambda p: None,
    "non_utf8": lambda p: p.write_bytes(b'{"name": "\xff\xfe", "lanelets": []}'),
    # json.loads recurses once per level and gives up far below this depth
    "deep_nesting": lambda p: p.write_text("[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize("make", UNREADABLE_MAPS.values(), ids=UNREADABLE_MAPS.keys())
def test_unreadable_map_file_rejected(tmp_path, make):
    path = tmp_path / "map.json"
    make(path)
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        load_vector_map(path)


def test_frenet_centerline_start_is_origin(straight):
    fc = straight.project([(0.0, 0.0, 0.0)])[0]
    assert fc.downtrack == pytest.approx(0.0, abs=1e-9)
    assert fc.crosstrack == pytest.approx(0.0, abs=1e-9)


def test_frenet_straight_offset_point(straight):
    # 1.5 m to the right of the centerline at downtrack 20 (right = -y here)
    fc = straight.project([(20.0, -1.5, 0.0)])[0]
    assert fc.downtrack == pytest.approx(20.0, abs=1e-6)
    assert fc.crosstrack == pytest.approx(1.5, abs=1e-6)
    left = straight.project([(20.0, 1.5, 0.0)])[0]
    assert left.crosstrack == pytest.approx(-1.5, abs=1e-6)


def test_frenet_downtrack_crosses_lanelet_chain(straight):
    fc = straight.project([(80.0, 0.4, 0.0)])[0]
    assert fc.downtrack == pytest.approx(80.0, abs=1e-6)
    assert fc.lanelet_id == 101  # second lanelet of lane 1


def test_frenet_arc_half_arc_downtrack(arc):
    # halfway around a 50 m radius quarter circle
    radius, angle = 50.0, math.radians(45.0)
    p = (radius * math.sin(angle), radius * (1 - math.cos(angle)), 0.0)
    fc = arc.project([p])[0]
    assert fc is not None
    assert fc.downtrack == pytest.approx(radius * angle, abs=1e-3)
    assert fc.crosstrack == pytest.approx(0.0, abs=1e-3)


def test_frenet_arc_lateral_sign(arc):
    # a point radially outward from the turn center is right of the path
    radius, angle = 50.0, math.radians(30.0)
    out_p = ((radius + 1.0) * math.sin(angle), 50.0 - (radius + 1.0) * math.cos(angle), 0.0)
    fc = arc.project([out_p])[0]
    assert fc.crosstrack == pytest.approx(1.0, abs=2e-3)


def test_frenet_off_road_marker(straight):
    assert straight.project([(20.0, 12.0, 0.0)])[0] is None
    assert straight.project([(20.0, 2.5, 0.0)])[0] is None  # 0.65 m past boundary+margin


def test_frenet_margin_keeps_near_boundary_points(straight):
    # boundary at 1.85 m; margin 0.5 keeps up to 2.35
    assert straight.project([(20.0, -2.2, 0.0)])[0] is not None


def test_freeway_lane_assignment(freeway):
    for lane, y in ((1, 3.7), (2, 0.0), (3, -3.7)):
        fc = freeway.project([(150.0, y, 0.0)])[0]
        assert fc.lane_id == lane
        assert abs(fc.crosstrack) < 1e-6


def test_freeway_ties_broken_by_smaller_crosstrack(freeway):
    # point on the shared boundary between lanes 1 and 2 belongs to either;
    # nudge slightly toward lane 2
    fc = freeway.project([(150.0, 1.8, 0.0)])[0]
    assert fc.lane_id == 2


def test_round_trip_straight(straight):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(0, 120)
        y = rng.uniform(-1.8, 1.8)
        fc = straight.project([(x, y, 0.0)])[0]
        # analytic inverse for the straight east-bound road
        back = (fc.downtrack, -fc.crosstrack)
        assert back[0] == pytest.approx(x, abs=1e-3)
        assert back[1] == pytest.approx(y, abs=1e-3)


def test_round_trip_arc(arc):
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = rng.uniform(0.05, math.radians(90) - 0.05)
        lateral = rng.uniform(-1.5, 1.5)
        radius = 50.0 + lateral
        p = (radius * math.sin(theta), 50.0 - radius * math.cos(theta), 0.0)
        fc = arc.project([p])[0]
        back_theta = fc.downtrack / 50.0
        back_r = 50.0 + fc.crosstrack
        back = (back_r * math.sin(back_theta), 50.0 - back_r * math.cos(back_theta))
        assert back[0] == pytest.approx(p[0], abs=1e-3)
        assert back[1] == pytest.approx(p[1], abs=1e-3)


@pytest.mark.parametrize("lateral", [1.5, -1.5])
def test_downtrack_steps_evenly_across_arc_joint(arc, lateral):
    # circles 1.5 m outside (+) and inside (-) the centerline, swept across the
    # 45 degree joint of lanelets 100 and 101: chord feet stall or jump there
    radius = 50.0 + lateral
    thetas = math.radians(45.0) + np.arange(-100, 101) * 1e-4
    downs = []
    for theta in thetas:
        p = (radius * math.sin(theta), 50.0 - radius * math.cos(theta), 0.0)
        fc = arc.project([p])[0]
        downs.append(fc.downtrack)
        back_r = 50.0 + fc.crosstrack
        back_theta = fc.downtrack / 50.0
        assert back_r * math.sin(back_theta) == pytest.approx(p[0], abs=1e-3)
        assert 50.0 - back_r * math.cos(back_theta) == pytest.approx(p[1], abs=1e-3)
    assert np.diff(downs) == pytest.approx(50.0 * np.diff(thetas), abs=1e-4)


def _right_angle_bend(leg, half_width):
    # `leg` m east, then `leg` m north: vertex normals (0, -1), (1, -1)/sqrt(2), (1, 0)
    def polyline(offset):
        return [[0.0, -offset, 0.0], [leg + offset, -offset, 0.0], [leg + offset, leg, 0.0]]

    return vector_map_from_dict({"lanelets": [{
        "lanelet_id": 1, "lane_id": 1, "centerline": polyline(0.0),
        "left_boundary": polyline(-half_width), "right_boundary": polyline(half_width),
    }]})


def test_frenet_foot_on_interpolated_normal_at_sharp_corner():
    vmap = _right_angle_bend(10.0, 1.85)
    normals = np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 0.0]])
    normals[1] /= math.sqrt(2.0)
    for seg, start, direction in ((0, (0.0, 0.0), (1.0, 0.0)), (1, (10.0, 0.0), (0.0, 1.0))):
        for u in (1.0, 5.0, 9.0):
            n = normals[seg] + u / 10.0 * (normals[seg + 1] - normals[seg])
            for lateral in (-1.5, 1.5):
                p = np.add(start, np.multiply(u, direction)) + lateral * n / np.linalg.norm(n)
                fc = vmap.project([p])[0]
                assert fc.downtrack == pytest.approx(10.0 * seg + u, abs=1e-9)
                assert fc.crosstrack == pytest.approx(lateral, abs=1e-9)


def test_frenet_where_normals_cross_takes_the_vertex():
    # with 1 m legs the two legs' normals cross inside the lane; a point there
    # has no foot on either leg and maps to the bend's vertex (1, 0)
    vmap = _right_angle_bend(1.0, 0.9)
    p = np.array([0.2, 1.25])
    fc = vmap.project([p])[0]
    assert fc.downtrack == pytest.approx(1.0, abs=1e-9)
    assert fc.crosstrack == pytest.approx(np.dot(p - (1.0, 0.0), (1.0, -1.0)) / math.sqrt(2.0), abs=1e-9)


def test_downtrack_monotone_along_route(freeway):
    ss = np.linspace(0.0, 299.0, 400)
    downs = [freeway.project([(s, 0.0, 0.0)])[0].downtrack for s in ss]
    assert all(b >= a - 1e-9 for a, b in zip(downs, downs[1:]))


class FakeTrack:
    def __init__(self, x, y):
        self.position = np.array([x, y, 0.0])


def test_filter_on_road_keeps_and_drops(straight):
    tracks = [FakeTrack(30.0, 0.0), FakeTrack(30.0, 10.0), FakeTrack(50.0, -1.0)]
    kept = filter_on_road(tracks, straight)
    assert [t.position[0] for t, _ in kept] == [30.0, 50.0]
    for _, fc in kept:
        assert fc is not None


def test_filter_on_road_idempotent(straight):
    rng = np.random.default_rng(11)
    tracks = [FakeTrack(rng.uniform(0, 120), rng.uniform(-4, 4)) for _ in range(40)]
    once = filter_on_road(tracks, straight)
    twice = filter_on_road([t for t, _ in once], straight)
    assert [id(t) for t, _ in once] == [id(t) for t, _ in twice]


def test_filter_on_road_mixed_labels(straight):
    rng = np.random.default_rng(13)
    tracks, labels = [], []
    for _ in range(60):
        x = rng.uniform(1, 119)
        if rng.random() < 0.5:
            y = rng.uniform(-1.3, 1.3)  # >= 0.5 m inside the boundary
            labels.append(True)
        else:
            y = rng.choice([-1, 1]) * rng.uniform(2.9, 8.0)  # >= 0.5 m outside margin
            labels.append(False)
        tracks.append(FakeTrack(x, y))
    kept_ids = {id(t) for t, _ in filter_on_road(tracks, straight)}
    for track, on_road in zip(tracks, labels):
        assert (id(track) in kept_ids) == on_road


# --- stacked projection against a per-lanelet chord loop ---------------------


def _chord_project(line, xy):
    # nearest chord of one polyline: (arc length, right-positive offset, distance, interior)
    rel = xy - line.seg_start
    t_raw = np.einsum("ij,ij->i", rel, line.seg_dir)
    t = np.clip(t_raw, 0.0, line.seg_len)
    diff = xy - (line.seg_start + t[:, None] * line.seg_dir)
    dist = np.hypot(diff[:, 0], diff[:, 1])
    k = int(np.argmin(dist))
    cross = diff[k, 0] * line.seg_dir[k, 1] - diff[k, 1] * line.seg_dir[k, 0]
    interior = -0.5 <= line.cum_len[k] + t_raw[k] <= line.length + 0.5
    return float(line.cum_len[k] + t[k]), float(cross), float(dist[k]), interior


def _in_reach_box(ll, xy):
    # the bounding box of the lanelet's three polylines, grown by 0.5 m margin + 0.5 m end tolerance
    vertices = np.concatenate([line.points[:, :2] for line in (ll.centerline, ll.left_boundary, ll.right_boundary)])
    return bool(np.all(vertices.min(axis=0) - 1.0 <= xy) and np.all(xy <= vertices.max(axis=0) + 1.0))


def chord_loop_frenet(vmap, point, margin=0.5, reach=True):
    """Reference: project onto each lanelet's polylines one lanelet at a time.

    reach=False drops the reach-box condition and leaves the bare chord tests.
    """
    xy = np.asarray(point, dtype=float)[:2]
    best = None
    for ll in sorted(vmap.lanelets.values(), key=lambda l: l.lanelet_id):
        if reach and not _in_reach_box(ll, xy):
            continue
        s, cross, dist, interior = _chord_project(ll.centerline, xy)
        if not interior:
            continue
        if _chord_project(ll.left_boundary, xy)[1] < -margin or _chord_project(ll.right_boundary, xy)[1] > margin:
            continue
        key = (round(dist, 9), abs(cross), ll.lanelet_id)
        if best is None or key < best[0]:
            best = (key, ll, s)
    if best is None:
        return None
    _, ll, s_chord = best
    s, cross = ll.centerline.frenet(xy, s_chord)
    return FrenetCoord(ll.chain_offset + s, cross, ll.lanelet_id, ll.lane_id)


def _on_polyline(line, s):
    # point at arc length s (extrapolated past the ends) and the unit right normal there
    k = min(max(int(np.searchsorted(line.cum_len, s, side="right")) - 1, 0), len(line.seg_len) - 1)
    e = line.seg_dir[k]
    return line.seg_start[k] + (s - line.cum_len[k]) * e, np.array([e[1], -e[0]])


def _probe_points(vmap, rng, n):
    """Vertices, plus seeded points on the road, at the margin, past the ends and off the map."""
    lines = [(ll, line) for ll in vmap.lanelets.values()
             for line in (ll.centerline, ll.left_boundary, ll.right_boundary)]
    points = [p for _, line in lines for p in line.points[:, :2]]
    lo = np.min(points, axis=0) - 100.0
    hi = np.max(points, axis=0) + 100.0
    points += [np.array([math.nan, 0.0]), np.array([math.inf, 1.0]), np.array([-math.inf, math.nan])]
    for _ in range(n):
        ll, line = lines[rng.integers(len(lines))]
        kind = rng.integers(6)
        if kind == 0:  # on the road and a little beyond it
            p, normal = _on_polyline(ll.centerline, rng.uniform(0.0, ll.length))
            points.append(p + rng.uniform(-3.0, 3.0) * normal)
        elif kind == 1:  # just inside or just past boundary + margin
            right = rng.uniform() < 0.5
            p, normal = _on_polyline(ll.right_boundary if right else ll.left_boundary,
                                     rng.uniform(0.0, ll.length))
            points.append(p + (0.5 + rng.uniform(-0.02, 0.02)) * (normal if right else -normal))
        elif kind == 2:  # around the 0.5 m end tolerance of a centerline
            s = -rng.uniform(0.0, 1.0) if rng.uniform() < 0.5 else ll.length + rng.uniform(0.0, 1.0)
            p, normal = _on_polyline(ll.centerline, s)
            points.append(p + rng.uniform(-2.0, 2.0) * normal)
        elif kind == 3:  # near a vertex, where neighbouring chords tie
            angle = rng.uniform(-math.pi, math.pi)
            points.append(line.points[rng.integers(len(line.points)), :2]
                          + rng.uniform(0.0, 3.0) * np.array([math.cos(angle), math.sin(angle)]))
        elif kind == 4:  # anywhere around the map
            points.append(rng.uniform(lo, hi))
        else:  # far off the map
            points.append(rng.uniform(-1.0, 1.0, 2) * 1e4)
    return points


@pytest.mark.parametrize("name", ["straight.json", "arc.json", "freeway3.json", "right_angle_bend"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference on non-finite probes
def test_to_frenet_matches_chord_loop(name):
    if name == "right_angle_bend":
        vmap = _right_angle_bend(10.0, 1.85)
    else:
        vmap = load_vector_map(MAPS / name)
    rng = np.random.default_rng(17)
    points = _probe_points(vmap, rng, 400)
    results = []
    for p in points:
        got, want = vmap.project([p])[0], chord_loop_frenet(vmap, p)
        assert got == want, p
        results.append(got)
    # the probes reach both sides of the road edge
    assert any(r is None for r in results) and any(r is not None for r in results)
    # one batch of the whole set, across chunk boundaries, gives the same coordinates
    assert vmap.project(points) == results


def test_to_frenet_first_of_tied_chords_decides():
    # outside the bend's corner both legs of each polyline reach the point from
    # their shared vertex; the first leg counts, and by the right boundary's
    # first leg (12, -3) lies 1.15 m outside the road, past the 0.5 m margin
    vmap = _right_angle_bend(10.0, 1.85)
    assert vmap.project([(12.0, -3.0)])[0] is None
    assert chord_loop_frenet(vmap, (12.0, -3.0)) is None
    assert vmap.project([(12.0, -2.2)])[0] is not None


def _notched_lanelet():
    # a 1 m notch in the right boundary: its chord (5, -1.75) -> (5, -3) points straight at (5, -1000)
    return vector_map_from_dict({"lanelets": [{
        "lanelet_id": 1, "lane_id": 1,
        "centerline": [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
        "left_boundary": [[0.0, 1.75, 0.0], [10.0, 1.75, 0.0]],
        "right_boundary": [[0.0, -1.75, 0.0], [5.0, -1.75, 0.0], [5.0, -3.0, 0.0], [4.0, -3.0, 0.0],
                           [4.0, -2.0, 0.0], [10.0, -2.0, 0.0]],
    }]})


@pytest.mark.parametrize("vmap, point, crosstrack", [
    (_notched_lanelet(), (5.0, -1000.0), 1000.0),
    (_right_angle_bend(10.0, 1.85), (14.0, -2.0), 5.19),
], ids=["notched_boundary", "right_angle_bend"])
def test_reach_box_rejects_what_the_bare_chord_tests_admit(vmap, point, crosstrack):
    # the nearest boundary chord's foot is clipped to its end, and the offset from
    # its extension line is small however far the point is
    bare = chord_loop_frenet(vmap, point, reach=False)
    assert bare is not None and bare.crosstrack == pytest.approx(crosstrack, abs=0.005)
    assert chord_loop_frenet(vmap, point) is None
    assert vmap.project([point]) == [None]


WORKLOAD_ROADS = {
    "freeway_baseline": RoadSpec(kind="straight", length=400.0, n_lanes=3),
    "arc_fleet": RoadSpec(kind="arc", radius=400.0, arc_angle_deg=100.0, n_lanes=4, sample_step=0.5),
    "disk_replay": RoadSpec(kind="straight", length=300.0, n_lanes=2),
}


@pytest.mark.parametrize("road", WORKLOAD_ROADS.values(), ids=WORKLOAD_ROADS.keys())
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference on non-finite probes
def test_reach_box_changes_nothing_on_the_workload_roads(road):
    vmap = vector_map_from_dict(build_vector_map_dict(road))
    points = _probe_points(vmap, np.random.default_rng(23), 2000)[-2003:]  # the seeded probes, not the vertices
    with_reach = [chord_loop_frenet(vmap, p) for p in points]
    assert with_reach == [chord_loop_frenet(vmap, p, reach=False) for p in points]
    assert any(r is None for r in with_reach) and any(r is not None for r in with_reach)


def _arc_fleet_map():
    # 58 lanelets, 5 621 centerline segments
    return vector_map_from_dict(build_vector_map_dict(WORKLOAD_ROADS["arc_fleet"]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference on non-finite probes
def test_project_batch_across_pair_splits_matches_single_points():
    vmap = _arc_fleet_map()
    rng = np.random.default_rng(19)
    probes = _probe_points(vmap, rng, 300)
    points = [probes[i] for i in sorted(rng.choice(len(probes) - 303, 60, replace=False))] + probes[-303:]
    # (point, centerline segment) pairs in the reach boxes: the batch is split at least once
    pairs = sum(len(ll.centerline.seg_len) for p in points for ll in vmap.lanelets.values()
                if np.isfinite(p).all() and _in_reach_box(ll, p))
    assert pairs > 2 * _PAIRS
    got = vmap.project(points)
    assert got == [vmap.project([p])[0] for p in points]
    assert got == [chord_loop_frenet(vmap, p) for p in points]
    assert any(r is None for r in got) and any(r is not None for r in got)


def test_project_memory_stays_bounded_for_a_large_batch():
    # 20 000 points over the road and 3 m past its edges give about 57 000
    # (point, lanelet) pairs and 5.6 M (point, centerline segment) pairs, 43 MiB
    # per float64 temporary in one piece; split, the peak (about 9 MiB) is the
    # per-point arrays, the (points x lanelets) box test and the result objects
    road = WORKLOAD_ROADS["arc_fleet"]
    vmap = _arc_fleet_map()
    rng = np.random.default_rng(29)
    s = rng.uniform(0.0, road.road_length, 20_000)
    lateral = rng.uniform(-road.half_width - 3.0, road.half_width + 3.0, s.size)
    points = [road.offset_point(a, b) for a, b in zip(s.tolist(), lateral.tolist())]
    tracemalloc.start()
    try:
        got = vmap.project(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r is not None for r in got) > 10_000
    assert peak < 16 * 2**20


def test_project_empty_non_finite_and_mixed_batches(freeway):
    assert freeway.project([]) == []
    non_finite = [(math.nan, 0.0), (math.inf, 1.0, 0.0), np.array([-math.inf, math.nan, 0.0])]
    assert freeway.project(non_finite) == [None, None, None]
    on_road, off_road = (150.0, 1.8, 0.0), (150.0, 40.0, 0.0)
    mixed = [on_road, non_finite[0], off_road, np.array(on_road), non_finite[2]]
    want = freeway.project([on_road])[0]
    assert want is not None and freeway.project([off_road])[0] is None
    assert freeway.project(mixed) == [want, None, None, want, None]


@pytest.mark.parametrize("point", [
    (20.0,), (), 20.0, np.array([[20.0, 0.0]]), ("20", 0.0), (None, 0.0), ("a", "b"), np.array([True, False]),
    (20.0, 1j),
])
def test_malformed_point_rejected(straight, point):
    with pytest.raises(InvalidArgument, match="point"):
        straight.project([point])
    with pytest.raises(InvalidArgument, match="point 1"):
        straight.project([(20.0, 0.0, 0.0), point])
