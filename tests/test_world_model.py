import copy
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavtraj import world_model
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
    joint["lanelets"][1]["successors"] = joint["lanelets"][2]["predecessors"] = []
    with pytest.raises(ValidationError, match="lanelet 100: polyline turns back"):
        vector_map_from_dict(inside)
    with pytest.raises(ValidationError, match="lanelets 100 -> 101: polyline turns back"):
        vector_map_from_dict(joint)



def _ring():
    # two same-lane lanelets, each the other's successor
    a = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 5.0, 0.0]]
    b = [[10.0, 5.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]
    return {"lanelets": [
        {"lanelet_id": 1, "lane_id": 1, "centerline": a, "left_boundary": a, "right_boundary": a, "successors": [2]},
        {"lanelet_id": 2, "lane_id": 1, "centerline": b, "left_boundary": b, "right_boundary": b, "successors": [1]},
    ]}


def _fork(data):
    # lanelet 100 gets a second same-lane successor, 103, which starts at its end as 101 does
    line = [[40.0, 0.0, 0.0], [50.0, 5.0, 0.0]]
    data["lanelets"].append(_lanelet(103, line, line, line, predecessors=[100]))
    data["lanelets"][0]["successors"].append(103)


# one case per link rule: (in-place edit of the straight map, the message)
LINK_RULES = {
    "duplicate_id": (lambda d: d["lanelets"][2].update(lanelet_id=100), "duplicate lanelet_id 100"),
    "unknown_predecessor": (lambda d: d["lanelets"][1].update(predecessors=[100, 7]),
                            "lanelet 101 references unknown predecessor 7"),
    # lanelet 101 names 100 as its predecessor, but 100 lists no successor
    "unmatched_predecessor": (lambda d: d["lanelets"][0].update(successors=[]),
                              "lanelet 101 lists predecessor 100, which does not list it as a successor"),
    "successor_gap": (lambda d: d["lanelets"][2]["centerline"].__setitem__(0, [80.0, 0.5, 0.0]),
                      "successor 102 of lanelet 101 starts 0.500 m away from its end (tolerance 0.1 m)"),
    "two_same_lane_predecessors": (lambda d: d["lanelets"][0].update(successors=[101, 101]),
                                   "lanelet 101 has multiple same-lane predecessors"),
    "same_lane_fork": (_fork, "lanelet 100 has multiple same-lane successors"),
    "cycle": (None, "lane chain containing lanelet 1 has a cycle"),
}


@pytest.mark.parametrize("edit, message", LINK_RULES.values(), ids=LINK_RULES.keys())
def test_link_rule_rejected(edit, message):
    if edit is None:
        data = _ring()
    else:
        data = json.loads((MAPS / "straight.json").read_text())
        edit(data)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        vector_map_from_dict(data)


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

    return {"lanelets": [{
        "lanelet_id": 1, "lane_id": 1, "centerline": polyline(0.0),
        "left_boundary": polyline(-half_width), "right_boundary": polyline(half_width),
    }]}


def test_frenet_foot_on_interpolated_normal_at_sharp_corner():
    vmap = vector_map_from_dict(_right_angle_bend(10.0, 1.85))
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
    vmap = vector_map_from_dict(_right_angle_bend(1.0, 0.9))
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

SIDES = ("centerline", "left_boundary", "right_boundary")


def _reference_polyline(points):
    # one polyline on its own, as map load computed it before the stacked pass
    pts = np.array(points, dtype=float)
    d = np.diff(pts[:, :2], axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    seg_dir = d / seg_len[:, None]
    cum_len = np.r_[0.0, np.cumsum(seg_len)]
    seg_normal = np.stack([seg_dir[:, 1], -seg_dir[:, 0]], axis=-1)
    mid = seg_normal[:-1] + seg_normal[1:]
    normals = np.r_[seg_normal[:1], mid / np.hypot(mid[:, 0], mid[:, 1])[:, None], seg_normal[-1:]]
    return {"points": pts, "seg_start": pts[:-1, :2], "seg_dir": seg_dir, "seg_len": seg_len,
            "cum_len": cum_len, "length": float(cum_len[-1]), "normals": normals}


def _reference_lines(data):
    # each lanelet's three polylines, computed one by one from the map dict, in input order
    return {e["lanelet_id"]: tuple(_reference_polyline(e[side]) for side in SIDES) for e in data["lanelets"]}


def _chord_project(line, xy):
    # nearest chord of one polyline: (arc length, right-positive offset, distance, interior)
    rel = xy - line["seg_start"]
    t_raw = np.einsum("ij,ij->i", rel, line["seg_dir"])
    t = np.clip(t_raw, 0.0, line["seg_len"])
    diff = xy - (line["seg_start"] + t[:, None] * line["seg_dir"])
    dist = np.hypot(diff[:, 0], diff[:, 1])
    k = int(np.argmin(dist))
    cross = diff[k, 0] * line["seg_dir"][k, 1] - diff[k, 1] * line["seg_dir"][k, 0]
    interior = -0.5 <= line["cum_len"][k] + t_raw[k] <= line["length"] + 0.5
    return float(line["cum_len"][k] + t[k]), float(cross), float(dist[k]), interior


def _in_reach_box(lines, xy):
    # the bounding box of a lanelet's three polylines, grown by 0.5 m margin + 0.5 m end tolerance
    vertices = np.concatenate([line["points"][:, :2] for line in lines])
    return bool(np.all(vertices.min(axis=0) - 1.0 <= xy) and np.all(xy <= vertices.max(axis=0) + 1.0))


def _reference_foot(line, p, k):
    # the foot on segment k's interpolated normals, computed on one polyline's own arrays
    ex, ey = line["seg_dir"][k].tolist()
    nx, ny = line["normals"][k].tolist()
    mx, my = ((line["normals"][k + 1] - line["normals"][k]) / line["seg_len"][k]).tolist()
    rx, ry = (p - line["seg_start"][k]).tolist()
    qa = mx * ey - my * ex
    qb = (rx * my - ry * mx) - (ex * ny - ey * nx)
    qc = rx * ny - ry * nx
    den = -qb - math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0)), qb)
    if den == 0.0:
        return float(rx * ex + ry * ey)
    return float(2.0 * qc / den)


def _reference_frenet(line, xy, s_chord):
    # the foot search of `world_model._frenet`, one scalar step at a time on one polyline's own arrays
    p = np.asarray(xy, dtype=float)[:2]
    last = len(line["seg_len"]) - 1
    k = min(int(np.searchsorted(line["cum_len"], s_chord, side="right")) - 1, last)
    u = _reference_foot(line, p, k)
    step = 1 if u > line["seg_len"][k] else -1
    while (u > line["seg_len"][k] if step > 0 else u < 0.0) and 0 <= k + step <= last:
        k += step
        u = _reference_foot(line, p, k)
    if (u < 0.0 and k > 0) or (u > line["seg_len"][k] and k < last):
        u = min(max(u, 0.0), float(line["seg_len"][k]))
    n0, n1 = line["normals"][k], line["normals"][k + 1]
    normal = n0 + (u / line["seg_len"][k]) * (n1 - n0)
    off = p - line["seg_start"][k] - u * line["seg_dir"][k]
    cross = (off[0] * normal[0] + off[1] * normal[1]) / math.hypot(normal[0], normal[1])
    return float(line["cum_len"][k] + u), float(cross)


def chord_loop_frenet(ref, point, margin=0.5, reach=True):
    """Reference: project onto each lanelet's polylines one lanelet at a time.

    ref is `reference_geometry` of the map's dict, so nothing is read from a
    loaded map. reach=False drops the reach-box condition and leaves the bare
    chord tests.
    """
    xy = np.asarray(point, dtype=float)[:2]
    best = None
    for lid, (center, left, right) in sorted(ref["lines"].items()):
        if reach and not _in_reach_box((center, left, right), xy):
            continue
        s, cross, dist, interior = _chord_project(center, xy)
        if not interior:
            continue
        if _chord_project(left, xy)[1] < -margin or _chord_project(right, xy)[1] > margin:
            continue
        key = (round(dist, 9), abs(cross), lid)
        if best is None or key < best[0]:
            best = (key, lid, s)
    if best is None:
        return None
    _, lid, s_chord = best
    s, cross = _reference_frenet(ref["lines"][lid][0], xy, s_chord)
    return FrenetCoord(ref["offsets"][lid] + s, cross, lid, ref["lanes"][lid])


def _on_polyline(line, s):
    # point at arc length s (extrapolated past the ends) and the unit right normal there
    k = min(max(int(np.searchsorted(line["cum_len"], s, side="right")) - 1, 0), len(line["seg_len"]) - 1)
    e = line["seg_dir"][k]
    return line["seg_start"][k] + (s - line["cum_len"][k]) * e, np.array([e[1], -e[0]])


def _probe_points(lines, rng, n):
    """Vertices, plus seeded points on the road, at the margin, past the ends and off the map.

    lines is `_reference_lines` of the map's dict.
    """
    lines = [(three, line) for three in lines.values() for line in three]
    points = [p for _, line in lines for p in line["points"][:, :2]]
    lo = np.min(points, axis=0) - 100.0
    hi = np.max(points, axis=0) + 100.0
    points += [np.array([math.nan, 0.0]), np.array([math.inf, 1.0]), np.array([-math.inf, math.nan])]
    for _ in range(n):
        (center, left, right), line = lines[rng.integers(len(lines))]
        length = center["length"]
        kind = rng.integers(6)
        if kind == 0:  # on the road and a little beyond it
            p, normal = _on_polyline(center, rng.uniform(0.0, length))
            points.append(p + rng.uniform(-3.0, 3.0) * normal)
        elif kind == 1:  # just inside or just past boundary + margin
            to_right = rng.uniform() < 0.5
            p, normal = _on_polyline(right if to_right else left, rng.uniform(0.0, length))
            points.append(p + (0.5 + rng.uniform(-0.02, 0.02)) * (normal if to_right else -normal))
        elif kind == 2:  # around the 0.5 m end tolerance of a centerline
            s = -rng.uniform(0.0, 1.0) if rng.uniform() < 0.5 else length + rng.uniform(0.0, 1.0)
            p, normal = _on_polyline(center, s)
            points.append(p + rng.uniform(-2.0, 2.0) * normal)
        elif kind == 3:  # near a vertex, where neighbouring chords tie
            angle = rng.uniform(-math.pi, math.pi)
            points.append(line["points"][rng.integers(len(line["points"])), :2]
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
        data = _right_angle_bend(10.0, 1.85)
    else:
        data = json.loads((MAPS / name).read_text())
    vmap, ref = vector_map_from_dict(data), reference_geometry(data)
    rng = np.random.default_rng(17)
    points = _probe_points(ref["lines"], rng, 400)
    results = []
    for p in points:
        got, want = vmap.project([p])[0], chord_loop_frenet(ref, p)
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
    data = _right_angle_bend(10.0, 1.85)
    vmap = vector_map_from_dict(data)
    assert vmap.project([(12.0, -3.0)])[0] is None
    assert chord_loop_frenet(reference_geometry(data), (12.0, -3.0)) is None
    assert vmap.project([(12.0, -2.2)])[0] is not None


def _notched_lanelet():
    # a 1 m notch in the right boundary: its chord (5, -1.75) -> (5, -3) points straight at (5, -1000)
    return {"lanelets": [{
        "lanelet_id": 1, "lane_id": 1,
        "centerline": [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
        "left_boundary": [[0.0, 1.75, 0.0], [10.0, 1.75, 0.0]],
        "right_boundary": [[0.0, -1.75, 0.0], [5.0, -1.75, 0.0], [5.0, -3.0, 0.0], [4.0, -3.0, 0.0],
                           [4.0, -2.0, 0.0], [10.0, -2.0, 0.0]],
    }]}


@pytest.mark.parametrize("data, point, crosstrack", [
    (_notched_lanelet(), (5.0, -1000.0), 1000.0),
    (_right_angle_bend(10.0, 1.85), (14.0, -2.0), 5.19),
], ids=["notched_boundary", "right_angle_bend"])
def test_reach_box_rejects_what_the_bare_chord_tests_admit(data, point, crosstrack):
    # the nearest boundary chord's foot is clipped to its end, and the offset from
    # its extension line is small however far the point is
    vmap, ref = vector_map_from_dict(data), reference_geometry(data)
    bare = chord_loop_frenet(ref, point, reach=False)
    assert bare is not None and bare.crosstrack == pytest.approx(crosstrack, abs=0.005)
    assert chord_loop_frenet(ref, point) is None
    assert vmap.project([point]) == [None]


WORKLOAD_ROADS = {
    "freeway_baseline": RoadSpec(kind="straight", length=400.0, n_lanes=3),
    "arc_fleet": RoadSpec(kind="arc", radius=400.0, arc_angle_deg=100.0, n_lanes=4, sample_step=0.5),
    "disk_replay": RoadSpec(kind="straight", length=300.0, n_lanes=2),
}


@pytest.mark.parametrize("road", WORKLOAD_ROADS.values(), ids=WORKLOAD_ROADS.keys())
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference on non-finite probes
def test_reach_box_changes_nothing_on_the_workload_roads(road):
    data = build_vector_map_dict(road)
    ref = reference_geometry(data)
    points = _probe_points(ref["lines"], np.random.default_rng(23), 2000)[-2003:]  # the seeded probes, not the vertices
    with_reach = [chord_loop_frenet(ref, p) for p in points]
    assert with_reach == [chord_loop_frenet(ref, p, reach=False) for p in points]
    assert any(r is None for r in with_reach) and any(r is not None for r in with_reach)


def _arc_fleet_map():
    # 58 lanelets, 5 621 centerline segments
    return vector_map_from_dict(build_vector_map_dict(WORKLOAD_ROADS["arc_fleet"]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference on non-finite probes
def test_project_batch_across_pair_splits_matches_single_points():
    data = build_vector_map_dict(WORKLOAD_ROADS["arc_fleet"])
    vmap, ref = vector_map_from_dict(data), reference_geometry(data)
    lines = ref["lines"]
    rng = np.random.default_rng(19)
    probes = _probe_points(lines, rng, 300)
    points = [probes[i] for i in sorted(rng.choice(len(probes) - 303, 60, replace=False))] + probes[-303:]
    # (point, centerline segment) pairs in the reach boxes: the batch is split at least once
    pairs = sum(len(three[0]["seg_len"]) for p in points for three in lines.values()
                if np.isfinite(p).all() and _in_reach_box(three, p))
    assert pairs > 2 * _PAIRS
    got = vmap.project(points)
    assert got == [vmap.project([p])[0] for p in points]
    assert got == [chord_loop_frenet(ref, p) for p in points]
    assert any(r is None for r in got) and any(r is not None for r in got)


def _long_lanelet():
    """One 3.5 m wide lanelet whose centerline has _PAIRS / 16 segments of 1 m: 16 points fill one split."""
    n = _PAIRS // 16
    return {"lanelets": [_lanelet(1, [[float(k), 0.0, 0.0] for k in range(n + 1)], [[0.0, 1.75, 0.0], [n, 1.75, 0.0]],
                                  [[0.0, -1.75, 0.0], [n, -1.75, 0.0]])]}


@pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 32, 33])
def test_project_splits_at_each_multiple_of_the_pair_bound(monkeypatch, n):
    # every point lies on the road, in the one reach box: point k's pairs start at k * _PAIRS / 16,
    # so a split starts at every 16th point, and 16 or 32 points fill their splits exactly
    vmap = vector_map_from_dict(_long_lanelet())
    rng = np.random.default_rng(n)
    points = [(x, y, 0.0) for x, y in zip(rng.uniform(0.0, _PAIRS // 16, n).tolist(), rng.uniform(-1.5, 1.5, n).tolist())]
    want = [vmap.project([p])[0] for p in points]
    parts = []
    for name in ("_centerline", "_inside"):
        def recording(self, xy, row, lane, stage=getattr(world_model.VectorMap, name), name=name):
            parts.append((name, row.size))
            return stage(self, xy, row, lane)

        monkeypatch.setattr(world_model.VectorMap, name, recording)
    got = vmap.project(points)
    assert got == want and None not in got
    sizes = [16] * (n // 16) + [n % 16] * (n % 16 > 0) or [0]
    assert parts == [("_centerline", k) for k in sizes] + [("_inside", k) for k in sizes if n]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_project_does_not_depend_on_the_lanelet_order(order):
    data = build_vector_map_dict(WORKLOAD_ROADS["arc_fleet"])
    by_id = vector_map_from_dict(data)
    assert list(by_id.lanelets) == sorted(by_id.lanelets)
    entries = data["lanelets"]
    if order == "reversed":
        entries = entries[::-1]
    else:
        entries = [entries[k] for k in np.random.default_rng(31).permutation(len(entries))]
    vmap = vector_map_from_dict({"lanelets": entries})
    assert list(vmap.lanelets) != list(by_id.lanelets)
    points = _probe_points(_reference_lines(data), np.random.default_rng(37), 1000)
    got = vmap.project(points)
    assert got == by_id.project(points)
    assert any(r is None for r in got) and any(r is not None for r in got)


def _uneven_lanes(kind):
    """Two lanes side by side, 6 m and 2 m wide, each in two 40 m lanelets, on a straight road or a 60 m left arc.

    A point 2 to 2.5 m left of the wide lane's centerline lies nearer the
    narrow lane's centerline, but more than the margin outside its right
    boundary: its least-keyed pair fails stage 2, and the wide lane's passes.
    """
    def line(offset, s0, s1):
        return [[*_road_point(kind, s, offset), 0.0] for s in np.linspace(s0, s1, 21).tolist()]

    lanelets = []
    for lane_id, (center, half) in enumerate([(0.0, 3.0), (4.0, 1.0)], start=1):
        for k, (s0, s1) in enumerate([(0.0, 40.0), (40.0, 80.0)]):
            lid = 10 * lane_id + k
            lanelets.append(_lanelet(lid, line(center, s0, s1), line(center + half, s0, s1),
                                     line(center - half, s0, s1), lane_id=lane_id,
                                     predecessors=[lid - 1] if k else [], successors=[] if k else [lid + 1]))
    return {"lanelets": lanelets}


def _road_point(kind, s, offset):
    # the point at arc length s along the road's reference line, offset to the left
    if kind == "straight":
        return [s, offset]
    return [(60.0 - offset) * math.sin(s / 60.0), 60.0 - (60.0 - offset) * math.cos(s / 60.0)]


def stage_2_on_every_interior_pair(vmap, points):
    """Reference: the projection with stage 2 on every interior pair, then the least key among those that pass.

    Stage 2 ran so before it ran in key order. Also returns how many points
    have a candidate while their least-keyed interior pair fails stage 2.
    """
    stack = vmap._stack
    xy = np.array([np.asarray(p, dtype=float)[:2] for p in points])
    (lo_x, lo_y), (hi_x, hi_y) = vmap._reach_lo, vmap._reach_hi
    x, y = xy[:, :1], xy[:, 1:]
    row, lane = np.nonzero((lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y))
    seg, t_raw, t, diff_x, diff_y = world_model._nearest(stack, xy[row], 3 * lane)
    length = stack.cum_len[stack.first[3 * lane + 1] - 1]
    along = stack.cum_len[seg] + t_raw
    interior = (-0.5 <= along) & (along <= length + 0.5)
    row, lane, seg, t, diff_x, diff_y = (a[interior] for a in (row, lane, seg, t, diff_x, diff_y))
    bseg, _, _, bdiff_x, bdiff_y = world_model._nearest(stack, np.repeat(xy[row], 2, axis=0),
                                                        (3 * lane[:, None] + [1, 2]).ravel())
    cross = bdiff_x * stack.seg_dir[bseg, 1] - bdiff_y * stack.seg_dir[bseg, 0]
    inside = (cross[0::2] >= -0.5) & (cross[1::2] <= 0.5)
    offset = diff_x * stack.seg_dir[seg, 1] - diff_y * stack.seg_dir[seg, 0]
    best, least = {}, {}
    for r, j, dist, off, s, ok in zip(row.tolist(), lane.tolist(), np.hypot(diff_x, diff_y).tolist(),
                                      offset.tolist(), (stack.cum_len[seg] + t).tolist(), inside.tolist()):
        key = (round(dist, 9), abs(off), vmap._lanelets[j].lanelet_id)
        least[r] = min(least.get(r, (key, ok)), (key, ok))
        if ok and (r not in best or key < best[r][0]):
            best[r] = (key, j, s)
    result = [None] * len(points)
    for r, (_, j, s) in best.items():
        ll = vmap._lanelets[j]
        downtrack, crosstrack = world_model._frenet(stack, 3 * j, *xy[r].tolist(), s)
        result[r] = FrenetCoord(ll.chain_offset + downtrack, crosstrack, ll.lanelet_id, ll.lane_id)
    return result, sum(not least[r][1] for r in best)


@pytest.mark.parametrize("kind", ["straight", "arc"])
def test_project_runs_stage_2_in_key_order(kind):
    data = _uneven_lanes(kind)
    vmap = vector_map_from_dict(data)
    rng = np.random.default_rng(53)
    # over the road, past its edges and ends, and densely where the narrow lane's pair fails
    s = rng.uniform(-2.0, 82.0, 4000)
    offset = np.r_[rng.uniform(-5.0, 7.0, 3000), rng.uniform(1.9, 2.6, 1000)]
    points = [_road_point(kind, a, b) for a, b in zip(s.tolist(), offset.tolist())]
    want, best_failed = stage_2_on_every_interior_pair(vmap, points)
    assert best_failed > 500
    assert vmap.project(points) == want
    assert sum(r is None for r in want) > 500
    # the per-lanelet chord loop agrees
    ref = reference_geometry(data)
    assert want[::10] == [chord_loop_frenet(ref, p) for p in points[::10]]


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


# --- stacked map load against the per-polyline arithmetic --------------------

def reference_geometry(data):
    """Per-polyline geometry with joint normals, lanes, chain offsets and reach boxes, in input order.

    Each polyline and joint is computed on its own.
    """
    lines = _reference_lines(data)
    lane = {e["lanelet_id"]: e["lane_id"] for e in data["lanelets"]}
    same_lane_pred = {}
    for e in data["lanelets"]:
        lid = e["lanelet_id"]
        for sid in e.get("successors", []):
            if lane[sid] == lane[lid]:
                same_lane_pred[sid] = lid
                a, b = lines[lid][0], lines[sid][0]
                n0 = np.array([a["seg_dir"][-1, 1], -a["seg_dir"][-1, 0]])
                n1 = np.array([b["seg_dir"][0, 1], -b["seg_dir"][0, 0]])
                mid = n0 + n1
                a["normals"][-1] = b["normals"][0] = mid / np.hypot(mid[0], mid[1])
    offsets = {}
    for lid in lines:
        offset, cur = 0.0, lid
        while cur in same_lane_pred:
            cur = same_lane_pred[cur]
            offset += lines[cur][0]["length"]
        offsets[lid] = offset
    boxes = [np.concatenate([line["points"][:, :2] for line in three]) for three in lines.values()]
    return {
        "lines": lines, "lanes": lane, "offsets": offsets,
        "reach_lo": np.array([box.min(axis=0) - 1.0 for box in boxes]).T,
        "reach_hi": np.array([box.max(axis=0) + 1.0 for box in boxes]).T,
    }


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_geometry_matches_reference(data):
    # the stack rows of every polyline, and each lanelet's chain offset and length, against the reference
    vmap = vector_map_from_dict(data)
    want = reference_geometry(data)
    assert list(vmap.lanelets) == list(want["lines"])
    stack = vmap._stack
    assert len(stack.first) == 3 * len(vmap.lanelets) + 1
    for k, (lid, ll) in enumerate(vmap.lanelets.items()):
        assert ll.chain_offset == want["offsets"][lid], lid
        for j, ref in enumerate(want["lines"][lid]):
            start, end = stack.first[3 * k + j:3 * k + j + 2].tolist()
            rows = {"points": stack.points[start:end], "seg_dir": stack.seg_dir[start:end - 1],
                    "seg_len": stack.seg_len[start:end - 1], "cum_len": stack.cum_len[start:end],
                    "normals": stack.normals[start:end]}
            for field, got in rows.items():
                assert _same_bits(got, ref[field]), (lid, SIDES[j], field)
        assert ll.length == want["lines"][lid][0]["length"], lid
    assert _same_bits(vmap._reach_lo, want["reach_lo"]) and _same_bits(vmap._reach_hi, want["reach_hi"])


@pytest.mark.parametrize("name", ["straight.json", "arc.json", "freeway3.json", *WORKLOAD_ROADS])
def test_stacked_load_matches_per_polyline_arithmetic(name):
    if name in WORKLOAD_ROADS:
        data = build_vector_map_dict(WORKLOAD_ROADS[name])
    else:
        data = json.loads((MAPS / name).read_text())
    assert_geometry_matches_reference(data)


def _lanelet(lanelet_id, centerline, left, right, lane_id=1, **links):
    return {"lanelet_id": lanelet_id, "lane_id": lane_id, "centerline": centerline,
            "left_boundary": left, "right_boundary": right, **links}


# polylines in input order whose end meets the next one's start, or that turn back across that boundary
SEAMS = {
    "end_meets_next_start": [_lanelet(1, [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                                      [[10.0, 0.0, 0.0], [10.0, 1.75, 0.0], [0.0, 1.75, 0.0]],
                                      [[0.0, 1.75, 0.0], [0.0, -1.75, 0.0], [10.0, -1.75, 0.0]])],
    "turns_back_to_next_start": [_lanelet(1, [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                                          [[5.0, 0.0, 0.0], [8.0, 0.0, 0.0], [8.0, 1.75, 0.0]],
                                          [[0.0, -1.75, 0.0], [10.0, -1.75, 0.0]])],
    "turns_back_into_next": [_lanelet(1, [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                                      [[12.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.75, 0.0]],
                                      [[0.0, -1.75, 0.0], [10.0, -1.75, 0.0]])],
    "across_lanelets": [
        _lanelet(1, [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]], [[0.0, 1.75, 0.0], [10.0, 1.75, 0.0]],
                 [[0.0, -1.75, 0.0], [10.0, -1.75, 0.0]], successors=[2]),
        _lanelet(2, [[10.0, 0.0, 0.0], [20.0, 0.0, 0.0]], [[10.0, 1.75, 0.0], [20.0, 1.75, 0.0]],
                 [[20.0, -1.75, 0.0], [10.0, -1.75, 0.0]], predecessors=[1]),
        _lanelet(3, [[10.0, -1.75, 0.0], [20.0, -1.75, 0.0]], [[10.0, 0.0, 0.0], [20.0, 0.0, 0.0]],
                 [[0.0, -3.5, 0.0], [20.0, -3.5, 0.0]], lane_id=2),
    ],
    # the step from lanelet 1's last polyline to lanelet 2's first overflows
    "far_apart": [_lanelet(k, *([[x, y, 0.0], [x + 1e300, y, 0.0]] for y in (0.0, 1.75, -1.75)), lane_id=k)
                  for k, x in ((1, 1e308 - 1e300), (2, -1e308))],
    # segment counts 1, 2, 3, 299: four blocks of the padded cumsum
    "mixed_lengths": [_lanelet(1, [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]],
                               [[0.0, 1.75, 0.0], [4.0, 1.75, 0.0], [6.0, 1.75, 0.0], [10.0, 1.75, 0.0]],
                               [[x / 29.9, -1.75 - 0.01 * math.sin(x), 0.0] for x in range(300)], successors=[2]),
                      _lanelet(2, [[10.0, 0.0, 0.0], [15.0, 0.1, 0.0], [20.0, 0.0, 0.0]],
                               [[10.0, 1.75, 0.0], [20.0, 1.75, 0.0]], [[10.0, -1.75, 0.0], [20.0, -1.75, 0.0]])],
}


@pytest.mark.parametrize("lanelets", SEAMS.values(), ids=SEAMS.keys())
def test_polyline_seams_load(lanelets):
    assert_geometry_matches_reference({"lanelets": lanelets})


@pytest.mark.parametrize("lanelet, side, k, point, message", [
    (0, "centerline", 1, [0.0, 0.0, 0.0], "lanelet 100: polyline has zero-length segment"),
    (2, "right_boundary", -1, [118.0, -1.85, 0.0], "lanelet 102: polyline has zero-length segment"),
    (1, "left_boundary", 2, [41.0, 1.85, 0.0], "lanelet 101: polyline turns back on itself"),
    (0, "centerline", -1, [37.0, 0.0, 0.0], "lanelet 100: polyline turns back on itself"),
], ids=["zero-first-segment", "zero-last-segment", "half-turn-second-vertex", "half-turn-last-vertex"])
def test_fault_inside_a_polyline_rejected(lanelet, side, k, point, message):
    data = json.loads((MAPS / "straight.json").read_text())
    data["lanelets"][lanelet][side][k] = point
    with pytest.raises(ValidationError, match=f"^{message}$"):
        vector_map_from_dict(data)


# one fault of each kind in a polyline, in the order the checks run
POLYLINE_FAULTS = {
    "type": ("string", "{side}: points must be"),
    "overflow": (10**400, "{side}: coordinate out of float range"),
    "non_finite": (math.nan, "{side}: non-finite coordinate"),
    "zero_length": ("repeat", "polyline has zero-length segment"),
    "half_turn": ("reverse", "polyline turns back on itself"),
}


def _put_fault(line, fault):
    if fault == "repeat":
        line[1] = list(line[0])
    elif fault == "reverse":
        line[2] = list(line[0])
    else:
        line[1][1] = fault


@pytest.mark.parametrize("later", POLYLINE_FAULTS)
@pytest.mark.parametrize("earlier", POLYLINE_FAULTS)
def test_first_faulty_polyline_is_named(earlier, later):
    # the later polyline's fault may belong to a check that runs first: the earlier polyline is still named
    data = json.loads((MAPS / "straight.json").read_text())
    _put_fault(data["lanelets"][0]["right_boundary"], POLYLINE_FAULTS[earlier][0])
    _put_fault(data["lanelets"][1]["left_boundary"], POLYLINE_FAULTS[later][0])
    message = POLYLINE_FAULTS[earlier][1].format(side="right_boundary")
    with pytest.raises(ValidationError, match=f"^lanelet 100: {re.escape(message)}"):
        vector_map_from_dict(data)


def test_structural_rules_checked_before_geometry():
    # lanelet 100's centerline turns back, lanelet 101 misses a key: the structural breach is reported
    data = json.loads((MAPS / "straight.json").read_text())
    data["lanelets"][0]["centerline"][-1] = [36.0, 0.0, 0.0]
    del data["lanelets"][1]["lane_id"]
    with pytest.raises(ValidationError, match=re.escape("vector map schema violation at ['lanelets', 1]: ")):
        vector_map_from_dict(data)


def test_loaded_map_is_read_only(straight):
    stack = straight._stack
    for array in (stack.first, stack.points, stack.seg_dir, stack.seg_len, stack.cum_len, stack.normals,
                  straight._reach_lo, straight._reach_hi):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # neither a lanelet record nor the id mapping can change what `project` reports
    with pytest.raises(dataclasses.FrozenInstanceError):
        straight.lanelets[101].chain_offset = 1000.0
    with pytest.raises(TypeError):
        del straight.lanelets[100]
    assert straight.project([(60.0, 0.0)]) == [FrenetCoord(60.0, 0.0, 101, 1)]


def test_load_memory_stays_linear_in_the_points():
    # one 20 000-point centerline among 300 two-point lanelets: a cumsum over
    # one (polylines x longest) zero-padded array would need 145 MB
    short = [_lanelet(k, [[0.0, 10.0 * k, 0.0], [5.0, 10.0 * k, 0.0]], [[0.0, 10.0 * k + 1, 0.0], [5.0, 10.0 * k + 1, 0.0]],
                      [[0.0, 10.0 * k - 1, 0.0], [5.0, 10.0 * k - 1, 0.0]]) for k in range(1, 301)]
    long = [[0.5 * k, -10.0, 0.0] for k in range(20_000)]
    data = {"lanelets": [_lanelet(0, long, [[x, y + 1.0, z] for x, y, z in long], [[x, y - 1.0, z] for x, y, z in long]),
                         *short]}
    tracemalloc.start()
    try:
        vmap = vector_map_from_dict(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vmap.lanelets[0].length == pytest.approx(0.5 * 19_999)
    assert peak < 16 * 2**20
