"""The per-step chain on short seeded scenarios: pinned rows, and one track per vehicle.

The pinned rows come from the range-image clustering; a faster
implementation must reproduce them to 1e-9.
"""

import math

import pytest

from cavtraj.detection import DetectionConfig, detect_objects
from cavtraj.fusion import DetectionSet, late_fuse
from cavtraj.pipeline.scenario import RoadSpec, ScenarioSpec, SensorSpec, VehicleSpec, generate_scenario
from cavtraj.tracking import MultiObjectTracker, TrackingConfig
from cavtraj.world_model import filter_on_road, vector_map_from_dict


def sparse_arc(seed, svs):
    """A 1 s, 2-lane arc with two agents and a sparse beam (step 0.03 rad), no ground or poles."""
    return ScenarioSpec(
        duration=1.0,
        seed=seed,
        road=RoadSpec(kind="arc", radius=150.0, arc_angle_deg=60.0, n_lanes=2),
        agents=[VehicleSpec(1, 1, 40.0, 20.0), VehicleSpec(2, 2, 30.0, 20.0)],
        svs=svs,
        sensor=SensorSpec(base_spacing=0.3),
        ground_spacing=0.0,
        poles=False,
    )


def chain_rows(data):
    """Rows of one run: detect_objects -> late_fuse -> MultiObjectTracker.step -> filter_on_road."""
    vmap = vector_map_from_dict(data.vector_map)
    tracker = MultiObjectTracker(TrackingConfig())
    config = DetectionConfig()
    rows = []
    for step in range(len(data.frames[1])):
        sets, transforms = [], {}
        for aid in sorted(data.frames):
            frame = data.frames[aid][step]
            sets.append(DetectionSet(frame.timestamp, aid, detect_objects(frame, config)))
            transforms[aid] = data.poses[aid][step].transform
        for track, fc in filter_on_road(tracker.step(late_fuse(sets, transforms)), vmap):
            rows.append((track.track_id, round(sets[0].timestamp, 9),
                         *(round(float(v), 9) for v in (track.position[0], track.position[1], fc.downtrack, fc.crosstrack)),
                         fc.lanelet_id, fc.lane_id, round(track.heading, 9)))
    return rows


# (track id, time, x, y, downtrack, crosstrack, lanelet, lane, heading)
EXPECTED = [
    (1, 0.2, 48.079783504, 5.954915055, 48.919229079, 0.007541872, 201, 2, 0.307880789),
    (2, 0.2, 33.62443172, 5.709222207, 33.918416307, 0.006917682, 100, 1, 0.21552913),
    (1, 0.3, 50.004134783, 6.600590352, 50.948833569, 0.01792201, 201, 2, 0.31500413),
    (2, 0.3, 35.606168096, 6.182336466, 35.955744164, 0.009955304, 100, 1, 0.224005147),
    (1, 0.4, 51.908229179, 7.272812178, 52.967838202, 0.023546464, 201, 2, 0.324126644),
    (2, 0.4, 37.563429719, 6.672397596, 37.973230909, 0.018384849, 100, 1, 0.232007533),
    (1, 0.5, 53.804222393, 7.954530829, 54.98212597, 0.044260202, 201, 2, 0.331702091),
    (2, 0.5, 39.509188992, 7.174675908, 39.982288691, 0.03943584, 101, 1, 0.239411885),
    (1, 0.6, 55.686276595, 8.675012101, 56.996750982, 0.050512343, 201, 2, 0.343980701),
    (2, 0.6, 41.454823635, 7.717619672, 42.001655647, 0.048649562, 101, 1, 0.251291107),
    (1, 0.7, 57.550056191, 9.418846565, 59.002794885, 0.054962937, 201, 2, 0.357894884),
    (2, 0.7, 43.378467105, 8.287520409, 44.0072664, 0.053171749, 101, 1, 0.265491721),
    (1, 0.8, 59.398123496, 10.190035809, 61.004608105, 0.054600857, 201, 2, 0.3735518),
    (2, 0.8, 45.283199757, 8.882879026, 46.002165276, 0.054830582, 101, 1, 0.281118445),
    (1, 0.9, 61.2359515, 10.990030684, 63.008323662, 0.050143102, 201, 2, 0.390184842),
    (2, 0.9, 47.186839783, 9.505796534, 48.004392112, 0.05688414, 101, 1, 0.297101316),
]


def test_chain_rows_pinned():
    data = generate_scenario(sparse_arc(4, [VehicleSpec(101, 2, 45.0, 20.0), VehicleSpec(102, 1, 30.0, 20.0)]))
    rows = chain_rows(data)
    assert rows == EXPECTED
    # one confirmed track per visible SV
    assert len({r[0] for r in rows}) == len({g.sv_id for g in data.ground_truth}) == 2


# four SVs 5-43 m from the agents in alternating lanes
FOUR_SVS = [VehicleSpec(101, 2, 45.0, 20.0), VehicleSpec(102, 1, 55.0, 20.0),
            VehicleSpec(103, 2, 64.0, 20.0), VehicleSpec(104, 1, 73.0, 20.0)]


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_every_visible_sv_keeps_one_track(seed):
    # far hulls are sampled every 0.5-1.3 m, so a detector that fragments them,
    # or drops the fragments as too small, loses vehicles or multiplies track ids
    data = generate_scenario(sparse_arc(seed, FOUR_SVS))
    rows = chain_rows(data)
    visible = {g.sv_id for g in data.ground_truth}
    assert visible == {101, 102, 103, 104}
    for sv in visible:
        last = max((g for g in data.ground_truth if g.sv_id == sv), key=lambda g: g.time)
        near = [math.hypot(r[2] - last.x, r[3] - last.y) for r in rows if r[1] == round(last.time, 9)]
        assert near and min(near) < 2.0, f"SV {sv} has no confirmed on-road track at t={last.time}"
    assert len({r[0] for r in rows}) <= 1.5 * len(visible)


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_heading_points_along_the_vehicle(seed):
    # a fitted box's long axis has no sign, so a heading taken from it can point backwards
    data = generate_scenario(sparse_arc(seed, FOUR_SVS))
    matched = 0
    for r in chain_rows(data):
        truth = [g for g in data.ground_truth if round(g.time, 9) == r[1]]
        g = min(truth, key=lambda g: math.hypot(r[2] - g.x, r[3] - g.y))
        if math.hypot(r[2] - g.x, r[3] - g.y) < 2.0:
            matched += 1
            assert abs(math.remainder(r[8] - g.heading, 2 * math.pi)) < math.pi / 2, (r, g)
    assert matched >= 20
