import itertools
import math

import numpy as np
import pytest

from cavtraj.detection import OrientedBox
from cavtraj.errors import InvalidArgument
from cavtraj.fusion import FusedFrame
from cavtraj import tracking
from cavtraj.geometry import wrap_angle
from cavtraj.tracking import (
    MultiObjectTracker,
    Track,
    TrackingConfig,
    associate,
    kf_predict,
    kf_update,
)

CFG = TrackingConfig()


def make_track(pos=(0, 0, 0), vel=(0, 0, 0), acc=(0, 0, 0), track_id=1):
    return Track(
        track_id=track_id,
        state=np.array([pos, vel, acc], dtype=float).T,
        covariance=np.eye(3) * 0.1,
        length=4.0,
        width=2.0,
        height=1.5,
    )


def det(x, y, z=0.75, heading=0.0, conf=0.9):
    return OrientedBox(x, y, z, 4.0, 2.0, 1.5, heading, conf)


def frame(t, boxes):
    return FusedFrame(timestamp=t, boxes=boxes, provenance=[(0,)] * len(boxes))


# --- prediction -----------------------------------------------------------------


def test_predict_constant_velocity():
    t = make_track(vel=(10, 0, 0))
    kf_predict([t], 0.1)
    assert t.position[0] == pytest.approx(1.0)
    assert t.velocity[0] == pytest.approx(10.0)


def test_predict_stationary_grows_covariance():
    t = make_track()
    trace_before = np.trace(t.covariance)
    kf_predict([t], 0.1)
    np.testing.assert_allclose(t.position, [0, 0, 0])
    assert np.trace(t.covariance) > trace_before


def test_predict_constant_acceleration():
    t = make_track(acc=(1, 0, 0))
    kf_predict([t], 1.0)
    assert t.position[0] == pytest.approx(0.5)
    assert t.velocity[0] == pytest.approx(1.0)


def test_predict_rejects_bad_dt():
    t = make_track()
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidArgument):
            kf_predict([t], dt)


def test_update_rejects_unpaired_lists():
    with pytest.raises(InvalidArgument):
        kf_update([make_track()], [])


# --- association ------------------------------------------------------------------


def test_associate_simple_match():
    assert associate([make_track()], [det(0.5, 0.0, z=0.0)], gate=2.0) == [(0, 0)]


def test_associate_gated_out():
    assert associate([make_track()], [det(5.0, 0.0, z=0.0)], gate=2.0) == []


@pytest.mark.parametrize("gate", [0.0, -1.0, math.nan, -math.inf])
def test_associate_rejects_non_positive_or_nan_gate(gate):
    with pytest.raises(InvalidArgument, match="gate"):
        associate([make_track()], [det(0.5, 0.0, z=0.0)], gate=gate)


def test_associate_accepts_infinite_gate():
    assert associate([make_track()], [det(500.0, 0.0, z=0.0)], gate=math.inf) == [(0, 0)]


def brute_force_min_cost(cost):
    n_rows, n_cols = cost.shape
    best = math.inf
    if n_rows <= n_cols:
        for perm in itertools.permutations(range(n_cols), n_rows):
            best = min(best, sum(cost[i, j] for i, j in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(n_rows), n_cols):
            best = min(best, sum(cost[i, j] for j, i in enumerate(perm)))
    return best


def test_associate_matches_permutation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n_t = int(rng.integers(1, 8))
        n_d = int(rng.integers(1, 8))
        tracks = [make_track(pos=rng.uniform(-20, 20, 3), track_id=i) for i in range(n_t)]
        dets = [det(*rng.uniform(-20, 20, 2), z=float(rng.uniform(-2, 2))) for _ in range(n_d)]
        pairs = associate(tracks, dets, gate=1e9)
        cost = np.array(
            [[np.linalg.norm(t.position - np.array([d.x, d.y, d.z])) for d in dets] for t in tracks]
        )
        total = sum(cost[i, j] for i, j in pairs)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)
        assert len(pairs) == min(n_t, n_d)


def test_associate_invariant_under_detection_permutation():
    rng = np.random.default_rng(9)
    tracks = [make_track(pos=rng.uniform(-20, 20, 3), track_id=i) for i in range(5)]
    dets = [det(*rng.uniform(-20, 20, 2), z=float(rng.uniform(-2, 2))) for _ in range(5)]
    base = associate(tracks, dets, gate=1e9)
    base_set = {(ti, (dets[di].x, dets[di].y)) for ti, di in base}
    for _ in range(10):
        perm = rng.permutation(5)
        shuffled = [dets[k] for k in perm]
        got = {(ti, (shuffled[di].x, shuffled[di].y)) for ti, di in associate(tracks, shuffled, gate=1e9)}
        assert got == base_set


# --- tracker lifecycle ---------------------------------------------------------------


def test_tracker_empty_stream_never_confirms():
    tracker = MultiObjectTracker()
    for k in range(20):
        assert tracker.step(frame(0.1 * k + 0.1, [])) == []
    assert tracker.tracks == []


def test_tracker_single_object_single_id():
    tracker = MultiObjectTracker()
    confirmed_ids = set()
    for k in range(20):
        t = 0.1 * (k + 1)
        out = tracker.step(frame(t, [det(10.0 + 15.0 * t, 0.0)]))
        confirmed_ids.update(tr.track_id for tr in out)
        if k >= CFG.confirm_hits:
            assert len(out) == 1
            assert abs(out[0].position[0] - (10.0 + 15.0 * t)) < 0.5
    assert len(confirmed_ids) == 1
    assert len(tracker.tracks) == 1


def test_tracker_speed_converges_to_truth():
    tracker = MultiObjectTracker()
    speed = 12.0
    out = []
    for k in range(25):
        t = 0.1 * (k + 1)
        out = tracker.step(frame(t, [det(speed * t, 0.0)]))
    assert out and np.hypot(*out[0].velocity[:2]) == pytest.approx(speed, rel=0.02)


def test_tracker_id_switch_after_long_dropout():
    tracker = MultiObjectTracker()
    ids_before, ids_after = set(), set()
    k = 0
    for _ in range(10):
        k += 1
        out = tracker.step(frame(0.1 * k, [det(12.0 * 0.1 * k, 0.0)]))
        ids_before.update(t.track_id for t in out)
    for _ in range(CFG.max_age + 2):  # dropout long enough to kill the track
        k += 1
        tracker.step(frame(0.1 * k, []))
    for _ in range(10):
        k += 1
        out = tracker.step(frame(0.1 * k, [det(12.0 * 0.1 * k, 0.0)]))
        ids_after.update(t.track_id for t in out)
    assert ids_before and ids_after
    assert ids_before.isdisjoint(ids_after)


def test_tracker_ids_strictly_increase():
    tracker = MultiObjectTracker()
    seen = []
    for k in range(30):
        boxes = [det(5.0 * i + 0.01 * k, 8.0 * i) for i in range((k % 3) + 1)]
        tracker.step(frame(0.1 * (k + 1), boxes))
        seen.extend(t.track_id for t in tracker.tracks)
    assert all(t.track_id >= 1 for t in tracker.tracks)
    ids = [t.track_id for t in tracker.tracks]
    assert len(ids) == len(set(ids))


def test_tracker_rejects_time_regression():
    tracker = MultiObjectTracker()
    tracker.step(frame(1.0, []))
    with pytest.raises(InvalidArgument):
        tracker.step(frame(0.9, []))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_tracker_rejects_non_finite_timestamp(t):
    # with no track alive nothing else reads the time, and a NaN would disable the order check
    tracker = MultiObjectTracker()
    tracker.step(frame(5.0, []))
    with pytest.raises(InvalidArgument, match="non-finite frame timestamp"):
        tracker.step(frame(t, []))
    with pytest.raises(InvalidArgument, match="must increase"):
        tracker.step(frame(1.0, []))


def test_tracker_rejects_a_bool_timestamp():
    # True is no time: read as 1.0 it would pass the order check unseen
    with pytest.raises(InvalidArgument, match="frame timestamp must be a real number"):
        MultiObjectTracker().step(frame(True, []))


def test_tracker_rejects_a_timestamp_that_is_not_a_number():
    # a string is no time, and math.isfinite would raise TypeError on it
    with pytest.raises(InvalidArgument, match="frame timestamp must be a real number"):
        MultiObjectTracker().step(frame("1", []))


def test_predict_rejects_a_bool_dt():
    # True is no duration: read as 1 it would run a 1 s step
    t = make_track(vel=(1, 0, 0))
    with pytest.raises(InvalidArgument, match="dt must be a real number"):
        kf_predict([t], True)
    assert t.position[0] == 0.0


BAD_TRACKING_CONFIGS = {
    "confirm_hits_zero": ("confirm_hits", 0),
    "confirm_hits_fraction": ("confirm_hits", 2.5),
    "confirm_hits_bool": ("confirm_hits", True),
    "max_age_negative": ("max_age", -1),  # drops every track every step
    "max_age_nan": ("max_age", math.nan),
    "max_age_text": ("max_age", "5"),
    "confirm_hits_too_large": ("confirm_hits", 10**400),  # no float holds it
}


@pytest.mark.parametrize("field, value", BAD_TRACKING_CONFIGS.values(), ids=BAD_TRACKING_CONFIGS.keys())
def test_tracking_config_rejects_bad_value(field, value):
    with pytest.raises(InvalidArgument, match=field):
        TrackingConfig(**{field: value})


def test_tracking_config_accepts_the_range_ends():
    config = TrackingConfig(confirm_hits=1, max_age=0)
    assert (config.confirm_hits, config.max_age) == (1, 0)


def test_covariance_stays_spd_over_many_cycles():
    track = make_track(vel=(5, 0, 0))
    rng = np.random.default_rng(17)
    for k in range(10_000):
        kf_predict([track], 0.1)
        box = det(track.position[0] + rng.normal(0, 0.2), rng.normal(0, 0.2))
        kf_update([track], [box])
        if k % 997 == 0:
            cov = track.covariance
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(cov)) > 0


# --- heading ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "vx, vy, expected",
    [(10.0, 0.0, 0.0), (0.0, 5.0, math.pi / 2), (-3.0, 3.0, 3 * math.pi / 4), (1.0, -1.0, -math.pi / 4),
     (-20.0, 0.0, math.pi), (-20.0, -0.0, math.pi)],  # atan2 gives -pi for -0.0; wrapped into (-pi, pi]
    ids=["east", "north", "north_west", "south_east", "west", "west_negative_zero"],
)
def test_heading_is_direction_of_velocity(vx, vy, expected):
    track = make_track(vel=(vx, vy, 0.7))
    assert track.heading == expected
    assert -math.pi < track.heading <= math.pi


def test_heading_follows_velocity_through_predict_and_update():
    track = MultiObjectTracker(CFG)._new_track(det(0.0, 0.0))
    assert track.heading == 0.0  # a new track has no velocity yet
    rng = np.random.default_rng(5)
    for k in range(40):  # a vehicle driving north-west at 14 m/s
        kf_predict([track], 0.1)
        kf_update([track], [det(-10.0 * 0.1 * (k + 1), 10.0 * 0.1 * (k + 1), heading=float(rng.uniform(-4, 4)))])
        assert track.heading == wrap_angle(math.atan2(track.velocity[1], track.velocity[0]))
    assert track.heading == pytest.approx(3 * math.pi / 4, abs=0.01)


def test_box_heading_turned_by_pi_changes_nothing():
    """A fitted box's heading has no sign; the tracker does not read it at all."""
    rng = np.random.default_rng(13)
    tracks = {turn: make_track(pos=(1.0, 2.0, 0.7), vel=(8.0, -3.0, 0.0)) for turn in (0.0, math.pi)}
    for k in range(30):
        x, y = 1.0 + 0.8 * (k + 1) + rng.normal(0, 0.2), 2.0 - 0.3 * (k + 1) + rng.normal(0, 0.2)
        heading = float(rng.uniform(-math.pi, math.pi))
        for turn, track in tracks.items():
            kf_predict([track], 0.1)
            kf_update([track], [det(x, y, heading=heading + turn)])
        a, b = tracks.values()
        np.testing.assert_array_equal(a.state, b.state)
        np.testing.assert_array_equal(a.covariance, b.covariance)
        assert a.heading == b.heading
        assert (a.length, a.width, a.height) == (b.length, b.width, b.height)


# --- equivalence with the 9-state filter --------------------------------------------
#
# The reference below is a 9-state filter, state [x, y, z, vx, vy, vz, ax,
# ay, az], in the earlier 10-state filter's code less its heading row:
# full matrices and a matrix inverse, taking and returning (state,
# covariance) arrays instead of a Track. Its noise is the model the tracking
# module states: Q = diag(0.1, 0.5, 0.5)^2 per 0.1 s, R = 0.3^2 and P0 =
# diag(0.3, 10, 3)^2.

_NX = 9
_H = np.zeros((3, _NX))
_H[0, 0] = _H[1, 1] = _H[2, 2] = 1.0


def _ref_transition(dt):
    f = np.eye(_NX)
    for axis in range(3):
        f[axis, 3 + axis] = dt
        f[axis, 6 + axis] = 0.5 * dt * dt
        f[3 + axis, 6 + axis] = dt
    return f


def _ref_process_noise(dt):
    return np.diag(np.repeat([0.1, 0.5, 0.5], 3) ** 2 * (dt / 0.1))


def _ref_new(box):
    state = np.zeros(_NX)
    state[0:3] = [box.x, box.y, box.z]
    return state, np.diag(np.repeat([0.3, 10.0, 3.0], 3) ** 2)


def _ref_predict(state, covariance, dt):
    f = _ref_transition(dt)
    cov = f @ covariance @ f.T + _ref_process_noise(dt)
    return f @ state, 0.5 * (cov + cov.T)


def _ref_update(state, covariance, box):
    r = np.eye(3) * 0.3**2
    innovation = np.array([box.x, box.y, box.z]) - _H @ state
    s = _H @ covariance @ _H.T + r
    gain = covariance @ _H.T @ np.linalg.inv(s)
    state = state + gain @ innovation
    ikh = np.eye(_NX) - gain @ _H
    cov = ikh @ covariance @ ikh.T + gain @ r @ gain.T  # Joseph form
    return state, 0.5 * (cov + cov.T)


def _assert_axes_decoupled(cov):
    """Every cross-axis entry is exactly 0 and the x, y, z blocks are bit-identical."""
    blocks = [[a, 3 + a, 6 + a] for a in range(3)]
    for i, rows in enumerate(blocks):
        for j, cols in enumerate(blocks):
            if i != j:
                assert not cov[np.ix_(rows, cols)].any()
    for rows in blocks[1:]:
        np.testing.assert_array_equal(cov[np.ix_(rows, rows)], cov[np.ix_(blocks[0], blocks[0])])


def _assert_matches_reference(track, state, cov):
    np.testing.assert_allclose(track.state, state.reshape(3, 3).T, rtol=0, atol=1e-9)
    np.testing.assert_allclose(track.covariance, cov[0:9:3, 0:9:3], rtol=0, atol=1e-9)
    assert abs(wrap_angle(track.heading - math.atan2(state[4], state[3]))) <= 1e-9


def test_matches_nine_state_reference():
    """Seeded drive of both filters: mixed dt, updates and misses, a heading across the seam."""
    rng = np.random.default_rng(29)
    pos, vel = np.array([5.0, -3.0, 0.75]), np.array([-20.0, 1.5, 0.0])

    def box_at():
        x, y, z = pos + rng.normal(0, 0.2, 3)
        return det(x, y, z=z, heading=float(rng.uniform(-math.pi, math.pi)))  # read by neither filter

    first = box_at()
    track = MultiObjectTracker()._new_track(first)
    state, cov = _ref_new(first)
    updates, sides = 0, set()
    for k in range(300):
        dt = float(rng.uniform(0.05, 0.3))
        pos = pos + vel * dt
        vel = vel + np.array([math.sin(0.1 * k), -0.5, 0.0]) * dt  # vy turns negative: westward across +-pi
        kf_predict([track], dt)
        state, cov = _ref_predict(state, cov, dt)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(track, state, cov)
        if rng.random() < 0.3:  # missed step: predict only
            continue
        box = box_at()
        kf_update([track], [box])
        state, cov = _ref_update(state, cov, box)
        updates += 1
        if abs(track.heading) > math.pi / 2:
            sides.add(track.heading > 0)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(track, state, cov)
    assert 150 < updates < 270
    assert sides == {True, False}  # the heading crossed the seam


# --- equivalence with the per-track filter -------------------------------------------
#
# The reference below is the filter as it was before kf_predict and kf_update
# took lists: the same algebra on one track's (3, 3) arrays at a time. The
# batched functions run it on stacked (T, 3, 3) arrays, where NumPy's stacked
# matmul runs the same kernel per matrix, so every bit must agree.


def _per_track_predict(track, dt):
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidArgument(f"dt must be positive, got {dt}")
    f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    track.state = track.state @ f.T
    cov = f @ track.covariance @ f.T + tracking._Q * (dt / tracking._NOMINAL_DT)
    track.covariance = 0.5 * (cov + cov.T)


def _per_track_update(track, box):
    p = track.covariance
    gain = p[:, 0] / (p[0, 0] + tracking._R)
    innovation = np.array([box.x, box.y, box.z]) - track.position
    track.state = track.state + np.outer(innovation, gain)
    ikh = np.eye(3)
    ikh[:, 0] -= gain
    cov = ikh @ p @ ikh.T + tracking._R * np.outer(gain, gain)  # Joseph form
    track.covariance = 0.5 * (cov + cov.T)

    beta = tracking._DIM_EMA
    track.length = (1 - beta) * track.length + beta * box.length
    track.width = (1 - beta) * track.width + beta * box.width
    track.height = (1 - beta) * track.height + beta * box.height
    track.hits += 1
    track.misses = 0


def _per_track_tracker_step(monkeypatch, tracker, fr):
    """One step of `tracker` with the per-track reference in place of the batched filter."""
    def predict(tracks, dt):
        for t in tracks:
            _per_track_predict(t, dt)

    def update(tracks, boxes):
        for t, b in zip(tracks, boxes):
            _per_track_update(t, b)

    with monkeypatch.context() as m:
        m.setattr(tracking, "kf_predict", predict)
        m.setattr(tracking, "kf_update", update)
        return tracker.step(fr)


def test_batched_filter_matches_per_track_reference(monkeypatch):
    """Seeded 200-step stream: mixed dt, objects born and lost, missed detections, clutter."""
    rng = np.random.default_rng(37)
    # (position at t = 0, velocity, first step, steps seen)
    objects = [(rng.uniform(-60, 60, 2), rng.uniform(-15, 15, 2), int(rng.integers(0, 170)), int(rng.integers(10, 90)))
               for _ in range(14)]
    batched, reference = MultiObjectTracker(), MultiObjectTracker()
    t, alive = 0.0, set()
    born = dropped = missed = most = reported = 0
    for k in range(200):
        t += float(rng.uniform(0.05, 0.3))
        boxes = []
        for p0, v, first, seen in objects:
            if first <= k < first + seen:
                if rng.random() < 0.2:
                    missed += 1
                    continue
                x, y = p0 + v * t + rng.normal(0, 0.2, 2)
                boxes.append(OrientedBox(x, y, 0.75 + rng.normal(0, 0.05), rng.uniform(4.0, 4.8),
                                         rng.uniform(1.7, 2.0), rng.uniform(1.3, 1.6), 0.0, 0.9))
        boxes += [det(*rng.uniform(-80, 80, 2)) for _ in range(rng.integers(0, 2))]  # clutter
        boxes = [boxes[i] for i in rng.permutation(len(boxes))]

        got = batched.step(frame(t, boxes))
        want = _per_track_tracker_step(monkeypatch, reference, frame(t, boxes))
        assert [a.track_id for a in got] == [b.track_id for b in want]
        reported += len(got)
        assert len(batched.tracks) == len(reference.tracks)
        for a, b in zip(batched.tracks, reference.tracks):
            assert (a.track_id, a.hits, a.misses) == (b.track_id, b.hits, b.misses)
            assert a.state.tobytes() == b.state.tobytes()
            assert a.covariance.tobytes() == b.covariance.tobytes()
            assert (a.length, a.width, a.height) == (b.length, b.width, b.height)

        ids = {a.track_id for a in batched.tracks}
        born += len(ids - alive)
        dropped += len(alive - ids)
        alive = ids
        most = max(most, len(ids))
    # 122 born, 119 dropped, 122 missed detections, 13 tracks at most, 437 confirmed track rows
    assert born > 100 and dropped > 100 and missed > 100 and most >= 10 and reported > 400
