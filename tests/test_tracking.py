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


def one_track(pos=(0, 0), vel=(0, 0), acc=(0, 0)):
    """Stacked (1, 2, 3) state and (1, 3, 3) covariance of one track."""
    return np.array([pos, vel, acc], dtype=float).T[None], np.eye(3)[None] * 0.1


def as_track(state, cov):
    """The one track of stacked arrays, as a Track."""
    return Track(1, state[0], cov[0], 4.0, 2.0, 1.5, hits=1, misses=0)


def det(x, y, z=0.75, heading=0.0, conf=0.9):
    return OrientedBox(x, y, z, 4.0, 2.0, 1.5, heading, conf)


def frame(t, boxes):
    return FusedFrame(timestamp=t, boxes=boxes, provenance=[(0,)] * len(boxes))


# --- prediction -----------------------------------------------------------------


def test_predict_constant_velocity():
    state, cov = kf_predict(*one_track(vel=(10, 0)), 0.1)
    assert state[0, 0, 0] == pytest.approx(1.0)
    assert state[0, 0, 1] == pytest.approx(10.0)


def test_predict_stationary_grows_covariance():
    state, cov = one_track()
    trace_before = np.trace(cov[0])
    state, cov = kf_predict(state, cov, 0.1)
    np.testing.assert_allclose(state[0, :, 0], [0, 0])
    assert np.trace(cov[0]) > trace_before


def test_predict_constant_acceleration():
    state, cov = kf_predict(*one_track(acc=(1, 0)), 1.0)
    assert state[0, 0, 0] == pytest.approx(0.5)
    assert state[0, 0, 1] == pytest.approx(1.0)


def test_predict_rejects_bad_dt():
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidArgument):
            kf_predict(*one_track(), dt)


def test_update_rejects_unpaired_lists():
    with pytest.raises(InvalidArgument):
        kf_update(*one_track(), np.zeros((0, 2)))


def random_tracks(seed, n=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (n, 3, 3))
    return rng.normal(0, 5, (n, 2, 3)), a @ a.transpose(0, 2, 1) + np.eye(3), rng.normal(0, 5, (n, 2))


def test_predict_leaves_its_inputs_unchanged():
    state, cov, _ = random_tracks(41)
    before = state.tobytes(), cov.tobytes()
    new_state, new_cov = kf_predict(state, cov, 0.1)
    assert (state.tobytes(), cov.tobytes()) == before
    assert not np.shares_memory(new_state, state) and not np.shares_memory(new_cov, cov)


def test_update_leaves_its_inputs_unchanged():
    state, cov, centers = random_tracks(43)
    before = state.tobytes(), cov.tobytes(), centers.tobytes()
    new_state, new_cov = kf_update(state, cov, centers)
    assert (state.tobytes(), cov.tobytes(), centers.tobytes()) == before
    assert not np.shares_memory(new_state, state) and not np.shares_memory(new_cov, cov)


# --- association ------------------------------------------------------------------


def pairs(track_pos, box_pos):
    rows, cols = associate(np.asarray(track_pos, dtype=float), np.asarray(box_pos, dtype=float))
    return list(zip(rows.tolist(), cols.tolist()))


def test_associate_simple_match():
    assert pairs([[0.0, 0.0]], [[0.5, 0.0]]) == [(0, 0)]


def test_associate_gated_out():
    assert pairs([[0.0, 0.0]], [[4.5, 0.0]]) == []


# Two tracks at x = 0 and 20 m, two boxes at x = 0.01 and -30 m: ungated, 30 + 19.99 m beats
# 0.01 + 50 m, and the 4 m gate would then drop both pairs.


def test_associate_never_trades_a_pair_inside_the_gate_for_pairs_outside_it():
    assert pairs([[0.0, 0.0], [20.0, 0.0]], [[0.01, 0.0], [-30.0, 0.0]]) == [(0, 0)]


def test_tracker_updates_the_track_whose_box_is_inside_the_gate():
    tracker = MultiObjectTracker()
    tracker.step(frame(0.1, [det(0.0, 0.0), det(20.0, 0.0)]))
    tracker.step(frame(0.2, [det(0.01, 0.0), det(-30.0, 0.0)]))
    assert [(t.track_id, t.hits, t.misses) for t in tracker.tracks] == [(1, 2, 0), (2, 1, 1), (3, 1, 0)]


def test_tracker_gates_on_xy_and_never_reads_z():
    # 5 m up is beyond the 4 m gate in 3-D, but the box has not moved in the plane
    tracker = MultiObjectTracker()
    tracker.step(frame(0.1, [det(10.0, 2.0, z=0.75)]))
    tracker.step(frame(0.2, [det(10.0, 2.0, z=5.75)]))
    assert [(t.track_id, t.hits, t.misses) for t in tracker.tracks] == [(1, 2, 0)]
    np.testing.assert_array_equal(tracker.tracks[0].position, [10.0, 2.0])


def brute_force_best(cost):
    """The most pairs inside the gate, then their least total: what the gated solve optimises."""
    n_rows, n_cols = cost.shape
    if n_rows <= n_cols:
        assignments = [list(enumerate(perm)) for perm in itertools.permutations(range(n_cols), n_rows)]
    else:
        assignments = [[(i, j) for j, i in enumerate(perm)] for perm in itertools.permutations(range(n_rows), n_cols)]
    best = (0, 0.0)
    for assignment in assignments:
        inside = [cost[i, j] for i, j in assignment if cost[i, j] <= tracking._GATE]
        best = min(best, (-len(inside), sum(inside)))
    return -best[0], best[1]


def test_associate_matches_permutation_oracle():
    rng = np.random.default_rng(3)
    traded = 0
    for _ in range(60):
        n_t = int(rng.integers(1, 8))
        n_d = int(rng.integers(1, 8))
        track_pos = rng.uniform(-6, 6, (n_t, 2))
        box_pos = rng.uniform(-6, 6, (n_d, 2))
        got = pairs(track_pos, box_pos)
        cost = np.array([[np.linalg.norm(t - b) for b in box_pos] for t in track_pos])
        count, total = brute_force_best(cost)
        assert len({i for i, _ in got}) == len({j for _, j in got}) == len(got) == count
        assert all(cost[i, j] <= tracking._GATE for i, j in got)
        assert sum(cost[i, j] for i, j in got) == pytest.approx(total, abs=1e-9)
        traded += count < min(n_t, n_d)
    assert traded > 10  # the gate binds on many draws


def test_associate_invariant_under_detection_permutation():
    rng = np.random.default_rng(9)
    track_pos = rng.uniform(-6, 6, (5, 2))
    box_pos = rng.uniform(-6, 6, (5, 2))
    base = {(ti, tuple(box_pos[di])) for ti, di in pairs(track_pos, box_pos)}
    assert 0 < len(base) < 5
    for _ in range(10):
        shuffled = box_pos[rng.permutation(5)]
        assert {(ti, tuple(shuffled[di])) for ti, di in pairs(track_pos, shuffled)} == base


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
    assert out and np.hypot(*out[0].velocity) == pytest.approx(speed, rel=0.02)


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


def test_tracks_lists_the_alive_tracks_in_birth_order():
    tracker = MultiObjectTracker(TrackingConfig(max_age=1))
    tracker.step(frame(0.1, [det(0.0, 0.0), det(30.0, 5.0)]))
    tracker.step(frame(0.2, [det(60.0, -7.0), det(0.0, 0.0), det(90.0, 11.0)]))
    assert [t.track_id for t in tracker.tracks] == [1, 2, 3, 4]
    tracker.step(frame(0.3, [det(-40.0, 3.0), det(0.0, 0.0)]))  # 2 is dropped, 3 and 4 coast
    assert [(t.track_id, t.misses) for t in tracker.tracks] == [(1, 0), (3, 1), (4, 1), (5, 0)]
    tracker.step(frame(0.4, [det(90.0, 11.0)]))
    assert [t.track_id for t in tracker.tracks] == [1, 4, 5]


def test_returned_track_keeps_its_values_after_later_steps():
    tracker = MultiObjectTracker()
    for k in range(4):
        out = tracker.step(frame(0.1 * (k + 1), [det(1.2 * k, 0.5)]))
    track = out[0]
    kept = (track.track_id, track.state.copy(), track.covariance.copy(), track.length, track.width,
            track.height, track.hits, track.misses)
    for k in range(4, 9):  # two updates, then misses
        tracker.step(frame(0.1 * (k + 1), [det(1.2 * k, 0.5)] if k < 6 else []))
    assert tracker.tracks[0].hits == track.hits + 2
    assert (track.track_id, track.length, track.width, track.height, track.hits, track.misses) == kept[:1] + kept[3:]
    assert track.state.tobytes() == kept[1].tobytes()
    assert track.covariance.tobytes() == kept[2].tobytes()


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
    with pytest.raises(InvalidArgument, match="dt must be a real number"):
        kf_predict(*one_track(vel=(1, 0)), True)


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
    state, cov = one_track(vel=(5, 0))
    rng = np.random.default_rng(17)
    for k in range(10_000):
        state, cov = kf_predict(state, cov, 0.1)
        center = [[state[0, 0, 0] + rng.normal(0, 0.2), rng.normal(0, 0.2)]]
        state, cov = kf_update(state, cov, np.array(center))
        if k % 997 == 0:
            np.testing.assert_allclose(cov[0], cov[0].T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(cov[0])) > 0


# --- heading ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "vx, vy, expected",
    [(10.0, 0.0, 0.0), (0.0, 5.0, math.pi / 2), (-3.0, 3.0, 3 * math.pi / 4), (1.0, -1.0, -math.pi / 4),
     (-20.0, 0.0, math.pi), (-20.0, -0.0, math.pi)],  # atan2 gives -pi for -0.0; wrapped into (-pi, pi]
    ids=["east", "north", "north_west", "south_east", "west", "west_negative_zero"],
)
def test_heading_is_direction_of_velocity(vx, vy, expected):
    track = as_track(*one_track(vel=(vx, vy)))
    assert track.heading == expected
    assert -math.pi < track.heading <= math.pi


def test_heading_follows_velocity_through_predict_and_update():
    tracker = MultiObjectTracker(CFG)
    tracker.step(frame(0.0, [det(0.0, 0.0)]))
    assert tracker.tracks[0].heading == 0.0  # a new track has no velocity yet
    rng = np.random.default_rng(5)
    for k in range(40):  # a vehicle driving north-west at 14 m/s
        s = 0.1 * (k + 1)
        tracker.step(frame(s, [det(-10.0 * s, 10.0 * s, heading=float(rng.uniform(-4, 4)))]))
        track = tracker.tracks[0]
        assert track.heading == wrap_angle(math.atan2(track.velocity[1], track.velocity[0]))
    assert track.heading == pytest.approx(3 * math.pi / 4, abs=0.01)


def test_box_heading_turned_by_pi_changes_nothing():
    """A fitted box's heading has no sign; the tracker does not read it at all."""
    rng = np.random.default_rng(13)
    trackers = {turn: MultiObjectTracker() for turn in (0.0, math.pi)}
    for k in range(30):
        x, y = 1.0 + 0.8 * (k + 1) + rng.normal(0, 0.2), 2.0 - 0.3 * (k + 1) + rng.normal(0, 0.2)
        heading = float(rng.uniform(-math.pi, math.pi))
        for turn, tracker in trackers.items():
            tracker.step(frame(0.1 * (k + 1), [det(x, y, heading=heading + turn)]))
        (a,), (b,) = (tracker.tracks for tracker in trackers.values())
        np.testing.assert_array_equal(a.state, b.state)
        np.testing.assert_array_equal(a.covariance, b.covariance)
        assert a.heading == b.heading
        assert (a.length, a.width, a.height) == (b.length, b.width, b.height)


# --- equivalence with the 6-state filter --------------------------------------------
#
# The reference below is a 6-state filter, state [x, y, vx, vy, ax, ay], in
# the earlier 10-state filter's code less its z and heading rows: full
# matrices and a matrix inverse, taking and returning one (state,
# covariance) pair instead of stacked arrays. Its noise is the model the tracking
# module states: Q = diag(0.1, 0.5, 0.5)^2 per 0.1 s, R = 0.3^2 and P0 =
# diag(0.3, 10, 3)^2.

_NX = 6
_H = np.zeros((2, _NX))
_H[0, 0] = _H[1, 1] = 1.0


def _ref_transition(dt):
    f = np.eye(_NX)
    for axis in range(2):
        f[axis, 2 + axis] = dt
        f[axis, 4 + axis] = 0.5 * dt * dt
        f[2 + axis, 4 + axis] = dt
    return f


def _ref_process_noise(dt):
    return np.diag(np.repeat([0.1, 0.5, 0.5], 2) ** 2 * (dt / 0.1))


def _ref_new(box):
    state = np.zeros(_NX)
    state[0:2] = [box.x, box.y]
    return state, np.diag(np.repeat([0.3, 10.0, 3.0], 2) ** 2)


def _ref_predict(state, covariance, dt):
    f = _ref_transition(dt)
    cov = f @ covariance @ f.T + _ref_process_noise(dt)
    return f @ state, 0.5 * (cov + cov.T)


def _ref_update(state, covariance, box):
    r = np.eye(2) * 0.3**2
    innovation = np.array([box.x, box.y]) - _H @ state
    s = _H @ covariance @ _H.T + r
    gain = covariance @ _H.T @ np.linalg.inv(s)
    state = state + gain @ innovation
    ikh = np.eye(_NX) - gain @ _H
    cov = ikh @ covariance @ ikh.T + gain @ r @ gain.T  # Joseph form
    return state, 0.5 * (cov + cov.T)


def _assert_axes_decoupled(cov):
    """Every cross-axis entry is exactly 0 and the x and y blocks are bit-identical."""
    x, y = [0, 2, 4], [1, 3, 5]
    assert not cov[np.ix_(x, y)].any() and not cov[np.ix_(y, x)].any()
    np.testing.assert_array_equal(cov[np.ix_(y, y)], cov[np.ix_(x, x)])


def _assert_matches_reference(track, state, cov):
    np.testing.assert_allclose(track.state, state.reshape(3, 2).T, rtol=0, atol=1e-9)
    np.testing.assert_allclose(track.covariance, cov[0:6:2, 0:6:2], rtol=0, atol=1e-9)
    assert abs(wrap_angle(track.heading - math.atan2(state[3], state[2]))) <= 1e-9


def test_matches_six_state_reference():
    """Seeded drive of both filters: mixed dt, updates and misses, a heading across the seam."""
    rng = np.random.default_rng(29)
    pos, vel = np.array([5.0, -3.0]), np.array([-20.0, 1.5])

    def box_at():
        x, y = pos + rng.normal(0, 0.2, 2)
        z = float(rng.uniform(-5, 5))  # like the heading, read by neither filter
        return det(x, y, z=z, heading=float(rng.uniform(-math.pi, math.pi)))

    first = box_at()
    tracker = MultiObjectTracker()
    tracker.step(frame(0.0, [first]))  # the tracker's own birth row
    track = tracker.tracks[0]
    t_state, t_cov = track.state[None], track.covariance[None]
    state, cov = _ref_new(first)
    updates, sides = 0, set()
    for k in range(300):
        dt = float(rng.uniform(0.05, 0.3))
        pos = pos + vel * dt
        vel = vel + np.array([math.sin(0.1 * k), -0.5]) * dt  # vy turns negative: westward across +-pi
        t_state, t_cov = kf_predict(t_state, t_cov, dt)
        state, cov = _ref_predict(state, cov, dt)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(as_track(t_state, t_cov), state, cov)
        if rng.random() < 0.3:  # missed step: predict only
            continue
        box = box_at()
        t_state, t_cov = kf_update(t_state, t_cov, np.array([[box.x, box.y]]))
        state, cov = _ref_update(state, cov, box)
        updates += 1
        track = as_track(t_state, t_cov)
        if abs(track.heading) > math.pi / 2:
            sides.add(track.heading > 0)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(track, state, cov)
    assert 150 < updates < 270
    assert sides == {True, False}  # the heading crossed the seam


# --- equivalence with the per-track filter -------------------------------------------
#
# The reference below is the filter as it was before kf_predict and kf_update
# ran on stacked arrays: the same algebra on one track's (2, 3) state and
# (3, 3) covariance at a time. The batched functions run it on stacked
# arrays, where NumPy's stacked matmul runs the same kernel per matrix, so
# every bit must agree.


def _per_track_predict(state, covariance, dt):
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidArgument(f"dt must be positive, got {dt}")
    f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    cov = f @ covariance @ f.T + tracking._Q * (dt / tracking._NOMINAL_DT)
    return state @ f.T, 0.5 * (cov + cov.T)


def _per_track_update(state, p, center):
    gain = p[:, 0] / (p[0, 0] + tracking._R)
    innovation = center - state[:, 0]
    ikh = np.eye(3)
    ikh[:, 0] -= gain
    cov = ikh @ p @ ikh.T + tracking._R * np.outer(gain, gain)  # Joseph form
    return state + np.outer(innovation, gain), 0.5 * (cov + cov.T)


def _restacked(rows):
    states, covs = zip(*rows) if rows else ((), ())
    return np.array(states).reshape(-1, 2, 3), np.array(covs).reshape(-1, 3, 3)


def _per_track_tracker_step(monkeypatch, tracker, fr):
    """One step of `tracker` with the per-track reference in place of the batched filter."""
    def predict(state, cov, dt):
        return _restacked([_per_track_predict(s, c, dt) for s, c in zip(state, cov)])

    def update(state, cov, centers):
        return _restacked([_per_track_update(s, c, z) for s, c, z in zip(state, cov, centers)])

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
