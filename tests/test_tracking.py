import itertools
import math

import numpy as np
import pytest

from cavtraj.detection import OrientedBox
from cavtraj.errors import InvalidArgument
from cavtraj.fusion import FusedFrame
from cavtraj.geometry import wrap_angle
from cavtraj.tracking import (
    Assignment,
    MultiObjectTracker,
    Track,
    TrackingConfig,
    associate,
    kf_predict,
    kf_update,
)

CFG = TrackingConfig()


def make_track(pos=(0, 0, 0), vel=(0, 0, 0), acc=(0, 0, 0), heading=0.0, track_id=1):
    return Track(
        track_id=track_id,
        state=np.array([pos, vel, acc], dtype=float).T,
        covariance=np.eye(3) * 0.1,
        heading=heading,
        heading_var=0.1,
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
    kf_predict(t, 0.1, CFG)
    assert t.position[0] == pytest.approx(1.0)
    assert t.velocity[0] == pytest.approx(10.0)


def test_predict_stationary_grows_covariance():
    t = make_track()
    trace_before, heading_var_before = np.trace(t.covariance), t.heading_var
    kf_predict(t, 0.1, CFG)
    np.testing.assert_allclose(t.position, [0, 0, 0])
    assert np.trace(t.covariance) > trace_before
    assert t.heading_var > heading_var_before


def test_predict_constant_acceleration():
    t = make_track(acc=(1, 0, 0))
    kf_predict(t, 1.0, CFG)
    assert t.position[0] == pytest.approx(0.5)
    assert t.velocity[0] == pytest.approx(1.0)


def test_predict_rejects_bad_dt():
    t = make_track()
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(InvalidArgument):
            kf_predict(t, dt, CFG)


# --- association ------------------------------------------------------------------


def test_associate_simple_match():
    a = associate([make_track()], [det(0.5, 0.0, z=0.0)], gate=2.0)
    assert a.pairs == [(0, 0)]
    assert a.unmatched_tracks == [] and a.unmatched_detections == []


def test_associate_gated_out():
    a = associate([make_track()], [det(5.0, 0.0, z=0.0)], gate=2.0)
    assert a.pairs == []
    assert a.unmatched_tracks == [0] and a.unmatched_detections == [0]


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
        a = associate(tracks, dets, gate=1e9)
        cost = np.array(
            [[np.linalg.norm(t.position - np.array([d.x, d.y, d.z])) for d in dets] for t in tracks]
        )
        total = sum(cost[i, j] for i, j in a.pairs)
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-9)
        assert len(a.pairs) == min(n_t, n_d)


def test_associate_invariant_under_detection_permutation():
    rng = np.random.default_rng(9)
    tracks = [make_track(pos=rng.uniform(-20, 20, 3), track_id=i) for i in range(5)]
    dets = [det(*rng.uniform(-20, 20, 2), z=float(rng.uniform(-2, 2))) for _ in range(5)]
    base = associate(tracks, dets, gate=1e9)
    base_set = {(ti, (dets[di].x, dets[di].y)) for ti, di in base.pairs}
    for _ in range(10):
        perm = rng.permutation(5)
        shuffled = [dets[k] for k in perm]
        a = associate(tracks, shuffled, gate=1e9)
        got = {(ti, (shuffled[di].x, shuffled[di].y)) for ti, di in a.pairs}
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
    assert out and out[0].speed == pytest.approx(speed, rel=0.02)


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


def test_covariance_stays_spd_over_many_cycles():
    cfg = TrackingConfig()
    track = make_track(vel=(5, 0, 0))
    rng = np.random.default_rng(17)
    for k in range(10_000):
        kf_predict(track, 0.1, cfg)
        box = det(track.position[0] + rng.normal(0, 0.2), rng.normal(0, 0.2))
        kf_update(track, box, cfg)
        if k % 997 == 0:
            cov = track.covariance
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(cov)) > 0
            assert track.heading_var > 0


def test_heading_update_wraps_shortest_arc():
    track = make_track(heading=math.pi - 0.05)
    box = det(0.0, 0.0, z=0.0, heading=-math.pi + 0.05)  # 0.1 rad away across the seam
    kf_update(track, box, TrackingConfig())
    assert abs(track.heading) > math.pi - 0.1  # stayed near the seam, no half-turn jump


# --- equivalence with the 10-state filter -------------------------------------------
#
# The reference below is the earlier 10-state filter, state
# [x, y, z, vx, vy, vz, ax, ay, az, heading], verbatim but for taking and
# returning (state, covariance) arrays instead of a Track.

_NX = 10
_HEAD = 9
_H = np.zeros((4, _NX))
_H[0, 0] = _H[1, 1] = _H[2, 2] = 1.0
_H[3, _HEAD] = 1.0


def _ref_transition(dt):
    f = np.eye(_NX)
    for axis in range(3):
        f[axis, 3 + axis] = dt
        f[axis, 6 + axis] = 0.5 * dt * dt
        f[3 + axis, 6 + axis] = dt
    return f


def _ref_process_noise(config, dt):
    scale = dt / config.nominal_dt
    diag = np.r_[
        np.full(3, config.q_pos**2),
        np.full(3, config.q_vel**2),
        np.full(3, config.q_acc**2),
        [config.q_heading**2],
    ]
    return np.diag(diag * scale)


def _ref_new(box, c):
    state = np.zeros(_NX)
    state[0:3] = [box.x, box.y, box.z]
    state[_HEAD] = box.heading
    cov = np.diag(
        np.r_[
            np.full(3, c.r_pos**2),
            np.full(3, c.init_vel_sigma**2),
            np.full(3, c.init_acc_sigma**2),
            [c.r_heading**2 * 4],
        ]
    )
    return state, cov


def _ref_predict(state, covariance, dt, config):
    f = _ref_transition(dt)
    state = f @ state
    state[_HEAD] = wrap_angle(state[_HEAD])
    cov = f @ covariance @ f.T + _ref_process_noise(config, dt)
    return state, 0.5 * (cov + cov.T)


def _ref_aligned_heading(measured, predicted):
    candidates = (measured, measured + math.pi, measured - math.pi)
    return min(candidates, key=lambda h: abs(wrap_angle(h - predicted)))


def _ref_update(state, covariance, box, config):
    r = np.diag([config.r_pos**2, config.r_pos**2, config.r_pos**2, config.r_heading**2])
    z = np.array([box.x, box.y, box.z, _ref_aligned_heading(box.heading, float(state[_HEAD]))])
    innovation = z - _H @ state
    innovation[3] = wrap_angle(innovation[3])
    s = _H @ covariance @ _H.T + r
    gain = covariance @ _H.T @ np.linalg.inv(s)
    state = state + gain @ innovation
    state[_HEAD] = wrap_angle(state[_HEAD])
    ikh = np.eye(_NX) - gain @ _H
    cov = ikh @ covariance @ ikh.T + gain @ r @ gain.T  # Joseph form
    return state, 0.5 * (cov + cov.T)


def _assert_axes_decoupled(cov):
    """Every cross-axis entry is exactly 0 and the x, y, z blocks are bit-identical."""
    blocks = [[a, 3 + a, 6 + a] for a in range(3)]
    for i, rows in enumerate(blocks + [[_HEAD]]):
        for j, cols in enumerate(blocks + [[_HEAD]]):
            if i != j:
                assert not cov[np.ix_(rows, cols)].any()
    for rows in blocks[1:]:
        np.testing.assert_array_equal(cov[np.ix_(rows, rows)], cov[np.ix_(blocks[0], blocks[0])])


def _assert_matches_reference(track, state, cov):
    np.testing.assert_allclose(track.state, state[:9].reshape(3, 3).T, rtol=0, atol=1e-9)
    np.testing.assert_allclose(track.covariance, cov[0:9:3, 0:9:3], rtol=0, atol=1e-9)
    assert abs(wrap_angle(track.heading - state[_HEAD])) <= 1e-9
    assert track.heading_var == pytest.approx(cov[_HEAD, _HEAD], rel=0, abs=1e-9)


def test_matches_ten_state_reference():
    """Seeded drive of both filters: mixed dt, updates and misses, headings across the seam."""
    cfg = TrackingConfig()
    rng = np.random.default_rng(29)
    pos, vel = np.array([5.0, -3.0, 0.75]), np.array([-20.0, 1.5, 0.0])

    def box_at(heading):
        heading += math.pi * int(rng.integers(2))  # a fitted box's heading has an arbitrary sign
        x, y, z = pos + rng.normal(0, 0.2, 3)
        return det(x, y, z=z, heading=float(wrap_angle(heading + rng.normal(0, 0.05))))

    first = box_at(math.pi - 0.02)
    track = MultiObjectTracker(cfg)._new_track(first)
    state, cov = _ref_new(first, cfg)
    updates, sides = 0, set()
    for k in range(300):
        dt = float(rng.uniform(0.05, 0.3))
        pos = pos + vel * dt
        vel = vel + np.array([math.sin(0.1 * k), -0.5, 0.0]) * dt
        kf_predict(track, dt, cfg)
        state, cov = _ref_predict(state, cov, dt, cfg)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(track, state, cov)
        if rng.random() < 0.3:  # missed step: predict only
            continue
        box = box_at(math.pi + 0.1 * math.sin(0.2 * k))  # heading swings across +-pi
        kf_update(track, box, cfg)
        state, cov = _ref_update(state, cov, box, cfg)
        updates += 1
        sides.add(track.heading > 0)
        _assert_axes_decoupled(cov)
        _assert_matches_reference(track, state, cov)
    assert 150 < updates < 270
    assert sides == {True, False}  # the heading crossed the seam
