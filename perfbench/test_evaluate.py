"""Hand-built cases for the evaluator. Run: python3 -m pytest perfbench"""

import math

from evaluate import Obs, evaluate


def _truth(n_steps=5):
    # two SVs 10 m apart driving +x at 20 m/s, 10 Hz
    return [Obs(sv, k * 0.1, 2.0 * k, 10.0 * (sv - 1), 20.0) for k in range(n_steps) for sv in (1, 2)]


def _as_track(o: Obs, tid: int, dx: float = 0.0) -> Obs:
    return Obs(tid, o.t, o.x + dx, o.y, o.speed)


def test_perfect_tracker():
    truth = _truth()
    tracks = [_as_track(o, 100 + o.oid) for o in truth]
    r = evaluate(truth, tracks)
    assert r["mota"] == 1.0
    assert r["idf1"] == 1.0
    assert r["motp_m"] == 0.0
    assert r["pos_rmse_m"] == 0.0
    assert r["speed_rmse_mps"] == 0.0
    assert r["id_switches"] == 0
    assert r["track_id_ratio"] == 1.0


def test_one_id_switch():
    truth = _truth()
    tracks = [_as_track(o, 100 + o.oid if not (o.oid == 1 and o.t > 0.25) else 200) for o in truth]
    r = evaluate(truth, tracks)
    assert r["id_switches"] == 1
    assert r["mota"] == 1.0 - 1 / 10
    # SV 1 keeps track 101 for 3 of its 5 frames: IDTP = 5 + 3
    assert r["idf1"] == 2 * 8 / 20
    assert r["track_id_ratio"] == 3 / 2


def test_one_false_positive():
    truth = _truth()
    tracks = [_as_track(o, 100 + o.oid) for o in truth] + [Obs(300, 0.2, 50.0, 50.0, 0.0)]
    r = evaluate(truth, tracks)
    assert r["false_positives"] == 1
    assert r["mota"] == 1.0 - 1 / 10
    assert r["idf1"] == 2 * 10 / 21
    assert r["id_switches"] == 0


def test_one_missed_sv():
    truth = _truth()
    tracks = [_as_track(o, 100 + o.oid) for o in truth if not (o.oid == 2 and math.isclose(o.t, 0.3))]
    r = evaluate(truth, tracks)
    assert r["false_negatives"] == 1
    assert r["mota"] == 1.0 - 1 / 10
    assert r["idf1"] == 2 * 9 / 19


def test_offset_beyond_gate_is_a_miss_and_a_false_positive():
    truth = _truth(1)
    r = evaluate(truth, [_as_track(truth[0], 101, dx=2.5), _as_track(truth[1], 102, dx=1.0)], gate=2.0)
    assert (r["matches"], r["false_negatives"], r["false_positives"]) == (1, 1, 1)
    assert r["motp_m"] == 1.0


def test_empty_run():
    truth = _truth()
    r = evaluate(truth, [])
    assert r["mota"] == 0.0
    assert r["idf1"] == 0.0
    assert r["false_negatives"] == len(truth)
    assert r["track_id_ratio"] == 0.0
    assert math.isnan(r["motp_m"]) and math.isnan(r["pos_rmse_m"])

    r = evaluate([], [])
    assert math.isnan(r["mota"]) and math.isnan(r["idf1"])
    assert r["matches"] == 0
