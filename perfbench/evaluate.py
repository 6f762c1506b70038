"""Tracking quality against ground truth: CLEAR-MOT, IDF1, RMSE, track-ID ratio.

CLEAR-MOT follows Bernardin & Stiefelhagen (EURASIP JIVP 2008) and IDF1
follows Ristani et al. (ECCV-W 2016). At each timestamp, tracks are matched
to the visible ground-truth vehicles by Hungarian matching on xy distance;
a pair farther apart than the gate is no match.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

GATE_M = 2.0


class Obs(NamedTuple):
    """One object at one timestamp: a ground-truth SV or a track."""

    oid: int
    t: float
    x: float
    y: float
    speed: float


def _by_time(observations) -> dict[float, list[Obs]]:
    out = defaultdict(list)
    for o in observations:
        out[round(o.t, 6)].append(o)
    return out


def _distances(truth: list[Obs], tracks: list[Obs]) -> np.ndarray:
    g = np.array([[o.x, o.y] for o in truth]).reshape(-1, 2)
    h = np.array([[o.x, o.y] for o in tracks]).reshape(-1, 2)
    return np.hypot(g[:, None, 0] - h[None, :, 0], g[:, None, 1] - h[None, :, 1])


def match(truth: list[Obs], tracks: list[Obs], gate: float) -> list[tuple[int, int, float]]:
    """Hungarian matching on xy distance; returns (truth index, track index, distance) within the gate."""
    if not truth or not tracks:
        return []
    dist = _distances(truth, tracks)
    rows, cols = linear_sum_assignment(np.where(dist <= gate, dist, 1e9))
    return [(int(i), int(j), float(dist[i, j])) for i, j in zip(rows, cols) if dist[i, j] <= gate]


def evaluate(truth: list[Obs], tracks: list[Obs], gate: float = GATE_M) -> dict:
    """CLEAR-MOT, IDF1, RMSE and track-ID ratio of tracks against truth.

    Ratios with an empty base (no truth, no matches) are NaN.
    """
    gt_at, tr_at = _by_time(truth), _by_time(tracks)
    fn = fp = id_switches = 0
    dists, speed_errs = [], []
    last_track_of: dict[int, int] = {}
    id_tp: dict[tuple[int, int], int] = defaultdict(int)  # (sv id, track id) -> frames within gate
    for t in sorted(set(gt_at) | set(tr_at)):
        g, h = gt_at.get(t, []), tr_at.get(t, [])
        pairs = match(g, h, gate)
        fn += len(g) - len(pairs)
        fp += len(h) - len(pairs)
        for i, j, d in pairs:
            sv, tid = g[i].oid, h[j].oid
            if last_track_of.get(sv, tid) != tid:
                id_switches += 1
            last_track_of[sv] = tid
            dists.append(d)
            speed_errs.append(h[j].speed - g[i].speed)
        if g and h:
            close = _distances(g, h) <= gate
            for i, j in zip(*np.nonzero(close)):
                id_tp[(g[i].oid, h[j].oid)] += 1

    svs = sorted({o.oid for o in truth})
    tids = sorted({o.oid for o in tracks})
    idtp = 0
    if id_tp:
        gain = np.zeros((len(svs), len(tids)))
        sv_ix = {s: k for k, s in enumerate(svs)}
        tid_ix = {s: k for k, s in enumerate(tids)}
        for (sv, tid), n in id_tp.items():
            gain[sv_ix[sv], tid_ix[tid]] = n
        rows, cols = linear_sum_assignment(gain, maximize=True)
        idtp = int(gain[rows, cols].sum())

    n_gt, n_tr = len(truth), len(tracks)
    nan = float("nan")
    dists = np.array(dists)
    speed_errs = np.array(speed_errs)
    return {
        "mota": 1.0 - (fn + fp + id_switches) / n_gt if n_gt else nan,
        "motp_m": float(dists.mean()) if len(dists) else nan,
        "id_switches": id_switches,
        "idf1": 2.0 * idtp / (n_gt + n_tr) if n_gt + n_tr else nan,
        "pos_rmse_m": float(math.sqrt(np.mean(dists**2))) if len(dists) else nan,
        "speed_rmse_mps": float(math.sqrt(np.mean(speed_errs**2))) if len(dists) else nan,
        "track_id_ratio": len(tids) / len(svs) if svs else nan,
        "gate_m": gate,
        "truth": n_gt,
        "track_rows": n_tr,
        "matches": len(dists),
        "false_negatives": fn,
        "false_positives": fp,
        "track_ids": len(tids),
        "sv_ids": len(svs),
    }
