"""Kalman-filter multi-object tracker over fused detections.

x and y run identical constant-acceleration filters over [position,
velocity, acceleration] that never couple, so one (3, 3) covariance serves
both axes. The filter model is fixed:

- process noise Q = diag(0.1 m, 0.5 m/s, 0.5 m/s^2)^2 per nominal 0.1 s
  step, scaled linearly with the step: Q * dt / 0.1 s;
- measurement noise R = (0.3 m)^2 on the box center's x and on its y;
- a new track starts at its box's xy center with P0 = diag(0.3 m, 10 m/s,
  3 m/s^2)^2 and zero velocity and acceleration;
- box dimensions are smoothed by an EMA of weight 0.3 on each new box.

The heading is the direction of the xy velocity. A box's long axis has no
sign and every output is planar, so only its xy center and its dimensions
are read; a stopped object's heading follows its velocity noise.

`MultiObjectTracker` keeps its tracks as row-aligned arrays in birth order:
ids, (T, 2, 3) states, (T, 3, 3) covariances, (T, 3) box dimensions, hits and
misses. `kf_predict`, `kf_update` and `associate` are pure functions of such
stacked arrays. A step replaces the stored arrays instead of writing into
them, so the `Track`s it returns are views of that step's rows and keep
their values when later steps run.

Detections are associated to predicted track positions with the Hungarian
algorithm on their distance in the xy plane, gated at 4 m inside the solve:
a cost beyond the gate becomes 1e9 before `linear_sum_assignment`, so a pair
inside the gate is never traded for pairs outside it.

The stacked algebra is the single-track algebra term for term (state @ F^T,
F @ P @ F^T, the Joseph form (I - K H) P (I - K H)^T, and the outer products
as broadcast elementwise products), and NumPy's stacked matmul runs the same
kernel on each matrix as it does on one alone, so a track's numbers
do not depend on how many tracks share its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidArgument, check_number
from .fusion import FusedFrame
from .geometry import wrap_angle

_NOMINAL_DT = 0.1                            # s, the step Q is quoted for
_Q = np.diag([0.1**2, 0.5**2, 0.5**2])       # process noise per nominal step
_R = 0.3**2                                  # measurement noise, m^2
_P0 = np.diag([_R, 10.0**2, 3.0**2])         # covariance of a new track
_DIM_EMA = 0.3                               # weight of a new box's dimensions
_GATE = 4.0                                  # m, association gate


@dataclass
class TrackingConfig:
    confirm_hits: int = 3       # hits before a track is reported
    max_age: int = 5            # missed steps before a track is dropped

    def __post_init__(self):
        check_number(self.confirm_hits, "confirm_hits", least=1, integer=True)
        check_number(self.max_age, "max_age", least=0, integer=True)


@dataclass
class Track:
    """One track as a step left it; box dims are EMA-smoothed.

    `state` rows are x and y and its columns position, velocity, acceleration;
    `covariance` is the (3, 3) [p, v, a] covariance shared by both axes.
    Both are views of the tracker's rows, which no later step writes.
    """

    track_id: int
    state: np.ndarray
    covariance: np.ndarray
    length: float
    width: float
    height: float
    hits: int
    misses: int

    @property
    def position(self) -> np.ndarray:
        return self.state[:, 0]

    @property
    def velocity(self) -> np.ndarray:
        return self.state[:, 1]

    @property
    def acceleration(self) -> np.ndarray:
        return self.state[:, 2]

    @property
    def heading(self) -> float:
        """Direction of travel in the xy plane, in (-pi, pi]."""
        return wrap_angle(math.atan2(self.state[1, 1], self.state[0, 1]))


def kf_predict(state: np.ndarray, cov: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(T, 2, 3) states and (T, 3, 3) covariances advanced by dt with the constant-acceleration model."""
    check_number(dt, "dt", positive=True)
    f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    cov = f @ cov @ f.T + _Q * (dt / _NOMINAL_DT)
    return state @ f.T, 0.5 * (cov + cov.transpose(0, 2, 1))


def kf_update(state: np.ndarray, cov: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, 2, 3) states and (T, 3, 3) covariances updated with one (x, y) box center per row.

    Each axis measures only its position, so the innovation is a scalar per
    axis and both axes of a track share the gain P[:, 0] / (P[0, 0] + R).
    """
    if len(state) != len(centers):
        raise InvalidArgument(f"{len(state)} tracks for {len(centers)} box centers")
    gain = cov[:, :, 0] / (cov[:, 0, 0] + _R)[:, None]
    innovation = centers - state[:, :, 0]
    state = state + innovation[:, :, None] * gain[:, None, :]
    ikh = np.eye(3) - gain[:, :, None] * (1.0, 0.0, 0.0)  # I - K·H, with H = (1, 0, 0)
    cov = ikh @ cov @ ikh.transpose(0, 2, 1) + _R * (gain[:, :, None] * gain[:, None, :])  # Joseph form
    return state, 0.5 * (cov + cov.transpose(0, 2, 1))


def associate(track_pos: np.ndarray, box_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gated Hungarian assignment of (T, 2) track positions to (N, 2) box centers in the xy plane.

    Returns the matched track rows and box rows, two index arrays.
    """
    offset = track_pos[:, None, :] - box_pos[None, :, :]
    cost = np.sqrt(np.add.reduce(offset * offset, axis=2))
    inside = cost <= _GATE
    rows, cols = linear_sum_assignment(np.where(inside, cost, 1e9))
    matched = inside[rows, cols]
    return rows[matched], cols[matched]


class MultiObjectTracker:
    """Tracker state machine: predict, associate, update, manage lifecycles."""

    def __init__(self, config: TrackingConfig | None = None):
        self.config = config or TrackingConfig()
        # one row per alive track, in birth order; dims are length, width, height.
        # A step replaces these arrays and never writes into them.
        self._ids = self._hits = self._misses = np.zeros(0, dtype=np.int64)
        self._state, self._cov = np.zeros((0, 2, 3)), np.zeros((0, 3, 3))
        self._dims = np.zeros((0, 3))
        self._next_id = 1
        self._last_timestamp: float | None = None

    @property
    def tracks(self) -> list[Track]:
        """The alive tracks in birth order."""
        return self._tracks(range(len(self._ids)))

    def _tracks(self, rows) -> list[Track]:
        ids, dims, hits, misses = self._ids.tolist(), self._dims.tolist(), self._hits.tolist(), self._misses.tolist()
        return [Track(ids[k], self._state[k], self._cov[k], *dims[k], hits[k], misses[k]) for k in rows]

    def step(self, frame: FusedFrame) -> list[Track]:
        """Process one fused frame; returns the confirmed tracks seen in it."""
        c = self.config
        check_number(frame.timestamp, "frame timestamp")
        if self._last_timestamp is not None and frame.timestamp <= self._last_timestamp:
            raise InvalidArgument(f"frame timestamps must increase: {frame.timestamp} after {self._last_timestamp}")

        state, cov = self._state, self._cov
        if self._last_timestamp is not None:
            state, cov = kf_predict(state, cov, frame.timestamp - self._last_timestamp)
        boxes = np.array([(b.x, b.y, b.length, b.width, b.height) for b in frame.boxes]).reshape(-1, 5)
        ti, di = associate(state[:, :, 0], boxes[:, :2])
        # kf_predict made new arrays (the first step has no rows), so no returned Track views these
        state[ti], cov[ti] = kf_update(state[ti], cov[ti], boxes[di, :2])
        dims, hits, misses = self._dims.copy(), self._hits.copy(), self._misses + 1
        dims[ti] = (1 - _DIM_EMA) * dims[ti] + _DIM_EMA * boxes[di, 2:]
        hits[ti] += 1
        misses[ti] = 0

        kept = misses <= c.max_age
        unmatched = np.ones(len(boxes), dtype=bool)
        unmatched[di] = False
        born = boxes[unmatched]
        new_state = np.zeros((len(born), 2, 3))
        new_state[:, :, 0] = born[:, :2]
        self._ids = np.concatenate([self._ids[kept], self._next_id + np.arange(len(born))])
        self._state = np.concatenate([state[kept], new_state])
        self._cov = np.concatenate([cov[kept], np.repeat(_P0[None], len(born), axis=0)])
        self._dims = np.concatenate([dims[kept], born[:, 2:]])
        self._hits = np.concatenate([hits[kept], np.ones(len(born), dtype=np.int64)])
        self._misses = np.concatenate([misses[kept], np.zeros(len(born), dtype=np.int64)])
        self._next_id += len(born)

        self._last_timestamp = frame.timestamp
        confirmed = (self._hits >= c.confirm_hits) & (self._misses == 0)
        return self._tracks(np.flatnonzero(confirmed).tolist())
