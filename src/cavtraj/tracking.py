"""Kalman-filter multi-object tracker over fused detections.

x, y and z run identical constant-acceleration filters over [position,
velocity, acceleration] that never couple, so one (3, 3) covariance serves
all three axes. The filter model is fixed:

- process noise Q = diag(0.1 m, 0.5 m/s, 0.5 m/s^2)^2 per nominal 0.1 s
  step, scaled linearly with the step: Q * dt / 0.1 s;
- measurement noise R = (0.3 m)^2 on each axis of the box center;
- a new track starts at its box center with P0 = diag(0.3 m, 10 m/s,
  3 m/s^2)^2 and zero velocity and acceleration;
- box dimensions are smoothed by an EMA of weight 0.3 on each new box.

The heading is the direction of the xy velocity (a box's long axis has no
sign, so only its center and dimensions are read); a stopped object's
heading follows its velocity noise. Detections are associated to predicted
track positions with the Hungarian algorithm under a 4 m Euclidean gate.

Each step predicts all tracks in one `kf_predict` call and updates all
matched tracks in one `kf_update` call: the states and covariances are
stacked into (T, 3, 3) arrays, and every track then holds row views of the
result. The stacked algebra is the single-track algebra term for term
(state @ F^T, F @ P @ F^T, the Joseph form (I - K H) P (I - K H)^T, and the
outer products as broadcast elementwise products), and NumPy's stacked
matmul runs the same kernel on each (3, 3) matrix as it does on one alone,
so a track's numbers do not depend on how many tracks share its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detection import OrientedBox
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
    """One tracked object; box dims are EMA-smoothed.

    `state` rows are x, y, z and its columns position, velocity, acceleration;
    `covariance` is the (3, 3) [p, v, a] covariance shared by the three axes.
    """

    track_id: int
    state: np.ndarray
    covariance: np.ndarray
    length: float
    width: float
    height: float
    hits: int = 1
    misses: int = 0

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


def kf_predict(tracks: list[Track], dt: float) -> None:
    """Advance every track in place by dt with the constant-acceleration model."""
    check_number(dt, "dt", positive=True)
    if not tracks:
        return
    f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    state = np.array([t.state for t in tracks]) @ f.T
    cov = f @ np.array([t.covariance for t in tracks]) @ f.T + _Q * (dt / _NOMINAL_DT)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    for track, s, c in zip(tracks, state, cov):
        track.state, track.covariance = s, c


def kf_update(tracks: list[Track], boxes: list[OrientedBox]) -> None:
    """Measurement update in place of tracks[k] with the center and dimensions of boxes[k].

    Each axis measures only its position, so the innovation is a scalar per
    axis and every axis of a track shares the gain P[:, 0] / (P[0, 0] + R).
    """
    if len(tracks) != len(boxes):
        raise InvalidArgument(f"{len(tracks)} tracks for {len(boxes)} boxes")
    if not tracks:
        return
    state = np.array([t.state for t in tracks])
    p = np.array([t.covariance for t in tracks])
    gain = p[:, :, 0] / (p[:, 0, 0] + _R)[:, None]
    innovation = np.array([[b.x, b.y, b.z] for b in boxes]) - state[:, :, 0]
    state = state + innovation[:, :, None] * gain[:, None, :]
    ikh = np.eye(3) - gain[:, :, None] * (1.0, 0.0, 0.0)  # I - K·H, with H = (1, 0, 0)
    cov = ikh @ p @ ikh.transpose(0, 2, 1) + _R * (gain[:, :, None] * gain[:, None, :])  # Joseph form
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))

    beta = _DIM_EMA
    for track, box, s, c in zip(tracks, boxes, state, cov):
        track.state, track.covariance = s, c
        track.length = (1 - beta) * track.length + beta * box.length
        track.width = (1 - beta) * track.width + beta * box.width
        track.height = (1 - beta) * track.height + beta * box.height
        track.hits += 1
        track.misses = 0


def associate(tracks: list[Track], detections: list[OrientedBox], gate: float) -> list[tuple[int, int]]:
    """Hungarian assignment on Euclidean distance, gated at `gate` meters.

    Returns the matched (track index, detection index) pairs.
    """
    if not gate > 0.0:  # NaN too: every cost <= NaN is false
        raise InvalidArgument(f"gate must be positive: {gate!r}")
    if not tracks or not detections:
        return []

    track_pos = np.array([t.position for t in tracks])
    det_pos = np.array([[d.x, d.y, d.z] for d in detections])
    offset = track_pos[:, None, :] - det_pos[None, :, :]
    cost = np.sqrt(np.add.reduce(offset * offset, axis=2))
    rows, cols = linear_sum_assignment(cost)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] <= gate]


class MultiObjectTracker:
    """Tracker state machine: predict, associate, update, manage lifecycles."""

    def __init__(self, config: TrackingConfig | None = None):
        self.config = config or TrackingConfig()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_timestamp: float | None = None

    def _new_track(self, box: OrientedBox) -> Track:
        state = np.zeros((3, 3))
        state[:, 0] = [box.x, box.y, box.z]
        track = Track(
            track_id=self._next_id,
            state=state,
            covariance=_P0.copy(),
            length=box.length,
            width=box.width,
            height=box.height,
        )
        self._next_id += 1
        return track

    def step(self, frame: FusedFrame) -> list[Track]:
        """Process one fused frame; returns the confirmed tracks seen in it."""
        c = self.config
        check_number(frame.timestamp, "frame timestamp")
        if self._last_timestamp is not None and frame.timestamp <= self._last_timestamp:
            raise InvalidArgument(
                f"frame timestamps must increase: {frame.timestamp} after {self._last_timestamp}"
            )

        if self._last_timestamp is not None:
            kf_predict(self.tracks, frame.timestamp - self._last_timestamp)

        pairs = associate(self.tracks, frame.boxes, _GATE)
        for track in self.tracks:
            track.misses += 1  # kf_update resets a matched track's count
        kf_update([self.tracks[ti] for ti, _ in pairs], [frame.boxes[di] for _, di in pairs])
        self.tracks = [t for t in self.tracks if t.misses <= c.max_age]

        matched = {di for _, di in pairs}
        self.tracks += [self._new_track(box) for di, box in enumerate(frame.boxes) if di not in matched]

        self._last_timestamp = frame.timestamp
        return [t for t in self.tracks if t.hits >= c.confirm_hits and t.misses == 0]
