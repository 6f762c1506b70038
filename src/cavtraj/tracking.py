"""Kalman-filter multi-object tracker over fused detections.

x, y and z run identical constant-acceleration filters over [position,
velocity, acceleration] that never couple, so one (3, 3) covariance serves
all three axes; the heading is a scalar random walk. Box dimensions are
EMA-smoothed. Detections are associated to predicted track positions with
the Hungarian algorithm under a Euclidean gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .detection import OrientedBox
from .errors import InvalidArgument
from .fusion import FusedFrame
from .geometry import wrap_angle


@dataclass
class TrackingConfig:
    q_pos: float = 0.1          # process noise per nominal step, position (m)
    q_vel: float = 0.5          # velocity (m/s)
    q_acc: float = 0.5          # acceleration (m/s^2)
    q_heading: float = 0.1      # heading (rad)
    r_pos: float = 0.3          # measurement noise, box center (m)
    r_heading: float = 0.15     # measurement noise, box heading (rad)
    nominal_dt: float = 0.1     # step the q_* values are quoted for (s)
    association_gate: float = 4.0
    confirm_hits: int = 3
    max_age: int = 5
    dim_ema: float = 0.3
    init_vel_sigma: float = 10.0
    init_acc_sigma: float = 3.0


@dataclass
class Track:
    """One tracked object; box dims are EMA-smoothed.

    `state` rows are x, y, z and its columns position, velocity, acceleration;
    `covariance` is the (3, 3) [p, v, a] covariance shared by the three axes.
    """

    track_id: int
    state: np.ndarray
    covariance: np.ndarray
    heading: float
    heading_var: float
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
    def speed(self) -> float:
        return float(np.hypot(self.state[0, 1], self.state[1, 1]))


def kf_predict(track: Track, dt: float, config: TrackingConfig) -> None:
    """Advance a track in place by dt with the constant-acceleration model."""
    if dt <= 0.0 or not math.isfinite(dt):
        raise InvalidArgument(f"dt must be positive, got {dt}")
    scale = dt / config.nominal_dt
    f = np.array([[1.0, dt, 0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    track.state = track.state @ f.T
    cov = f @ track.covariance @ f.T + np.diag([config.q_pos**2, config.q_vel**2, config.q_acc**2]) * scale
    track.covariance = 0.5 * (cov + cov.T)
    track.heading_var += config.q_heading**2 * scale


def _aligned_heading(measured: float, predicted: float) -> float:
    """Resolve the pi ambiguity of a fitted box heading against the track."""
    candidates = (measured, measured + math.pi, measured - math.pi)
    return min(candidates, key=lambda h: abs(wrap_angle(h - predicted)))


def kf_update(track: Track, box: OrientedBox, config: TrackingConfig) -> None:
    """Measurement update in place with the detected box center and heading.

    Each axis measures only its position, so the innovation is a scalar per
    axis and every axis shares the gain P[:, 0] / (P[0, 0] + r_pos^2).
    """
    p, r = track.covariance, config.r_pos**2
    gain = p[:, 0] / (p[0, 0] + r)
    innovation = np.array([box.x, box.y, box.z]) - track.position
    track.state = track.state + np.outer(innovation, gain)
    ikh = np.eye(3)
    ikh[:, 0] -= gain
    cov = ikh @ p @ ikh.T + r * np.outer(gain, gain)  # Joseph form
    track.covariance = 0.5 * (cov + cov.T)

    r_h = config.r_heading**2
    k = track.heading_var / (track.heading_var + r_h)
    innovation_h = wrap_angle(_aligned_heading(box.heading, track.heading) - track.heading)
    track.heading = wrap_angle(track.heading + k * innovation_h)
    track.heading_var = (1 - k) ** 2 * track.heading_var + k * k * r_h

    beta = config.dim_ema
    track.length = (1 - beta) * track.length + beta * box.length
    track.width = (1 - beta) * track.width + beta * box.width
    track.height = (1 - beta) * track.height + beta * box.height
    track.hits += 1
    track.misses = 0


@dataclass
class Assignment:
    pairs: list[tuple[int, int]]
    unmatched_tracks: list[int]
    unmatched_detections: list[int]


def associate(tracks: list[Track], detections: list[OrientedBox], gate: float) -> Assignment:
    """Hungarian assignment on Euclidean distance, gated at `gate` meters."""
    if gate <= 0.0:
        raise InvalidArgument("gate must be positive")
    if not tracks or not detections:
        return Assignment([], list(range(len(tracks))), list(range(len(detections))))

    track_pos = np.array([t.position for t in tracks])
    det_pos = np.array([[d.x, d.y, d.z] for d in detections])
    cost = np.linalg.norm(track_pos[:, None, :] - det_pos[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)

    pairs = []
    unmatched_t = set(range(len(tracks)))
    unmatched_d = set(range(len(detections)))
    for i, j in zip(rows, cols):
        if cost[i, j] <= gate:
            pairs.append((int(i), int(j)))
            unmatched_t.discard(int(i))
            unmatched_d.discard(int(j))
    return Assignment(pairs, sorted(unmatched_t), sorted(unmatched_d))


class MultiObjectTracker:
    """Tracker state machine: predict, associate, update, manage lifecycles."""

    def __init__(self, config: TrackingConfig | None = None):
        self.config = config or TrackingConfig()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_timestamp: float | None = None

    def _new_track(self, box: OrientedBox) -> Track:
        c = self.config
        state = np.zeros((3, 3))
        state[:, 0] = [box.x, box.y, box.z]
        track = Track(
            track_id=self._next_id,
            state=state,
            covariance=np.diag([c.r_pos**2, c.init_vel_sigma**2, c.init_acc_sigma**2]),
            heading=box.heading,
            heading_var=c.r_heading**2 * 4,
            length=box.length,
            width=box.width,
            height=box.height,
        )
        self._next_id += 1
        return track

    def step(self, frame: FusedFrame) -> list[Track]:
        """Process one fused frame; returns the confirmed tracks seen in it."""
        c = self.config
        if self._last_timestamp is not None and frame.timestamp <= self._last_timestamp:
            raise InvalidArgument(
                f"frame timestamps must increase: {frame.timestamp} after {self._last_timestamp}"
            )

        if self._last_timestamp is not None:
            dt = frame.timestamp - self._last_timestamp
            for track in self.tracks:
                kf_predict(track, dt, c)

        assignment = associate(self.tracks, frame.boxes, c.association_gate)
        for ti, di in assignment.pairs:
            kf_update(self.tracks[ti], frame.boxes[di], c)

        for ti in assignment.unmatched_tracks:
            self.tracks[ti].misses += 1
        self.tracks = [t for t in self.tracks if t.misses <= c.max_age]

        for di in assignment.unmatched_detections:
            self.tracks.append(self._new_track(frame.boxes[di]))

        self._last_timestamp = frame.timestamp
        return [t for t in self.tracks if t.hits >= c.confirm_hits and t.misses == 0]
