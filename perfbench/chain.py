"""One pass of the cavtraj chain over a scenario, with per-step timing.

Every layer is reached through its module attribute at call time
(``detection.detect_objects``, ``fusion.late_fuse``, ...), so the tracer can
wrap those names without this module knowing about it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cavtraj import detection, fusion, tracking, world_model
from cavtraj.errors import CavtrajError
from cavtraj.pipeline import frames_io

SYNC_TOLERANCE_S = 0.05  # half the 10 Hz frame period

# The probe's time in the fastest phase seen on the machine the bounds were set on
# (2 vCPUs on a shared host), so reference times read about as wall times there.
PROBE_REF_S = 1.8e-3
_PROBE_DATA = np.random.default_rng(0).random(50_000)
_PROBE_WINDOW = 5


def probe_s() -> float:
    """Wall time of a fixed CPU probe: a Python loop plus a NumPy sort."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.sort(_PROBE_DATA)
    return time.perf_counter() - t0


class RefClock:
    """Wall-clock intervals, each also scaled to reference speed by a probe timed after it.

    The host has busy phases that last seconds to minutes and slow the chain
    and the probe alike by up to about 1.4x. An interval's reference time is
    its wall time times PROBE_REF_S over the median of the nearest probes,
    which stays steady across phases.
    """

    def __init__(self):
        self.wall: list[float] = []      # interval wall seconds
        self.after: list[int] = []       # index of the probe that follows each interval
        self.probes: list[float] = []

    def lap(self, t0: float) -> int:
        """Record the interval from t0 to now; returns its index."""
        self.wall.append(time.perf_counter() - t0)
        self.after.append(len(self.probes))
        return len(self.wall) - 1

    def probe(self) -> None:
        self.probes.append(probe_s())

    def ref(self, i: int) -> float:
        k = min(self.after[i], len(self.probes) - 1)
        lo = max(0, k - _PROBE_WINDOW // 2)
        return self.wall[i] * PROBE_REF_S / float(np.median(self.probes[lo:lo + _PROBE_WINDOW]))


@dataclass
class Source:
    """Where a pass gets its frames and poses: memory, or files written by write_scenario."""

    frames: dict[int, list] | None = None               # agent id -> PointCloudFrame list
    poses: dict[int, list[frames_io.PoseSample]] | None = None
    directory: Path | None = None
    agent_ids: tuple[int, ...] = ()

    def load(self):
        if self.directory is None:
            return self.frames, self.poses
        frames, poses = {}, {}
        for aid in self.agent_ids:
            agent_dir = self.directory / "agents" / f"agent_{aid}"
            frames[aid] = frames_io.read_frame_dir(agent_dir / "frames", aid)
            poses[aid] = frames_io.read_pose_csv(agent_dir / "poses.csv")
        return frames, poses


@dataclass
class PassResult:
    rows: list[tuple] = field(default_factory=list)   # GROUND_TRUTH_HEADER order
    step_s: list[float] = field(default_factory=list)       # wall
    step_ref_s: list[float] = field(default_factory=list)   # reference speed, see RefClock
    frames: int = 0
    points: int = 0
    run_s: float = 0.0          # wall, probes excluded
    run_ref_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def digest(self) -> str:
        return hashlib.sha256(repr(self.rows).encode()).hexdigest()


def new_tracker():
    return tracking.MultiObjectTracker(tracking.TrackingConfig())


def setup(map_source):
    """Map load plus tracker and config construction; map_source is a dict or a path."""
    if isinstance(map_source, dict):
        vmap = world_model.vector_map_from_dict(map_source)
    else:
        vmap = world_model.load_vector_map(map_source)
    return vmap, new_tracker(), detection.DetectionConfig()


def _trajectory_rows(kept, fused) -> list[tuple]:
    """Rows in GROUND_TRUTH_HEADER order; visible_to is the nearest fused box's provenance."""
    if not kept:
        return []
    centers = np.array([[b.x, b.y] for b in fused.boxes]).reshape(-1, 2)
    rows = []
    for track, fc in kept:
        x, y = float(track.position[0]), float(track.position[1])
        vx, vy = float(track.velocity[0]), float(track.velocity[1])
        speed = math.hypot(vx, vy)
        ax, ay = float(track.acceleration[0]), float(track.acceleration[1])
        accel = (ax * vx + ay * vy) / speed if speed > 0 else 0.0
        if len(centers):
            k = int(np.argmin(np.hypot(centers[:, 0] - x, centers[:, 1] - y)))
            visible_to = tuple(fused.provenance[k])
        else:
            visible_to = ()
        rows.append((
            track.track_id, fused.timestamp, x, y, track.heading, speed, accel,
            float(fc.downtrack), int(fc.lane_id), int(fc.lanelet_id),
            float(track.length), float(track.width), float(track.height), visible_to,
        ))
    return rows


def run_pass(source: Source, vmap, tracker, det_config) -> PassResult:
    """Frames -> detection -> sync -> fuse -> track -> Frenet -> trajectory rows.

    A frame or step that raises a CavtrajError is counted as failed and
    skipped. run_s spans from reading the first frame to the last row, less
    the probes that RefClock runs between intervals.
    """
    out = PassResult()
    clock = RefClock()
    t0 = time.perf_counter()
    frames, poses = source.load()
    clock.lap(t0)
    clock.probe()

    streams, detect_lap, step_laps = {}, {}, []
    for aid in sorted(frames):
        streams[aid] = []
        for frame in frames[aid]:
            out.attempted += 1
            out.frames += 1
            out.points += len(frame)
            t0 = time.perf_counter()
            try:
                boxes = detection.detect_objects(frame, det_config)
            except CavtrajError:
                boxes = None
                out.failed += 1
            lap = clock.lap(t0)
            clock.probe()
            if boxes is not None:
                ds = fusion.DetectionSet(frame.timestamp, aid, boxes)
                detect_lap[id(ds)] = lap
                streams[aid].append(ds)

    t0 = time.perf_counter()
    groups = fusion.sync_sets(streams, SYNC_TOLERANCE_S)
    clock.lap(t0)
    clock.probe()

    for group in groups:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            transforms = {ds.agent_id: frames_io.pose_at(poses[ds.agent_id], ds.timestamp) for ds in group}
            fused = fusion.late_fuse(group, transforms)
            kept = world_model.filter_on_road(tracker.step(fused), vmap)
        except CavtrajError:
            out.failed += 1
            clock.lap(t0)
            clock.probe()
            continue
        step_lap = clock.lap(t0)
        t0 = time.perf_counter()
        out.rows.extend(_trajectory_rows(kept, fused))
        clock.lap(t0)
        clock.probe()
        step_laps.append([step_lap] + [detect_lap[id(ds)] for ds in group])

    # resolved only now, so that every interval has the probes on both sides of it
    out.step_s = [sum(clock.wall[i] for i in laps) for laps in step_laps]
    out.step_ref_s = [sum(clock.ref(i) for i in laps) for laps in step_laps]
    out.run_s = sum(clock.wall)
    out.run_ref_s = sum(clock.ref(i) for i in range(len(clock.wall)))
    return out


def check_rows(rows: list[tuple], lane_of_lanelet: dict[int, int]) -> list[str]:
    """Problems with trajectory rows: non-finite values, unknown or mismatched lanes, time order."""
    problems = []
    last_time: dict[int, float] = {}
    for row in rows:
        tid, t = row[0], row[1]
        if not all(math.isfinite(v) for v in row[1:13]):
            problems.append(f"track {tid} t={t}: non-finite value")
        lane_id, lanelet_id = row[8], row[9]
        if lanelet_id not in lane_of_lanelet:
            problems.append(f"track {tid} t={t}: unknown lanelet {lanelet_id}")
        elif lane_of_lanelet[lanelet_id] != lane_id:
            problems.append(f"track {tid} t={t}: lanelet {lanelet_id} is not in lane {lane_id}")
        if tid in last_time and not t > last_time[tid]:
            problems.append(f"track {tid}: time {t} does not follow {last_time[tid]}")
        last_time[tid] = t
    return problems
