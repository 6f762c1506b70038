"""Deterministic synthetic scenario generator.

Builds a road (straight or circular arc), drives agent vehicles and
surrounding vehicles (SVs) along lane centerlines, and renders LiDAR-style
frames per agent: vehicle hulls sampled with range-dependent density,
ground returns, and optional roadside poles and walls. All randomness goes
through one seeded generator, so a spec produces byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field, fields
from numbers import Integral
from pathlib import Path

import numpy as np

from ..detection import PointCloudFrame
from ..errors import InvalidArgument, ValidationError, check_number
from ..geometry import RigidTransform, wrap_angle
from .frames_io import PoseSample, write_frame_dir, write_pose_csv

_LANELET_CHUNK = 50.0  # m, lane split into lanelets of roughly this length


@dataclass
class RoadSpec:
    kind: str = "straight"          # "straight" or "arc"
    length: float = 300.0           # straight only
    radius: float = 200.0           # arc only, reference centerline radius
    arc_angle_deg: float = 90.0     # arc only
    n_lanes: int = 1
    lane_width: float = 3.7
    sample_step: float = 2.0        # polyline sampling step (arc uses min(step, 0.5))

    def __post_init__(self):
        if self.kind not in ("straight", "arc"):
            raise ValidationError(f"unknown road kind {self.kind!r}")
        check_number(self.n_lanes, "RoadSpec.n_lanes", least=1, integer=True, error=ValidationError)
        for name in ("length", "radius", "arc_angle_deg", "lane_width", "sample_step"):
            check_number(getattr(self, name), f"RoadSpec.{name}", positive=True, error=ValidationError)
        if self.kind == "arc" and self.radius <= self.half_width:
            raise ValidationError(f"arc radius {self.radius} must exceed the road's half width {self.half_width}")

    def lane_offset(self, lane: int) -> float:
        """Right-positive lateral offset of a lane center; lane 1 is leftmost."""
        if not 1 <= lane <= self.n_lanes:
            raise ValidationError(f"lane {lane} outside 1..{self.n_lanes}")
        return (lane - (self.n_lanes + 1) / 2.0) * self.lane_width

    def lane_length(self, lane: int) -> float:
        if self.kind == "straight":
            return self.length
        return (self.radius + self.lane_offset(lane)) * math.radians(self.arc_angle_deg)

    def point_at(self, s_lane: float, lane: int) -> tuple[float, float, float]:
        """(x, y, heading) of a lane center at arc length s_lane along that lane."""
        offset = self.lane_offset(lane)
        if self.kind == "straight":
            x, y = self.offset_point(s_lane, offset)
            return x, y, 0.0
        radius_lane = self.radius + offset
        theta = s_lane / radius_lane
        x = radius_lane * math.sin(theta)
        y = self.radius - radius_lane * math.cos(theta)
        return x, y, theta

    def offset_point(self, s_road: float, offset: float) -> tuple[float, float]:
        """(x, y) at a right-positive lateral offset from the road reference line."""
        if self.kind == "straight":
            x, y, heading = s_road, 0.0, 0.0
        else:
            heading = s_road / self.radius
            x, y = self.radius * math.sin(heading), self.radius * (1 - math.cos(heading))
        return x + offset * math.sin(heading), y - offset * math.cos(heading)

    @property
    def road_length(self) -> float:
        if self.kind == "straight":
            return self.length
        return self.radius * math.radians(self.arc_angle_deg)

    @property
    def half_width(self) -> float:
        return self.n_lanes * self.lane_width / 2.0


def _lanelet_bounds(road: RoadSpec, lane: int) -> np.ndarray:
    """Arc-length bounds of a lane's lanelets, equal chunks of at most _LANELET_CHUNK."""
    lane_len = road.lane_length(lane)
    n_chunks = max(1, int(math.ceil(lane_len / _LANELET_CHUNK - 1e-9)))
    return np.linspace(0.0, lane_len, n_chunks + 1)


def build_vector_map_dict(road: RoadSpec, name: str = "road") -> dict:
    """Vector map JSON content for a RoadSpec (lanelet chains per lane)."""
    step = road.sample_step if road.kind == "straight" else min(road.sample_step, 0.5)
    lanelets = []
    for lane in range(1, road.n_lanes + 1):
        offset = road.lane_offset(lane)
        bounds = _lanelet_bounds(road, lane)
        n_chunks = len(bounds) - 1
        for k in range(n_chunks):
            s0, s1 = bounds[k], bounds[k + 1]
            n_pts = max(2, int(math.ceil((s1 - s0) / step)) + 1)
            s_road = np.linspace(s0, s1, n_pts)
            if road.kind == "arc":
                s_road = s_road * road.radius / (road.radius + offset)

            def polyline(lat_offset):
                return [[float(x), float(y), 0.0] for x, y in (road.offset_point(s, lat_offset) for s in s_road)]

            lanelet_id = lane * 100 + k
            entry = {
                "lanelet_id": lanelet_id,
                "lane_id": lane,
                "centerline": polyline(offset),
                "left_boundary": polyline(offset - road.lane_width / 2.0),
                "right_boundary": polyline(offset + road.lane_width / 2.0),
                "successors": [lane * 100 + k + 1] if k + 1 < n_chunks else [],
                "predecessors": [lane * 100 + k - 1] if k > 0 else [],
            }
            lanelets.append(entry)
    return {"name": name, "lanelets": lanelets}


@dataclass
class VehicleSpec:
    vehicle_id: int
    lane: int
    start_s: float
    speed: float
    accel: float = 0.0
    length: float = 4.6
    width: float = 1.8
    height: float = 1.6

    def __post_init__(self):
        check_number(self.vehicle_id, "VehicleSpec.vehicle_id", integer=True, error=ValidationError)
        for name in ("start_s", "speed", "accel"):
            check_number(getattr(self, name), f"VehicleSpec.{name}", error=ValidationError)
        for name in ("length", "width", "height"):
            check_number(getattr(self, name), f"VehicleSpec.{name}", positive=True, error=ValidationError)

    def s_at(self, t: float) -> float:
        return self.start_s + self.speed * t + 0.5 * self.accel * t * t

    def speed_at(self, t: float) -> float:
        return self.speed + self.accel * t


@dataclass
class SensorSpec:
    range: float = 50.0             # m, hard detection cutoff (40-60 m regime)
    noise_sigma: float = 0.02       # m, per-coordinate Gaussian noise
    base_spacing: float = 0.15      # m, hull sample spacing at reference range
    reference_range: float = 10.0   # m
    min_hull_z: float = 0.4         # hull points start above the ground gate

    def __post_init__(self):
        for name in ("range", "base_spacing", "reference_range"):
            check_number(getattr(self, name), f"SensorSpec.{name}", positive=True, error=ValidationError)
        for name in ("noise_sigma", "min_hull_z"):
            check_number(getattr(self, name), f"SensorSpec.{name}", least=0, error=ValidationError)

    def spacing_at(self, distance: float) -> float:
        """Hull sample spacing; density falls off as 1/distance^2."""
        return self.base_spacing * max(distance, 1.0) / self.reference_range


@dataclass
class DropoutWindow:
    sv_id: int
    t_start: float
    t_end: float

    def __post_init__(self):
        check_number(self.sv_id, "DropoutWindow.sv_id", integer=True, error=ValidationError)
        for name in ("t_start", "t_end"):
            check_number(getattr(self, name), f"DropoutWindow.{name}", least=0, error=ValidationError)
        if not self.t_start < self.t_end:
            raise ValidationError(f"dropout of SV {self.sv_id} is empty or reversed: {self.t_start}..{self.t_end}")


@dataclass
class ScenarioSpec:
    name: str = "scenario"
    duration: float = 10.0
    dt: float = 0.1
    seed: int = 0
    road: RoadSpec = field(default_factory=RoadSpec)
    agents: list[VehicleSpec] = field(default_factory=list)
    svs: list[VehicleSpec] = field(default_factory=list)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    dropouts: list[DropoutWindow] = field(default_factory=list)
    ground_spacing: float = 2.5     # m lattice of road-surface returns; 0 disables
    poles: bool = True              # roadside poles every 20 m
    walls: bool = False             # sound barriers (useful for scan matching)

    def validate(self):
        for name in ("duration", "dt"):
            check_number(getattr(self, name), f"ScenarioSpec.{name}", positive=True, error=ValidationError)
        check_number(self.ground_spacing, "ScenarioSpec.ground_spacing", least=0, error=ValidationError)
        check_number(self.seed, "ScenarioSpec.seed", least=0, integer=True, error=ValidationError)
        if not self.agents:
            raise ValidationError("scenario needs at least one agent")
        ids = [a.vehicle_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate agent ids")
        sv_ids = [s.vehicle_id for s in self.svs]
        if len(set(sv_ids)) != len(sv_ids):
            raise ValidationError("duplicate sv ids")
        if shared := sorted(set(ids) & set(sv_ids)):
            raise ValidationError(f"ids of both an agent and an SV: {shared}")
        for d in self.dropouts:
            if d.sv_id not in sv_ids:
                raise ValidationError(f"dropout names no SV: {d.sv_id!r}")
        for v in list(self.agents) + list(self.svs):
            check_number(v.lane, f"vehicle {v.vehicle_id} lane", integer=True, error=ValidationError)
            # s(t) is a parabola: a vehicle that turns round between the ends goes farthest there
            times = [0.0, self.duration]
            if v.accel and 0.0 < -v.speed / v.accel < self.duration:
                times.append(-v.speed / v.accel)
            for t in times:
                s = v.s_at(t)
                if not -1e-6 <= s <= self.road.lane_length(v.lane) + 1e-6:
                    raise ValidationError(
                        f"vehicle {v.vehicle_id} leaves the road at t={t:.1f}s (s={s:.1f})"
                    )


@dataclass
class GroundTruthRow:
    sv_id: int
    time: float
    x: float
    y: float
    heading: float
    speed: float
    accel: float
    downtrack: float
    lane_id: int
    lanelet_id: int
    length: float
    width: float
    height: float
    visible_to: tuple[int, ...]


@dataclass
class ScenarioData:
    vector_map: dict
    poses: dict[int, list[PoseSample]]
    frames: dict[int, list[PointCloudFrame]]
    ground_truth: list[GroundTruthRow]


def _hull_points(center_xy, heading, v: VehicleSpec, spacing, min_z) -> np.ndarray:
    """Sample the four side walls and roof of a vehicle box hull."""
    half_l, half_w = v.length / 2.0, v.width / 2.0
    n_l = max(2, int(round(v.length / spacing)) + 1)
    n_w = max(2, int(round(v.width / spacing)) + 1)
    n_z = max(2, int(round((v.height - min_z) / spacing)) + 1)
    ls = np.linspace(-half_l, half_l, n_l)
    ws = np.linspace(-half_w, half_w, n_w)
    zs = np.linspace(min_z, v.height, n_z)

    # (u, v, z) per face, in the order the noise is drawn: long sides u-major, ends v-major, then the roof
    side = np.meshgrid(ls, [-half_w, half_w], zs, indexing="ij")
    end_v, end_u, end_z = np.meshgrid(ws, [-half_l, half_l], zs, indexing="ij")
    roof = np.meshgrid(ls, ws, [v.height], indexing="ij")
    local = np.vstack([np.stack(face, axis=-1).reshape(-1, 3) for face in (side, (end_u, end_v, end_z), roof)])
    c, s = math.cos(heading), math.sin(heading)
    out = np.empty_like(local)
    out[:, 0] = center_xy[0] + local[:, 0] * c - local[:, 1] * s
    out[:, 1] = center_xy[1] + local[:, 0] * s + local[:, 1] * c
    out[:, 2] = local[:, 2]
    return out


def _static_world_points(spec: ScenarioSpec) -> np.ndarray:
    """Poles and walls on a fixed world lattice (stable across frames)."""
    road = spec.road
    pts = []
    margin = road.half_width + 2.0
    if spec.poles:
        for s_road in np.arange(10.0, road.road_length - 1e-6, 20.0):
            for side in (-margin, margin):
                x, y = road.offset_point(float(s_road), side)
                for z in np.arange(0.4, 4.0, 0.25):
                    pts.append([x, y, z])
                    pts.append([x + 0.08, y + 0.05, z])
    if spec.walls:
        wall_off = road.half_width + 5.0
        for s_road in np.arange(0.0, road.road_length - 1e-6, 0.4):
            for side in (-wall_off, wall_off):
                x, y = road.offset_point(float(s_road), side)
                for z in np.arange(0.4, 3.2, 0.4):
                    pts.append([x, y, z])
    return np.array(pts) if pts else np.zeros((0, 3))


def _ground_points_near(spec: ScenarioSpec, center_xy) -> np.ndarray:
    """Road-surface returns on a world-aligned lattice around an agent."""
    g = spec.ground_spacing
    if g <= 0:
        return np.zeros((0, 3))
    r = spec.sensor.range
    x0 = math.floor((center_xy[0] - r) / g) * g
    y0 = math.floor((center_xy[1] - r) / g) * g
    xs = np.arange(x0, center_xy[0] + r + g, g)
    ys = np.arange(y0, center_xy[1] + r + g, g)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.c_[gx.ravel(), gy.ravel(), np.zeros(gx.size)]
    keep = np.hypot(pts[:, 0] - center_xy[0], pts[:, 1] - center_xy[1]) <= r
    return pts[keep]


def _lanelet_of(road: RoadSpec, lane: int, s: float) -> int:
    # searching the interior bounds only keeps an s just outside the lane in its first or last lanelet
    return lane * 100 + int(np.searchsorted(_lanelet_bounds(road, lane)[1:-1], s, side="right"))


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    """Render all frames, poses, and ground truth for a scenario spec."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    road = spec.road
    sensor = spec.sensor
    statics = _static_world_points(spec)

    n_frames = int(round(spec.duration / spec.dt))
    times = [round(k * spec.dt, 6) for k in range(n_frames)]

    poses = {a.vehicle_id: [] for a in spec.agents}
    frames = {a.vehicle_id: [] for a in spec.agents}
    ground_truth = []

    agents = sorted(spec.agents, key=lambda a: a.vehicle_id)
    svs = sorted(spec.svs, key=lambda s: s.vehicle_id)

    for t in times:
        sv_states = {sv.vehicle_id: road.point_at(sv.s_at(t), sv.lane) for sv in svs}

        agent_states = {}
        for agent in agents:
            x, y, heading = road.point_at(agent.s_at(t), agent.lane)
            agent_states[agent.vehicle_id] = (x, y, heading)
            cos_h, sin_h = math.cos(heading), math.sin(heading)
            pose = RigidTransform([[cos_h, -sin_h, 0.0], [sin_h, cos_h, 0.0], [0.0, 0.0, 1.0]], (x, y, 0.0))
            poses[agent.vehicle_id].append(PoseSample(t, pose))

        visibility = {sv.vehicle_id: [] for sv in svs}
        for agent in agents:
            ax, ay, _ = agent_states[agent.vehicle_id]
            near = np.hypot(statics[:, 0] - ax, statics[:, 1] - ay) <= sensor.range
            world_pts = [_ground_points_near(spec, (ax, ay)), statics[near]]

            for sv in svs:
                if any(d.sv_id == sv.vehicle_id and d.t_start <= t < d.t_end for d in spec.dropouts):
                    continue
                sx, sy, sheading = sv_states[sv.vehicle_id]
                dist = math.hypot(sx - ax, sy - ay)
                if dist > sensor.range:
                    continue
                spacing = sensor.spacing_at(dist)
                hull = _hull_points((sx, sy), sheading, sv, spacing, sensor.min_hull_z)
                keep = np.hypot(hull[:, 0] - ax, hull[:, 1] - ay) <= sensor.range
                hull = hull[keep]
                if len(hull):
                    world_pts.append(hull)
                    visibility[sv.vehicle_id].append(agent.vehicle_id)

            # map -> agent frame, then sensor noise
            local = poses[agent.vehicle_id][-1].transform.inverse().apply(np.vstack(world_pts))
            if sensor.noise_sigma > 0 and len(local):
                local = local + rng.normal(0.0, sensor.noise_sigma, size=local.shape)
            frames[agent.vehicle_id].append(
                PointCloudFrame(timestamp=t, points=local, agent_id=agent.vehicle_id)
            )

        for sv in svs:
            seen = tuple(sorted(visibility[sv.vehicle_id]))
            if not seen:
                continue
            x, y, heading = sv_states[sv.vehicle_id]
            s = sv.s_at(t)
            ground_truth.append(
                GroundTruthRow(
                    sv_id=sv.vehicle_id,
                    time=t,
                    x=x,
                    y=y,
                    heading=wrap_angle(heading),
                    speed=sv.speed_at(t),
                    accel=sv.accel,
                    downtrack=s,
                    lane_id=sv.lane,
                    lanelet_id=_lanelet_of(road, sv.lane, s),
                    length=sv.length,
                    width=sv.width,
                    height=sv.height,
                    visible_to=seen,
                )
            )

    return ScenarioData(
        vector_map=build_vector_map_dict(road, name=spec.name),
        poses=poses,
        frames=frames,
        ground_truth=ground_truth,
    )


GROUND_TRUTH_HEADER = ",".join(f.name for f in fields(GroundTruthRow))


def write_scenario(data: ScenarioData, out_dir) -> Path:
    """Write map, ground truth, and per-agent frames and poses; the fixed layout is the format.

    out_dir/map.json, out_dir/ground_truth.csv, and per agent out_dir/agents/agent_<id>/poses.csv
    and the frame directory out_dir/agents/agent_<id>/frames/; no manifest lists them. An out_dir
    that exists and is not an empty directory raises InvalidArgument before anything is written.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise InvalidArgument(f"{out} is not a directory")
    if out.exists() and any(out.iterdir()):
        raise InvalidArgument(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)

    (out / "map.json").write_text(json.dumps(data.vector_map))

    for aid in sorted(data.frames):
        agent_dir = out / "agents" / f"agent_{aid}"
        write_frame_dir(agent_dir / "frames", data.frames[aid])
        write_pose_csv(agent_dir / "poses.csv", data.poses[aid])

    # integers as str and floats as their shortest round-trip repr, so the file parses back exactly
    with (out / "ground_truth.csv").open("w") as fh:
        fh.write(GROUND_TRUTH_HEADER + "\n")
        for row in data.ground_truth:
            *values, seen = astuple(row)
            cells = [str(v) if isinstance(v, Integral) else repr(float(v)) for v in values]
            fh.write(",".join(cells + [";".join(map(str, seen))]) + "\n")
    return out
