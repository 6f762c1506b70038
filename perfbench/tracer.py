"""Span tracer that wraps cavtraj's public functions where their callers look them up.

Each wrapped call records a span (name, start, end, parent). Counters are
updated after the span closes, and their cost is taken out of the enclosing
spans, so counting does not inflate any layer's busy or self time. A name
that no longer exists is skipped: its span is absent, nothing crashes.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

from cavtraj import detection, fusion, tracking, world_model
from cavtraj.errors import DegenerateGeometry
from cavtraj.pipeline import frames_io, scenario


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index, excluded seconds]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._alive: dict[int, set[int]] = {}      # id(tracker) -> track ids after its last step
        self._confirmed: dict[int, set[int]] = {}  # id(tracker) -> track ids ever returned confirmed
        self.names: list[str] = []               # every span name install() asks for
        self.absent: list[str] = []              # wrapped names that no longer exist
        self.counter_errors: set[str] = set()    # spans whose counters could not be read

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace owner.attr by a recording wrapper; on_call(counts, args, result, exc) counts work."""
        if name not in self.names:
            self.names.append(name)
        orig = getattr(owner, attr, None)
        if orig is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, 0.0])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self._close(idx, on_call, args, None, exc)
                raise
            self._close(idx, on_call, args, result, None)
            return result

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _close(self, idx, on_call, args, result, exc) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if on_call is None:
            return
        t0 = time.perf_counter()
        try:
            on_call(self.counts, args, result, exc)
        except (LookupError, AttributeError, TypeError):
            # the layer's signature or return type changed; its counters go missing
            self.counter_errors.add(self.spans[idx][0])
        spent = time.perf_counter() - t0
        for open_idx in self._stack:
            self.spans[open_idx][4] += spent

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def install(self) -> None:
        w = self.wrap
        w(detection, "detect_objects", "detection.detect_objects")
        w(detection, "bev_grid_features", "detection.bev_grid_features", _count_bev)
        w(detection, "cluster_points", "detection.cluster_points", _count_clusters)
        w(detection, "fit_bounding_box", "detection.fit_bounding_box", _count_boxfit)
        w(detection, "convex_hull", "detection.convex_hull")
        w(detection, "min_area_rect", "detection.min_area_rect")
        w(fusion, "sync_sets", "fusion.sync_sets", _count_sync)
        w(fusion, "late_fuse", "fusion.late_fuse", _count_fuse)
        w(fusion, "project_box", "fusion.project_box")
        w(fusion, "iou_bev", "fusion.iou_bev", _count_iou)
        w(tracking.MultiObjectTracker, "step", "tracking.step", self._count_step)
        w(tracking, "associate", "tracking.associate")
        w(tracking, "kf_predict", "tracking.kf_predict")
        w(tracking, "kf_update", "tracking.kf_update")
        w(world_model, "filter_on_road", "world_model.filter_on_road")
        w(world_model.VectorMap, "to_frenet", "world_model.to_frenet", _count_frenet)
        w(world_model, "load_vector_map", "world_model.load_vector_map")
        w(world_model, "vector_map_from_dict", "world_model.vector_map_from_dict", _count_map)
        # write_scenario resolves the writers in its own module namespace
        w(scenario, "write_scenario", "scenario.write_scenario")
        w(scenario, "write_frame_csv", "frames_io.write_frame_csv", _count_write)
        w(scenario, "write_pose_csv", "frames_io.write_pose_csv", _count_write)
        w(frames_io, "read_frame_dir", "frames_io.read_frame_dir")
        w(frames_io, "read_frame_csv", "frames_io.read_frame_csv", _count_read_frame)
        w(frames_io, "read_pose_csv", "frames_io.read_pose_csv", _count_read_pose)

    def _count_step(self, counts, args, result, exc):
        if exc is not None:
            return
        tracker = args[0]
        alive = {t.track_id for t in tracker.tracks}
        before = self._alive.get(id(tracker), set())
        self._alive[id(tracker)] = alive
        counts["tracking.tracks_born"] += len(alive - before)
        counts["tracking.tracks_dropped"] += len(before - alive)
        counts["tracking.tracks_alive_max"] = max(counts["tracking.tracks_alive_max"], len(alive))
        confirmed = self._confirmed.setdefault(id(tracker), set())
        new = {t.track_id for t in result} - confirmed
        confirmed |= new
        counts["tracking.tracks_confirmed"] += len(new)

    # -- aggregation -----------------------------------------------------------

    def net_s(self, idx: int) -> float:
        _, start, end, _, excluded = self.spans[idx]
        return end - start - excluded

    def _child_s(self) -> dict[int, float]:
        child_s = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                child_s[span[3]] += self.net_s(idx)
        return child_s

    def self_times(self) -> dict[str, float]:
        """Per span name: total self time (duration minus child spans)."""
        child_s = self._child_s()
        out = defaultdict(float)
        for idx, span in enumerate(self.spans):
            out[span[0]] += self.net_s(idx) - child_s[idx]
        return dict(out)

    def busy_s(self, *names: str) -> float:
        """Time inside any of `names`, counting nested calls among them once."""
        group = set(names)
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] not in group:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] not in group:
                parent = self.spans[parent][3]
            if parent is None:
                total += self.net_s(idx)
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write_jsonl(self, path) -> None:
        """Write every span with its self time, one JSON object per line."""
        child_s = self._child_s()
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                net = self.net_s(idx)
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                    "self_s": round(net - child_s[idx], 9),
                }) + "\n")


def _count_bev(counts, args, result, exc):
    if exc is not None:
        return
    frame, config = args[0], args[1]
    counts["detection.bev.calls"] += 1
    counts["detection.bev.points_in"] += len(frame.points)
    # occupied cells from the input, independent of the grid representation
    n = int(round(2 * config.extent / config.cell_size))
    idx = np.floor((frame.points[:, :2] + config.extent) / config.cell_size).astype(np.int64)
    idx = idx[np.all((idx >= 0) & (idx < n), axis=1)]
    counts["detection.bev.occupied_cells"] += len(np.unique(idx[:, 0] * n + idx[:, 1]))


def _count_clusters(counts, args, result, exc):
    if exc is not None:
        return
    sizes = [len(c) for c in result]
    counts["detection.cluster.clusters"] += len(sizes)
    counts["detection.cluster.points"] += sum(sizes)
    counts["detection.cluster.max_points"] = max([counts["detection.cluster.max_points"], *sizes])


def _count_boxfit(counts, args, result, exc):
    if exc is None:
        counts["detection.boxfit.boxes"] += 1
    elif isinstance(exc, DegenerateGeometry):
        counts["detection.boxfit.degenerate"] += 1


def _count_sync(counts, args, result, exc):
    if exc is None:
        counts["fusion.sync.groups"] += len(result)


def _count_fuse(counts, args, result, exc):
    if exc is not None:
        return
    counts["fusion.fuse.boxes_in"] += sum(len(ds.boxes) for ds in args[0])
    counts["fusion.fuse.boxes_out"] += len(result.boxes)
    counts["fusion.fuse.cross_agent_merges"] += sum(len(p) - 1 for p in result.provenance)


def _count_iou(counts, args, result, exc):
    if exc is None:
        counts["fusion.iou.hits"] += int(result > 0.0)


def _count_frenet(counts, args, result, exc):
    if exc is None:
        counts["world_model.frenet.on_road" if result is not None else "world_model.frenet.off_road"] += 1


def _count_map(counts, args, result, exc):
    if exc is not None:
        return
    lanelets = args[0]["lanelets"]
    counts["world_model.map_load.lanelets"] = len(lanelets)
    counts["world_model.map_load.segments"] = sum(len(ll["centerline"]) - 1 for ll in lanelets)


def _count_write(counts, args, result, exc):
    if exc is None:
        counts["frames_io.write.bytes"] += os.path.getsize(args[0])


def _count_read_frame(counts, args, result, exc):
    if exc is None:
        counts["frames_io.read.bytes"] += os.path.getsize(args[0])
        counts["frames_io.read.rows"] += len(result)


def _count_read_pose(counts, args, result, exc):
    if exc is None:
        counts["frames_io.read.bytes"] += os.path.getsize(args[0])
        counts["frames_io.read.rows"] += len(result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, counts and ratios, then the self time of every span name."""
    c, busy = tr.counts, tr.busy_s
    iou_calls = tr.calls("fusion.iou_bev")
    frenet_s, frenet_q = busy("world_model.to_frenet"), tr.calls("world_model.to_frenet")
    m = {
        "detection.bev.busy_s": (busy("detection.bev_grid_features"), "s"),
        "detection.bev.calls": (c["detection.bev.calls"], "count"),
        "detection.bev.points_in": (c["detection.bev.points_in"], "count"),
        "detection.bev.occupied_cells": (c["detection.bev.occupied_cells"], "count"),
        "detection.cluster.busy_s": (busy("detection.cluster_points"), "s"),
        "detection.cluster.clusters": (c["detection.cluster.clusters"], "count"),
        "detection.cluster.points": (c["detection.cluster.points"], "count"),
        "detection.cluster.max_points": (c["detection.cluster.max_points"], "count"),
        "detection.boxfit.busy_s": (busy("detection.fit_bounding_box"), "s"),
        "detection.boxfit.boxes": (c["detection.boxfit.boxes"], "count"),
        "detection.boxfit.degenerate": (c["detection.boxfit.degenerate"], "count"),
        "detection.boxes_per_cluster": (
            _ratio(c["detection.boxfit.boxes"], c["detection.cluster.clusters"]), "ratio"),
        "fusion.sync.busy_s": (busy("fusion.sync_sets"), "s"),
        "fusion.sync.groups": (c["fusion.sync.groups"], "count"),
        "fusion.fuse.busy_s": (busy("fusion.late_fuse"), "s"),
        "fusion.fuse.boxes_in": (c["fusion.fuse.boxes_in"], "count"),
        "fusion.fuse.boxes_out": (c["fusion.fuse.boxes_out"], "count"),
        "fusion.fuse.cross_agent_merges": (c["fusion.fuse.cross_agent_merges"], "count"),
        "fusion.iou.calls": (iou_calls, "count"),
        "fusion.iou.busy_s": (busy("fusion.iou_bev"), "s"),
        "fusion.iou.hit_ratio": (_ratio(c["fusion.iou.hits"], iou_calls), "ratio"),
        "tracking.step.busy_s": (busy("tracking.step"), "s"),
        "tracking.associate.busy_s": (busy("tracking.associate"), "s"),
        "tracking.kf.busy_s": (busy("tracking.kf_predict", "tracking.kf_update"), "s"),
        "tracking.tracks_born": (c["tracking.tracks_born"], "count"),
        "tracking.tracks_confirmed": (c["tracking.tracks_confirmed"], "count"),
        "tracking.tracks_dropped": (c["tracking.tracks_dropped"], "count"),
        "tracking.tracks_alive_max": (c["tracking.tracks_alive_max"], "count"),
        "world_model.map_load.busy_s": (
            busy("world_model.load_vector_map", "world_model.vector_map_from_dict"), "s"),
        "world_model.map_load.lanelets": (c["world_model.map_load.lanelets"], "count"),
        "world_model.map_load.segments": (c["world_model.map_load.segments"], "count"),
        "world_model.frenet.busy_s": (frenet_s, "s"),
        "world_model.frenet.queries": (frenet_q, "count"),
        "world_model.frenet.on_road": (c["world_model.frenet.on_road"], "count"),
        "world_model.frenet.off_road": (c["world_model.frenet.off_road"], "count"),
        "world_model.frenet.us_per_query": (_ratio(frenet_s * 1e6, frenet_q), "us"),
        "frames_io.write.busy_s": (busy("frames_io.write_frame_csv", "frames_io.write_pose_csv"), "s"),
        "frames_io.write.bytes": (c["frames_io.write.bytes"], "bytes"),
        "frames_io.read.busy_s": (
            busy("frames_io.read_frame_dir", "frames_io.read_frame_csv", "frames_io.read_pose_csv"), "s"),
        "frames_io.read.bytes": (c["frames_io.read.bytes"], "bytes"),
        "frames_io.read.rows": (c["frames_io.read.rows"], "count"),
    }
    self_s = tr.self_times()
    for name in tr.names:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    return m
