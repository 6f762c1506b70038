"""Timed and traced runs of the cavtraj chain; run.py is the command-line entry point."""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import chain
from cavtraj.pipeline import frames_io, scenario
from evaluate import Obs, evaluate
from tracer import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"  # temporary scenario directories and span files
SETUP_MIN_REPEATS, SETUP_MIN_S = 5, 3.0  # set-up repeats: at least this many and this long
TAIL_BEYOND = 10  # samples a tail percentile must leave above it

# every end-to-end metric, in report order: name -> unit
UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "write_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
    "mota": "ratio",
    "motp_m": "m",
    "id_switches": "count",
    "idf1": "ratio",
    "pos_rmse_m": "m",
    "speed_rmse_mps": "m/s",
    "track_id_ratio": "ratio",
}
# the subset BENCHMARK.json gates: defined on every workload, never 0, steady across seeds
GATED = ("setup_s", "frames_per_s", "step_ms_p50", "step_ms_tail", "peak_rss_mb", "idf1")


def _parse(argv):
    p = argparse.ArgumentParser(description="Benchmark of the cavtraj chain.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _tail(samples: list[float], per_pass: int) -> tuple[float, float]:
    """(percentile, value): the highest percentile one pass leaves TAIL_BEYOND samples above.

    Fixing it by the pass length keeps it the same however many passes a run makes.
    """
    q = max(per_pass - TAIL_BEYOND, 1) / per_pass
    return 100.0 * q, float(np.quantile(samples, q, method="inverted_cdf"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _source(workload, data, work_dir):
    """Where passes read frames and poses, and the map to load; on disk, write_scenario's layout."""
    if workload.from_disk:
        return chain.Source(directory=work_dir, agent_ids=tuple(sorted(data.frames))), work_dir / "map.json"
    poses = {aid: [frames_io.PoseSample(t, tf) for t, tf in samples] for aid, samples in data.poses.items()}
    return chain.Source(frames=data.frames, poses=poses), data.vector_map


def _write(data, work_dir) -> float:
    t0 = time.perf_counter()
    scenario.write_scenario(data, work_dir)
    return time.perf_counter() - t0


def _checks(passes, data) -> list[str]:
    lane_of = {ll["lanelet_id"]: ll["lane_id"] for ll in data.vector_map["lanelets"]}
    problems = chain.check_rows(passes[0].rows, lane_of)
    if not passes[0].rows:
        problems.append("the chain produced no trajectory rows")
    digests = {p.digest() for p in passes}
    if len(digests) > 1:
        problems.append(f"trajectory digests differ between passes of one seed: {sorted(digests)}")
    return problems


def _quality(rows, data) -> dict:
    truth = [Obs(r.sv_id, r.time, r.x, r.y, r.speed) for r in data.ground_truth]
    tracks = [Obs(r[0], r[1], r[2], r[3], r[5]) for r in rows]
    return evaluate(truth, tracks)


def _timed(source, map_source, seconds):
    """Set-up repeats, then whole passes; returns the passes and the end-to-end metrics.

    Each timing is a (reference, wall) pair; see chain.RefClock.
    """
    clock = chain.RefClock()
    t_setup = time.perf_counter()
    while len(clock.wall) < SETUP_MIN_REPEATS or time.perf_counter() - t_setup < SETUP_MIN_S:
        t0 = time.perf_counter()
        vmap, _, det_config = chain.setup(map_source)
        clock.lap(t0)
        clock.probe()

    passes = []
    t_begin = time.perf_counter()
    while True:
        passes.append(chain.run_pass(source, vmap, chain.new_tracker(), det_config))
        elapsed = time.perf_counter() - t_begin
        if elapsed + elapsed / len(passes) > seconds:
            break

    frames = sum(p.frames for p in passes)
    per_pass = len(passes[0].step_s)
    metrics, pct = {}, None
    for key, steps, run_s, setup_s in (
        ("ref", [s for p in passes for s in p.step_ref_s], sum(p.run_ref_s for p in passes),
         [clock.ref(i) for i in range(len(clock.wall))]),
        ("wall", [s for p in passes for s in p.step_s], sum(p.run_s for p in passes), clock.wall),
    ):
        pct, tail_s = _tail(steps, per_pass)
        metrics[key] = {
            "setup_s": statistics.median(setup_s),
            "frames_per_s": frames / run_s,
            "step_ms_p50": 1e3 * statistics.median(steps),
            "step_ms_tail": 1e3 * tail_s,
        }
    info = {"passes": len(passes), "steps": len(passes) * per_pass, "tail_percentile": pct,
            "setup_repeats": len(clock.wall)}
    return passes, metrics, info


def _traced(workload, data, source, map_source, work_dir):
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    tracer = Tracer()
    if workload.from_disk:
        with tracer:
            _write(data, work_dir)
    vmap, tracker, det_config = chain.setup(map_source)
    plain = chain.run_pass(source, vmap, tracker, det_config)
    with tracer:
        vmap, tracker, det_config = chain.setup(map_source)
        traced = chain.run_pass(source, vmap, tracker, det_config)
    return [plain, traced], tracer, layer_metrics(tracer)


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    spec = workload.make_spec(args.seed)
    t0 = time.perf_counter()
    data = scenario.generate_scenario(spec)
    generate_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}_", dir=OUT))
    try:
        source, map_source = _source(workload, data, work_dir)
        if args.trace:
            passes, tracer, layer = _traced(workload, data, source, map_source, work_dir)
        else:
            write_s = _write(data, work_dir) if workload.from_disk else None
            passes, metrics, info = _timed(source, map_source, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = _checks(passes, data)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    points = passes[0].points
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"scenario {passes[0].frames} agent frames, {points} points ({points / passes[0].frames:.0f} per frame), "
          f"{len(passes[0].step_s)} steps per pass, generated in {generate_s:.3f} s")
    print(f"digest {passes[0].digest()}  rows {len(passes[0].rows)}")

    if args.trace:
        layer["scenario.generate_s"] = (generate_s, "s")
        layer["trace.overhead_frac"] = (passes[1].run_ref_s / passes[0].run_ref_s - 1.0, "ratio")
        spans_file = OUT / f"spans_{workload.name}_seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_file)
        print(f"spans {len(tracer.spans)} written to {spans_file.relative_to(HERE.parent)}")
        if tracer.absent:
            print(f"absent spans (names no longer defined): {', '.join(tracer.absent)}")
        if tracer.counter_errors:
            print(f"counters unreadable for: {', '.join(sorted(tracer.counter_errors))}")
        total_self = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        for name, (value, unit) in layer.items():
            share = f"  ({100 * value / total_self:.1f} % of traced self time)" \
                if name.endswith(".self_s") and total_self else ""
            print(f"metric {name} {value:.6g} {unit}{share}")
        result_metrics = layer
    else:
        walls = metrics["wall"]
        values = dict(metrics["ref"], write_s=write_s, peak_rss_mb=_peak_rss_mb(), failed_frac=failed / attempted)
        quality = _quality(passes[0].rows, data)
        values.update((k, v) for k, v in quality.items() if k in UNITS)
        print(f"timed {info['passes']} passes, {info['steps']} step samples, {info['setup_repeats']} set-ups; "
              f"step_ms_tail is p{info['tail_percentile']:.1f}; times at reference speed, wall time in brackets")
        print("quality on the first pass: " + ", ".join(
            f"{k} {quality[k]}" for k in ("gate_m", "truth", "track_rows", "matches", "false_negatives",
                                          "false_positives", "track_ids", "sv_ids")))
        for name, unit in UNITS.items():
            value = values[name]
            if value is None:
                print(f"metric {name} n/a (in-memory workload)")
            else:
                wall = f"  [wall {walls[name]:.6g}]" if name in walls else ""
                print(f"metric {name} {value:.6g} {unit}{wall}")
        result_metrics = {k: (values[k], UNITS[k]) for k in GATED}

    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0


