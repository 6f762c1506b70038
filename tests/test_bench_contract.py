"""The benchmark in perfbench/ imports and runs against the package as it stands.

CI runs the benchmark only after the tests, one short untraced pass per
workload, so a change under src/ that breaks what perfbench/ uses of the
package (a name, a signature, a return type) would otherwise show late, and
never on the traced path. This runs one short pass of the benchmark's chain
from memory and from files, and one traced pass. It also pins the chain's
trajectory digests on every workload, which otherwise only the benchmark's
own check of a run would guard, and runs every workload with its map
moved to UTM-sized coordinates.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import chain  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cavtraj.pipeline import scenario  # noqa: E402
from conftest import UTM_SHIFT, moved_scenario  # noqa: E402


@pytest.fixture(scope="module")
def data():
    # disk_replay shortened to 1 s: 10 frames of one agent, two SVs confirmed within it
    return scenario.generate_scenario(replace(workloads.disk_replay(0), duration=1.0))


def _sources(data, directory):
    """(source, map source) in memory and from a write_scenario directory, as the benchmark builds them."""
    disk = workloads.WORKLOADS["disk_replay"]
    bench._write(data, directory)
    return {"memory": bench._source(replace(disk, from_disk=False), data, directory),
            "disk": bench._source(disk, data, directory)}


def _run(source, map_source):
    vmap, tracker, det_config = chain.setup(map_source)
    return chain.run_pass(source, vmap, tracker, det_config)


def test_chain_pass_from_memory_and_from_files_agree(data, tmp_path):
    lane_of = {ll["lanelet_id"]: ll["lane_id"] for ll in data.vector_map["lanelets"]}
    passes = {name: _run(*source) for name, source in _sources(data, tmp_path).items()}
    for result in passes.values():
        assert result.failed == 0
        assert result.rows
        assert chain.check_rows(result.rows, lane_of) == []
    assert passes["memory"].digest() == passes["disk"].digest()


def test_rows_head_along_the_vehicle(data, tmp_path):
    # the heading column as chain._trajectory_rows writes it, against the SV within 2 m
    result = _run(*_sources(data, tmp_path)["memory"])
    matched = 0
    for row in result.rows:
        truth = [g for g in data.ground_truth if g.time == row[1]]
        g = min(truth, key=lambda g: math.hypot(row[2] - g.x, row[3] - g.y))
        if math.hypot(row[2] - g.x, row[3] - g.y) < 2.0:
            matched += 1
            assert abs(math.remainder(row[4] - g.heading, 2 * math.pi)) < math.pi / 2, (row, g)
    assert matched >= 10


def test_traced_pass_reads_every_counter(data, tmp_path):
    source, map_source = _sources(data, tmp_path)["disk"]
    with tracer.Tracer() as tr:
        result = _run(source, map_source)
    assert result.failed == 0 and result.rows
    assert tr.counter_errors == set()
    # a renamed function would leave its span absent and its per-layer metrics at zero,
    # and so would a path that no longer calls it through its module name
    required = {"tracking.kf_predict", "tracking.kf_update", "tracking.associate", "fusion.late_fuse",
                "fusion.project_box"}
    assert required.isdisjoint(tr.absent)
    assert required <= {span[0] for span in tr.spans}
    # the filter runs once per step over all tracks, not once per track
    steps = tr.calls("tracking.step")
    assert steps and tr.calls("tracking.kf_predict") <= steps and tr.calls("tracking.kf_update") <= steps
    metrics = tracer.layer_metrics(tr)
    assert metrics["world_model.map_load.lanelets"][0] == len(data.vector_map["lanelets"])


# the first 8 hex digits of each workload's trajectory digest, at the default and the hold-out seed
DIGESTS = {
    ("freeway_baseline", 0): "bcf0ce98", ("freeway_baseline", 7): "a2d90d87",
    ("arc_fleet", 0): "78029697", ("arc_fleet", 7): "e81f1454",
    ("disk_replay", 0): "f9feb979", ("disk_replay", 7): "f7f3cbfb",
}


@pytest.mark.parametrize("name, seed", DIGESTS, ids=[f"{name}-seed{seed}" for name, seed in DIGESTS])
def test_chain_digest_is_pinned(name, seed):
    """One pass of the chain, run from memory, gives the pinned trajectory rows.

    A change meant to keep every output, such as a speed-up, leaves these
    digests as they are. A change that alters the rows on purpose, such as
    an accuracy change, updates the pins and records the new digests in
    CHANGES.md.
    """
    workload = workloads.WORKLOADS[name]
    data = scenario.generate_scenario(workload.make_spec(seed))
    result = _run(*bench._source(replace(workload, from_disk=False), data, None))
    assert result.failed == 0
    assert result.digest()[:8] == DIGESTS[name, seed]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rows_follow_the_map_to_real_coordinates(name):
    """Each workload at seed 0, from memory, with its map and poses moved by a rigid motion W.

    Real HD maps sit at UTM-sized coordinates. W is UTM_SHIFT, alone or
    after a 0.7 rad turn about the map origin; the frames stay as they are,
    in the sensor frame. The rows must be W applied to the rows at the
    origin, within 1e-6 m, with the same ids, times, lanes, lanelets and
    provenance. A clock that reads Unix time, 1.7e9 s, keeps ids, times,
    lanes and lanelets, and positions within 1e-5 m. Each pass runs the
    workload's full length: on freeway_baseline a fusion decision that
    flipped at t = 0.8 s under the shift showed only in a row at t = 1.5 s.
    """
    workload = replace(workloads.WORKLOADS[name], from_disk=False)
    data = scenario.generate_scenario(workload.make_spec(0))

    def rows(moved):
        return _run(*bench._source(workload, moved, None)).rows

    origin = rows(data)
    for turn in (0.0, 0.7):
        c, s = math.cos(turn), math.sin(turn)
        moved = rows(moved_scenario(data, UTM_SHIFT, turn))
        assert len(moved) == len(origin)
        for row, at_origin in zip(moved, origin):
            x, y = at_origin[2:4]
            assert row[:2] + row[8:10] + row[13:] == at_origin[:2] + at_origin[8:10] + at_origin[13:]
            assert math.hypot(row[2] - (c * x - s * y + UTM_SHIFT[0]), row[3] - (s * x + c * y + UTM_SHIFT[1])) <= 1e-6
            assert abs(math.remainder(row[4] - at_origin[4] - turn, 2 * math.pi)) <= 1e-6
            assert row[5:8] + row[10:13] == pytest.approx(at_origin[5:8] + at_origin[10:13], abs=1e-6)
    delay = 1.7e9
    later = rows(moved_scenario(data, delay=delay))
    assert [(r[0], r[1], r[8], r[9]) for r in later] == [(r[0], r[1] + delay, r[8], r[9]) for r in origin]
    assert max(math.hypot(r[2] - o[2], r[3] - o[3]) for r, o in zip(later, origin)) <= 1e-5
