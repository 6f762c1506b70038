import numpy as np
import pytest

from cavtraj.detection import PointCloudFrame
from cavtraj.errors import ValidationError
from cavtraj.geometry import EulerAngles, RigidTransform
from cavtraj.pipeline.frames_io import read_frame_csv, read_pose_csv, write_frame_csv, write_pose_csv
from conftest import make_frame


def test_frame_round_trip(tmp_path, rng):
    frame = make_frame(rng.uniform(-40, 40, (50, 3)), timestamp=0.3, agent_id=2, intensity=17.5)
    write_frame_csv(tmp_path / "frame_000003.csv", frame)
    back = read_frame_csv(tmp_path / "frame_000003.csv", agent_id=2)
    assert back.timestamp == 0.3
    assert back.agent_id == 2
    np.testing.assert_allclose(back.points, frame.points, atol=5e-7)
    np.testing.assert_allclose(back.intensities, frame.intensities, atol=5e-5)


def write_frame_rows_loop(path, frame):
    """Reference: the row-by-row writer, one f-string per point."""
    rows = np.c_[np.full(len(frame), frame.timestamp), frame.points, frame.intensities]
    with path.open("w") as fh:
        fh.write("t,x,y,z,intensity\n")
        fh.write(f"# t={frame.timestamp!r}\n")
        for r in rows:
            fh.write(f"{r[0]:.6f},{r[1]:.6f},{r[2]:.6f},{r[3]:.6f},{r[4]:.4f}\n")


@pytest.mark.parametrize("n", [0, 1, 54_000])
def test_frame_writer_matches_row_loop_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.uniform(-60.0, 60.0, (n, 4)) * 10.0 ** rng.integers(-7, 2, (n, 4))
    # negative zero, values that print as -0, and exact binary half-way cases
    # at the 6th (k / 2^7) and 4th (k / 2^5) decimal
    special = np.array([0.0, -0.0, -1e-9, 1e-9, -4e-7, 5e-7, 2.0**-7, -(2.0**-7), 3 * 2.0**-7,
                        2.0**-5, -(2.0**-5), 5 * 2.0**-5, 1e6 + 2.0**-7, -(1e6 + 2.0**-5)])
    if n:
        flat = values.ravel()
        flat[rng.integers(0, flat.size, flat.size // 4)] = rng.choice(special, flat.size // 4)
    frame = PointCloudFrame(timestamp=0.1 + 0.2, points=values[:, :3], intensities=values[:, 3])
    write_frame_csv(tmp_path / "one_call.csv", frame)
    write_frame_rows_loop(tmp_path / "loop.csv", frame)
    assert (tmp_path / "one_call.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_empty_frame_keeps_its_timestamp(tmp_path):
    # the file name suggests t = 0.5 at 10 Hz; the recorded time must win
    write_frame_csv(tmp_path / "frame_000005.csv", make_frame(np.zeros((0, 3)), timestamp=1.25))
    back = read_frame_csv(tmp_path / "frame_000005.csv")
    assert back.timestamp == 1.25
    assert len(back) == 0
    assert back.points.shape == (0, 3)


@pytest.mark.parametrize("text", ["t,x,y,z,intensity\n", "t,x,y,z,intensity\n# t=soon\n"])
def test_empty_frame_without_recorded_timestamp_rejected(tmp_path, text):
    path = tmp_path / "frame_000001.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        read_frame_csv(path)


def test_pose_stream_round_trip(tmp_path):
    samples = [
        (0.1 * k, RigidTransform.from_euler_translation(
            EulerAngles(0.01 * k, -0.02 * k, 0.3 * k - 1.0), (10.0 + k, -5.0 * k, 0.5)))
        for k in range(6)
    ]
    write_pose_csv(tmp_path / "poses.csv", samples)
    back = read_pose_csv(tmp_path / "poses.csv")
    assert [s.timestamp for s in back] == pytest.approx([t for t, _ in samples], abs=1e-9)
    for s, (_, tf) in zip(back, samples):
        np.testing.assert_allclose(s.transform.translation, tf.translation, atol=1e-6)
        np.testing.assert_allclose(s.transform.rotation, tf.rotation, atol=1e-8)


@pytest.mark.parametrize("reader", [read_frame_csv, read_pose_csv])
def test_bad_header_rejected(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y\n0.0,1.0,2.0\n")
    with pytest.raises(ValidationError):
        reader(path)
