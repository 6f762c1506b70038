"""Benchmark of the cavtraj chain, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload freeway_baseline --seed 0 --seconds 25 --trace 0

Run from the repository root: the package is imported from ./src. The
scenario is generated from the seed outside the timed region, then whole
passes of the chain run until one more pass of average length would end
after --seconds (at least one). Every metric is printed by name and unit, and the last line is
one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json gates (end-to-end with --trace 0, per-layer with --trace 1).
"""

import os
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

if __name__ == "__main__":
    # SIGTERM unwinds like an exit, so the run's temporary scenario directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ[var] = "1"  # one BLAS/OpenMP thread, set before NumPy loads: the run stays on one core
    if not (SRC / "cavtraj").is_dir():
        print(f"error: cavtraj sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main())
