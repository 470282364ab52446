"""Benchmark harness for dualflow: frozen workloads, end-to-end and per-layer metrics.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see perfbench/README.md.
"""

import os

# thread pools of the BLAS and OpenMP runtimes numpy and scipy may load
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Run single-threaded; takes effect only before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
