"""Entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1.

The clock for setup_s starts before numpy, scipy and dualflow are
imported, and the thread pools are pinned before numpy loads.
"""

import sys
import time

if __name__ == "__main__":
    T0 = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import pin_threads

    pin_threads()
    from perfbench.harness import main

    sys.exit(main(sys.argv[1:], T0))
