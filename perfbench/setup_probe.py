"""Time one fresh-process setup: import kernelwave plus the workload's
warm-up calls, which fill the lazy caches.  Prints the seconds.

    python3 perfbench/setup_probe.py rate-study
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import kernelwave  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warm_up()
print(time.perf_counter() - t0)
