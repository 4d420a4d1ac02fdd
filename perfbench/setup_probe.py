"""Time one set-up of a workload's program in a fresh interpreter.

Run by ``run.py`` as ``python3 setup_probe.py <src dir> <workload> <seed>``.
Prints the seconds from just before ``import tilerun`` until the first op
is ready; interpreter start-up is not counted.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tilerun  # noqa: E402,F401  (timed: it imports numpy too)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[2]]().setup_program(int(sys.argv[3]))
print(repr(time.perf_counter() - t0))
