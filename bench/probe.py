"""Set-up probe, run in a fresh interpreter by run.py:

    python3 bench/probe.py WORKLOAD SEED SCALE

Prints {"setup_s": ...}: the wall time to import skewtent and build the
workload (specs and presets) before its first task.  run.py normalises it
with the clock scale (clock.py) taken around the process.
"""

import os
import random  # noqa: F401  (the harness's own dependency, kept out of the timing)
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.abspath("src"))
import skewtent  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), float(sys.argv[3]))
setup_s = time.perf_counter() - t0

import json  # noqa: E402

print(json.dumps({"setup_s": setup_s}))
