"""Set-up cost of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Times ``import heisenbath`` from the checkout's ``src`` and then the
workload's input build, and prints both as one JSON line.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import heisenbath  # noqa: E402

t1 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), sys.argv[3])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "module": heisenbath.__file__}))
