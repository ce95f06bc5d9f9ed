"""Set-up time of one workload in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SEED WORKDIR.  Times `import supmin` plus
building every problem of the workload (config parse, grid, tensor, cost,
boundary data, operator assembly) and prints {"setup_s": ...} as JSON.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import supmin  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
workload.build_all()
print(json.dumps({"setup_s": time.perf_counter() - START}))
