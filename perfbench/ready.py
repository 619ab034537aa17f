#!/usr/bin/env python3
"""Set-up probe: start as the benchmark does and print "ready" once the
first instance is ready.

    python3 perfbench/ready.py <workload> <seed>

It imports the benchmark and ``multiekr`` from ``src/``, selects the
backend and builds the workload's instance list. ``run.py`` times it from
spawn to the "ready" line and reports the median of several probes as
``setup_s``.
"""

import sys

from run import load_program
from workloads import WORKLOADS

load_program()
WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
