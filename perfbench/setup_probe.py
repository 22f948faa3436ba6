"""Child process that measures one set-up: import s2sym, run a workload's
program-side set-up, then print "ready". The parent times it from spawn to
that line.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys

import workloads

workloads.make(sys.argv[1], env={}, root="").setup()
print("ready", flush=True)
