"""Machine-speed calibration, so runs made at different times compare.

The host's speed drifts by 20% and more over tens of seconds (other tenants
share its caches and cores), far more than the changes the benchmark must
resolve. Between chunks of timed work the benchmark measures the speed of a
reference that does not touch s2sym, and scales each timed interval by
(reference speed around it) / NOMINAL, i.e. reports it as it would have taken
on a machine where the reference runs at its nominal speed. Two references,
each matched to the kind of work it stands in for:

- "kernel": exact 4x4 word products from exact.py and a small numpy product,
  in the measuring process; for the in-process workloads;
- "interpreter": starts of a bare `python -c pass`; for work done in fresh
  processes (CLI calls, set-up probes).

The nominal speeds are about the typical ones on the 2-vCPU Xeon the
benchmark was defined on, so factors stay near 1 there. The raw, unscaled
figures are kept in the results file.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

from exact import THETAS, Powers, rep_image

NOMINAL = {"kernel": 14_000.0, "interpreter": 17.0}  # kernel units/s; starts/s
KERNEL_SECONDS = 0.1
INTERPRETER_STARTS = 3

_POWERS = Powers(THETAS[1])
_AUTO = (1, (1, 1, -1, 0), 2, -3)
_MATRIX = np.arange(49.0).reshape(7, 7)


def _unit() -> None:
    for q in range(-3, 4):
        rep_image(_POWERS, _AUTO, (q, 2, -1))
    float((_MATRIX @ _MATRIX.T).sum())


def kernel_speed() -> float:
    """Reference-kernel units per second over a slice of KERNEL_SECONDS."""
    clock = time.perf_counter_ns
    units = 0
    start = clock()
    deadline = start + int(KERNEL_SECONDS * 1e9)
    while True:
        for _ in range(16):
            _unit()
        units += 16
        now = clock()
        if now >= deadline:
            return units / ((now - start) / 1e9)


def interpreter_speed() -> float:
    """Bare interpreter starts per second, from the median of a few."""
    times = []
    for _ in range(INTERPRETER_STARTS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=os.getcwd())
        times.append((time.perf_counter_ns() - start) / 1e9)
    return 1.0 / statistics.median(times)


SPEED = {"kernel": kernel_speed, "interpreter": interpreter_speed}


def scale(reference: str, before: float, after: float) -> float:
    """Factor that turns a raw interval between two speed measurements into
    a nominal-machine interval."""
    return 0.5 * (before + after) / NOMINAL[reference]
