"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It pins the run environment and starts
perfbench/worker.py in it, which measures one workload and prints one JSON
result as the last line of standard output. The pinned environment:

- PYTHONPATH=src, so the checkout's own s2sym is measured (it is not installed);
- bytecode cached under .bench_build/pycache through PYTHONPYCACHEPREFIX, with
  PYTHONDONTWRITEBYTECODE removed, so no call pays for compiling the sources
  after the first one in a checkout;
- single-threaded BLAS and OpenMP, and PYTHONHASHSEED=0.

It exits with code 2 and prints no result when the checkout has no
src/s2sym package.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lift-sweep", "generator-decisions", "cli-calls")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main() -> int:
    parse_args()
    if not (ROOT / "src" / "s2sym" / "__init__.py").is_file():
        print(f"perfbench: no s2sym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    worker = [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]]
    return subprocess.run(worker, env=pinned_env(), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
