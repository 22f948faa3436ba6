"""Measures one workload in the environment run.py pinned; see perfbench/README.md.

With --trace 0 it reports the end-to-end metrics of a closed loop that runs
for --seconds of timed wall time. With --trace 1 it reports the per-layer
metrics of a fixed list of operations run once untraced and once traced.
Either way the last line of standard output is the JSON result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"

import s2sym  # noqa: E402  (PYTHONPATH=src from run.py)

if Path(s2sym.__file__).resolve().parent != ROOT / "src" / "s2sym":
    sys.exit(f"perfbench: imported s2sym from {s2sym.__file__}, not from this checkout")

import numpy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import parse_args  # noqa: E402

PROBES = 7  # subprocesses per set-up or import measurement; the median is reported
CALIBRATE_EVERY = 0.5  # seconds of timed work between calibration slices
CLI = [sys.executable, "-m", "s2sym.cli"]


def percentile(xs_sorted: list, p: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    pos = (len(xs_sorted) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs_sorted) - 1)
    return xs_sorted[lo] + (xs_sorted[hi] - xs_sorted[lo]) * (pos - lo)


def tail(wl, times) -> tuple[float, int]:
    """The workload's tail latency of passed operations given in run order,
    and the number of windows it is the median of.

    With wl.tail_window = 0 it is the tail_percentile of the whole run. With a
    window of N operations it is the median, over consecutive windows of N
    operations, of each window's tail_percentile: a burst of load from other
    tenants of the host then moves a few windows, not the figure.
    """
    n = wl.tail_window
    windows = [sorted(times[i:i + n]) for i in range(0, len(times) - n + 1, n)] if n else []
    if not windows:
        return percentile(sorted(times), wl.tail_percentile), 1
    return statistics.median(percentile(w, wl.tail_percentile) for w in windows), len(windows)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "s2sym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "executable": sys.executable,
        "bytecode": "PYTHONPYCACHEPREFIX=.bench_build/pycache, PYTHONDONTWRITEBYTECODE unset",
        "pythonpath": "src",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --- subprocess timings ------------------------------------------------------


def time_subprocess(cmd: list[str]) -> float:
    start = time.perf_counter_ns()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return (time.perf_counter_ns() - start) / 1e9


def time_until_ready(cmd: list[str]) -> float:
    """Seconds from spawning cmd to its first line of output."""
    start = time.perf_counter_ns()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = (time.perf_counter_ns() - start) / 1e9
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd} failed with exit {proc.returncode}")
    return elapsed


def median_seconds(measure, cmd: list[str]) -> float:
    return statistics.median(measure(cmd) for _ in range(PROBES))


def setup_seconds(name: str) -> tuple[float, float]:
    """Median set-up time over PROBES fresh processes (see README.md), each
    scaled by the interpreter speed measured around it; and the raw median."""
    if name == workloads.CliCalls.name:
        measure, cmd = time_subprocess, [sys.executable, "-c", "import s2sym.cli"]
    else:
        measure, cmd = time_until_ready, [sys.executable, str(HERE / "setup_probe.py"), name]
    speed = calibrate.interpreter_speed()
    raw, scaled = [], []
    for _ in range(PROBES):
        raw.append(measure(cmd))
        after = calibrate.interpreter_speed()
        scaled.append(raw[-1] * calibrate.scale("interpreter", speed, after))
        speed = after
    return statistics.median(scaled), statistics.median(raw)


def warm_up_cli() -> None:
    """One untimed call, so a fresh checkout's bytecode cache is filled first."""
    subprocess.run([*CLI, "classify-theta", "--theta", "0,1,-1,0"], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)


# --- the measurement loops ---------------------------------------------------


class Tally:
    """Outcomes of checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.examples: list[str] = []

    def add(self, verdict: str | None) -> bool:
        self.attempted += 1
        if verdict is None:
            return True
        known = verdict.startswith("known:") and verdict[6:] in workloads.KNOWN_DEFECTS
        label = verdict if known else "unexpected"
        self.failures[label] += 1
        if label == "unexpected" and len(self.examples) < 5:
            self.examples.append(verdict)
        return False

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def unexpected(self) -> int:
        return self.failures["unexpected"]


class Loop:
    """Timed totals of a closed loop, raw and scaled (see calibrate.py).

    Per passed operation it keeps only the raw time and a kind index, and per
    calibration interval the scale factor: 9 bytes an operation, so that the
    benchmark's own records barely move the peak RSS however many operations
    a run gets through.
    """

    def __init__(self):
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self.kinds: dict[str, int] = {}
        self.kind = array("B")  # kind index of each passed operation, in run order
        self.times = array("q")  # raw ns of each passed operation, in run order
        self.factors: list[tuple[int, float]] = []  # (first operation, scale factor) per interval

    def add(self, kind: str, ns: int) -> None:
        self.kind.append(self.kinds.setdefault(kind, len(self.kinds)))
        self.times.append(ns)

    def ordered(self, scaled: bool = True) -> list[float]:
        """Times of the passed operations in run order."""
        if not scaled:
            return list(self.times)
        ends = [start for start, _ in self.factors[1:]] + [len(self.times)]
        return [ns * factor for (start, factor), end in zip(self.factors, ends) for ns in self.times[start:end]]

    def by_kind(self, scaled: bool = True) -> dict[str, list[float]]:
        names = {index: kind for kind, index in self.kinds.items()}
        out: dict[str, list[float]] = {}
        for index, ns in zip(self.kind, self.ordered(scaled)):
            out.setdefault(names[index], []).append(ns)
        return out


def closed_loop(wl, stream, seconds: float, run, tally: Tally) -> Loop:
    """Run whole chunks of operations, one operation after another, until
    `seconds` of raw timed wall time have passed.

    Whole chunks keep every kind of input at its designed share. Inputs are
    generated and outputs checked between chunks, outside the timed region.
    A speed measurement follows every CALIBRATE_EVERY seconds of timed work
    and scales the operations timed since the previous one.
    """
    budget = int(seconds * 1e9)
    clock = time.perf_counter_ns
    loop = Loop()
    speed = calibrate.SPEED[wl.reference]
    rate = speed()
    pending: list[tuple[str, int]] = []  # passed operations not yet scaled
    pending_ns = 0
    while loop.raw_ns < budget:
        chunk = [wl.prepare(op) for _ in range(wl.chunk_blocks) for op in stream.block()]
        done = []
        gc.collect()
        start = clock()
        for op in chunk:
            t0 = clock()
            try:
                result = run(op)
            except Exception as exc:  # counted as a failed operation by check()
                result = exc
            t1 = clock()
            done.append((op, result, t1 - t0))
        chunk_ns = clock() - start
        loop.raw_ns += chunk_ns
        pending_ns += chunk_ns
        calibrating = pending_ns >= CALIBRATE_EVERY * 1e9 or loop.raw_ns >= budget
        if calibrating:
            after = speed()
        for op, result, ns in done:
            if tally.add(wl.check(op, result)):
                pending.append((wl.kind(op), ns))
        if calibrating:
            factor = calibrate.scale(wl.reference, rate, after)
            rate = after
            loop.scaled_ns += pending_ns * factor
            loop.factors.append((len(loop.times), factor))
            for kind, ns in pending:
                loop.add(kind, ns)
            pending.clear()
            pending_ns = 0
    return loop


def fixed_pass(wl, ops, run, tracer=None) -> tuple[int, list]:
    """Run a fixed list of operations once; returns the summed operation time
    and the (operation, result) pairs."""
    total = 0
    clock = time.perf_counter_ns
    results = []
    gc.collect()
    for op in ops:
        before = tracer.snapshot() if tracer else None
        t0 = clock()
        try:
            result = run(op)
        except Exception as exc:  # counted as a failed operation by check()
            result = exc
        t1 = clock()
        total += t1 - t0
        if tracer:
            tracer.span(op["id"], wl.kind(op), t0, t1, before)
        results.append((op, result))
    return total, results


def check_all(wl, results, tally: Tally) -> None:
    for op, result in results:
        tally.add(wl.check(op, result))


def first_ops(wl, seed: int, count: int) -> list[dict]:
    stream = wl.make_inputs(seed)
    ops = []
    while len(ops) < count:
        ops.extend(stream.block())
    return [wl.prepare(op) for op in ops[:count]]


# --- untraced run: end-to-end metrics ------------------------------------------


def untraced(wl, args, tally: Tally) -> tuple[dict, dict]:
    if wl.name == workloads.CliCalls.name:
        warm_up_cli()
    setup_s, setup_raw = setup_seconds(wl.name)
    wl.setup()
    loop = closed_loop(wl, wl.make_inputs(args.seed), args.seconds, wl.run, tally)
    # Read the peak before the sorting below adds the benchmark's own lists.
    who = resource.RUSAGE_CHILDREN if wl.name == workloads.CliCalls.name else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ordered, ordered_raw = loop.ordered(), loop.ordered(scaled=False)
    ok, ok_raw = sorted(ordered), sorted(ordered_raw)
    if not ok:
        raise RuntimeError("no operation succeeded")
    tail_ns, windows = tail(wl, ordered)
    by_kind = loop.by_kind()
    metrics = {
        "ops_per_s": len(ok) / (loop.scaled_ns / 1e9),
        "latency_p50_ms": percentile(ok, 50) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "error_rate": tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "timed_s": loop.raw_ns / 1e9,
        "machine_scale": loop.scaled_ns / loop.raw_ns,
        "latency_tail": {
            "percentile": wl.tail_percentile,
            "window": wl.tail_window,
            "windows": windows,
            "samples": len(ok),
            "beyond": sum(1 for ns in ok if ns > tail_ns),
        },
        # Per input kind, so a claim can be checked without relying on the mix.
        "p50_ms_by_kind": {kind: percentile(sorted(times), 50) / 1e6 for kind, times in sorted(by_kind.items())},
        "ops_by_kind": {kind: len(times) for kind, times in sorted(by_kind.items())},
        "raw": {
            "ops_per_s": len(ok) / (loop.raw_ns / 1e9),
            "latency_p50_ms": percentile(ok_raw, 50) / 1e6,
            "latency_tail_ms": tail(wl, ordered_raw)[0] / 1e6,
            "setup_s": setup_raw,
        },
    }
    return metrics, details


# --- traced run: per-layer metrics -------------------------------------------------


def cli_environment_metrics() -> dict:
    bare = median_seconds(time_subprocess, [sys.executable, "-c", "pass"])
    numpy_s = median_seconds(time_subprocess, [sys.executable, "-c", "import numpy"])
    cli_s = median_seconds(time_subprocess, [sys.executable, "-c", "import s2sym.cli"])
    return {
        "cli.interpreter_ms": bare * 1e3,
        "cli.numpy_import_ms": (numpy_s - bare) * 1e3,
        "cli.import_ms": (cli_s - bare) * 1e3,
    }


COMMANDS = ("classify-theta", "check-generators", "extend", "lattice-points")


def traced(wl, args, tally: Tally) -> tuple[dict, dict]:
    metrics = dict.fromkeys(
        ["cli.interpreter_ms", "cli.numpy_import_ms", "cli.import_ms", *(f"cli.{c}.p50_ms" for c in COMMANDS)], 0.0
    )
    run = wl.run
    if wl.name == workloads.CliCalls.name:
        warm_up_cli()
        metrics.update(cli_environment_metrics())
        wl.setup()
        loop = closed_loop(wl, wl.make_inputs(args.seed), args.seconds / 3, wl.run, tally)
        raw = loop.by_kind(scaled=False)
        for command in COMMANDS:
            if command in raw:
                metrics[f"cli.{command}.p50_ms"] = percentile(sorted(raw[command]), 50) / 1e6
        run = wl.run_in_process
    else:
        wl.setup()
    ops = first_ops(wl, args.seed, wl.traced_ops)
    plain_ns, results = fixed_pass(wl, ops, run)
    check_all(wl, results, tally)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter_ns()
        wl.setup()
        tracer.span("setup", "setup", start, time.perf_counter_ns(), {})
        traced_ns, results = fixed_pass(wl, ops, run, tracer)
    finally:
        tracer.uninstall()
    check_all(wl, results, tally)
    metrics.update(layer_metrics(tracer, len(ops)))
    metrics["trace.overhead"] = traced_ns / plain_ns
    metrics["cli.stdout_bytes"] = 0
    if wl.name == workloads.CliCalls.name:
        metrics["cli.stdout_bytes"] = sum(len(r[1].encode()) for _, r in results if isinstance(r, tuple))
    path = OUT / "trace" / f"{wl.name}-seed{args.seed}.json"
    tracer.write(path, {"workload": wl.name, "environment": environment(args.seed), "traced_ops": len(ops)})
    details = {"traced_ops": len(ops), "untraced_ms": plain_ns / 1e6, "traced_ms": traced_ns / 1e6, "trace_file": str(path.relative_to(ROOT))}
    return metrics, details


def layer_metrics(t: tracing.Tracer, ops: int) -> dict:
    words = t.counters.get("extension.words_verified", 0)
    checkgen = [s for s in t.spans if s["kind"] == "check-generators"]

    def ratio(x, base):
        return x / base if base else 0.0

    out = {}
    for name, _unit in declared("per_layer"):
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = t.calls(fn)
        elif stat == "self_ms":
            out[name] = t.self_ms(fn)
    out.update({
        "intmat.theta_power.per_word": ratio(t.calls("intmat.theta_power"), words),
        "discrete.dmul.per_word": ratio(t.calls("discrete.dmul"), words),
        "discrete.dmul.per_op": ratio(t.calls("discrete.dmul"), ops),
        "discrete.generates_d.per_call": ratio(
            sum(s["calls"].get("discrete.generates_d", 0) for s in checkgen), len(checkgen)
        ),
        "symmetry.check_d_automorphism.per_op": ratio(t.calls("symmetry.check_d_automorphism"), ops),
        "extension.extend.per_op": ratio(t.calls("extension.extend"), ops),
        "extension.words_verified": words,
        "extension.verify_extension.ns_per_word": ratio(t.total_ns("extension.verify_extension"), words),
        "autos.rows_mapped": t.counters.get("autos.rows_mapped", 0),
    })
    return out


def declared(key: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json lists under key."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def main() -> int:
    args = parse_args()
    wl = workloads.make(args.workload, env=dict(os.environ), root=str(ROOT))
    tally = Tally()
    spec = declared("per_layer" if args.trace else "end_to_end")
    values, details = (traced if args.trace else untraced)(wl, args, tally)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    env = environment(args.seed)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "details": details,
        "attempted": tally.attempted,
        "failures": dict(tally.failures),
        "known_defects": {f"known:{k}": v for k, v in workloads.KNOWN_DEFECTS.items() if f"known:{k}" in tally.failures},
        "unexpected_examples": tally.examples,
    }
    path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} commit={env['commit'][:12]}")
    for key, value in details.items():
        print(f"# {key}: {value}")
    for label, count in sorted(tally.failures.items()):
        print(f"# failed {label}: {count} of {tally.attempted} ({count / tally.attempted:.2%})")
        if label in record["known_defects"]:
            print(f"#   {record['known_defects'][label]}")
    for example in tally.examples:
        print(f"# {example}")
    for name, unit in spec:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
