"""Per-function tracing of the s2sym package, installed from outside it.

Tracer.install() replaces every public function of every loaded s2sym module
with a timing wrapper, in each module namespace that binds it (so calls
between modules, such as dmul calling theta_power, are seen too). Each
function aggregates calls, total time and self time (total minus the time of
wrapped callees). The benchmark adds one span per top-level operation. All of
it stays in memory until write().
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types


def _traceable(obj) -> bool:
    if isinstance(obj, type) or not callable(obj):
        return False
    module = getattr(obj, "__module__", None) or ""
    return (module == "s2sym" or module.startswith("s2sym.")) and hasattr(obj, "__qualname__")


def _name(obj) -> str:
    module = obj.__module__.split(".", 1)[-1]
    return f"{module}.{obj.__qualname__}"


def _rows(args, kwargs) -> int:
    return len(kwargs["V"] if "V" in kwargs else args[1])


def _box_words(args, kwargs) -> int:
    box = kwargs["box"] if "box" in kwargs else args[3]
    return (2 * box + 1) ** 3


class Tracer:
    # Work counters read off the arguments of a wrapped function.
    COUNTERS = {
        "autos.apply_group_auto_batch": ("autos.rows_mapped", _rows),
        "extension.verify_extension": ("extension.words_verified", _box_words),
    }

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn):
        name = _name(fn)
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        counter = self.COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](args, kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "s2sym" or modname.startswith("s2sym.")):
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _traceable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def snapshot(self) -> dict[str, int]:
        return {name: s[0] for name, s in self.stats.items()}

    def span(self, op_id, kind: str, start_ns: int, end_ns: int, before: dict[str, int]) -> None:
        """Record a top-level operation with the calls it made, by function."""
        calls = {n: s[0] - before.get(n, 0) for n, s in self.stats.items() if s[0] != before.get(n, 0)}
        self.spans.append({"id": op_id, "kind": kind, "start_ns": start_ns, "dur_ns": end_ns - start_ns, "calls": calls})

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e6

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def write(self, path, meta: dict) -> None:
        functions = {
            n: {"calls": s[0], "total_ms": s[1] / 1e6, "self_ms": s[2] / 1e6}
            for n, s in sorted(self.stats.items())
            if s[0]
        }
        doc = {**meta, "functions": functions, "counters": self.counters, "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
