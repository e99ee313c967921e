"""Spans around the ghostcycles layers, and the per-layer metrics they give.

`install()` wraps module-level functions that the CLI calls into each
layer, so that every call records one span: (name, start, end, parent,
pid, count).  Spans stay in memory; `traced_cli.py` writes them out once
the CLI has returned.  Nothing in the package itself is edited.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of every span in the CLI process sum to
the root span (`cli.main`).  Kernel spans from pool workers run beside
the parent; they are counted as kernel busy time, not as self time.

A hook whose target no longer exists is listed as missing, and every
metric that depends on it is reported as missing (null), never as 0 s,
so that a rename cannot pass for a speed-up.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from concurrent.futures import ProcessPoolExecutor

clock = time.perf_counter

# (module, attribute, span name, what the span counts)
HOOKS = [
    ("ghostcycles.cli", "main", "cli.main", None),
    ("ghostcycles.cli", "cmd_scan", "cli.cmd_scan", None),
    ("ghostcycles.cli", "cmd_fibers", "cli.cmd_fibers", None),
    ("ghostcycles.cli", "_emit", "cli.emit", "bytes"),
    ("ghostcycles._kernel_py", "cell_records", "kernel.pure", "len"),
    ("ghostcycles._kernel_c", "cell_records", "kernel.compiled", "len"),
    ("ghostcycles.cli", "iterate_cycle", "dynamics.iterate_cycle", None),
    ("ghostcycles.cli", "general_iterate_cycle", "dynamics.general_iterate_cycle", None),
    ("ghostcycles.dynamics", "ghost_cycle", "cycle.resolve", None),
    ("ghostcycles.generalized", "general_ghost_cycle", "cycle.resolve", None),
    ("ghostcycles.cli", "fiber_period_bruteforce", "semilinear.bruteforce", None),
    ("ghostcycles.semilinear", "_minimal_eventual_period", "semilinear.detect", None),
]
# the compiled twin is optional: when it is not built, no compiled cell runs
OPTIONAL_MODULES = {"ghostcycles._kernel_c"}
POOL_HOOK = ("ghostcycles.cli", "ProcessPoolExecutor")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.installed = False

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack
        pid = os.getpid()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, pid, 0]
            if count == "len":
                spans[idx][5] = len(result)
            elif count == "bytes":
                spans[idx][5] = _emitted_bytes(*args, **kwargs)
            return result

        return traced

    def reset(self):
        """Drop spans left from an earlier call or inherited through fork."""
        self.spans.clear()
        self.stack.clear()


def _emitted_bytes(lines, out_path):
    if out_path is not None:
        return os.path.getsize(out_path)
    return sum(len(line.encode()) + 1 for line in lines)


TRACER = Tracer()


def install() -> None:
    """Wrap every hook target that exists; list the ones that do not."""
    tracer = TRACER
    if tracer.installed:
        return
    tracer.installed = True
    for module_name, attr, span, count in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            if module_name not in OPTIONAL_MODULES:
                tracer.missing.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn, count))
    module = importlib.import_module(POOL_HOOK[0])
    if getattr(module, POOL_HOOK[1], None) is ProcessPoolExecutor:
        setattr(module, POOL_HOOK[1], TracedPool)
    else:
        tracer.missing.append(".".join(POOL_HOOK))


def _in_worker(fn, *args):
    # runs in a pool worker: record this call's spans and ship them back
    install()
    TRACER.reset()
    result = fn(*args)
    pid = os.getpid()  # a forked worker inherits the parent's pid in the wrappers
    return result, [[name, s, e, parent, pid, count] for name, s, e, parent, _, count in TRACER.spans]


class TracedPool(ProcessPoolExecutor):
    """The CLI's process pool, recording how long the parent waits on it."""

    def map(self, fn, *iterables, **kwargs):
        results = super().map(functools.partial(_in_worker, fn), *iterables, **kwargs)
        return _waited(results)


def _waited(results):
    spans, stack = TRACER.spans, TRACER.stack
    pid = os.getpid()
    while True:
        start = clock()
        try:
            value, worker_spans = next(results)
        except StopIteration:
            return
        finally:
            spans.append(["cli.pool_wait", start, clock(), stack[-1] if stack else -1, pid, 0])
        base = len(spans)
        for name, s, e, parent, wpid, count in worker_spans:
            spans.append([name, s, e, parent + base if parent >= 0 else -1, wpid, count])
        yield value


# ------------------------------------------------------------- analysis

# Kernel spans from pool workers only come back through the pool hook.
_KERNEL = ["kernel.pure", "kernel.compiled", "cli.pool_wait"]

# name -> (unit, span names it needs)
PER_LAYER = {
    "kernel.busy_s": ("s", _KERNEL),
    "kernel.cells": ("count", _KERNEL),
    "kernel.cells_pure": ("count", ["kernel.pure", "cli.pool_wait"]),
    "kernel.cells_compiled": ("count", ["kernel.compiled", "cli.pool_wait"]),
    "kernel.patterns_per_s": ("1/s", _KERNEL),
    "cli.main_self_s": ("s", ["cli.main"]),
    "cli.scan_self_s": ("s", ["cli.cmd_scan"]),
    "cli.fibers_self_s": ("s", ["cli.cmd_fibers"]),
    "cli.write_s": ("s", ["cli.emit"]),
    "cli.bytes_written": ("B", ["cli.emit"]),
    "cli.pool_wait_s": ("s", ["cli.pool_wait"]),
    "dynamics.verify_s": ("s", ["dynamics.iterate_cycle", "dynamics.general_iterate_cycle"]),
    "dynamics.verify_s.iterate_cycle": ("s", ["dynamics.iterate_cycle"]),
    "dynamics.verify_s.general_iterate_cycle": ("s", ["dynamics.general_iterate_cycle"]),
    "dynamics.orbits_verified": (
        "count", ["dynamics.iterate_cycle", "dynamics.general_iterate_cycle"]),
    "dynamics.orbits_verified.iterate_cycle": ("count", ["dynamics.iterate_cycle"]),
    "dynamics.orbits_verified.general_iterate_cycle": (
        "count", ["dynamics.general_iterate_cycle"]),
    "dynamics.us_per_orbit": (
        "us", ["dynamics.iterate_cycle", "dynamics.general_iterate_cycle", "cycle.resolve"]),
    "cycle.resolve_s": ("s", ["cycle.resolve"]),
    "semilinear.bruteforce_s": ("s", ["semilinear.bruteforce"]),
    "semilinear.detect_s": ("s", ["semilinear.detect"]),
    "semilinear.rows": ("count", ["semilinear.bruteforce"]),
    "semilinear.rows_agree": ("count", []),
    "trace.root_s": ("s", ["cli.main"]),
    "trace.unattributed_s": ("s", ["cli.main"]),
    "trace.overhead_s": ("s", []),
}


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def missing_spans(doc) -> set[str]:
    """Span names whose hook could not be installed."""
    missing = {span for module_name, attr, span, _count in HOOKS
               if f"{module_name}.{attr}" in doc["missing"]}
    if ".".join(POOL_HOOK) in doc["missing"]:
        missing.add("cli.pool_wait")
    return missing


def layer_metrics(doc) -> dict[str, float | None]:
    """Per-layer metrics of one traced CLI run; None where a hook is missing."""
    spans, pid = doc["spans"], doc["pid"]
    children: dict[int, list] = {}
    for name, s, e, parent, spid, _count in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    root = None
    for idx, (name, s, e, parent, spid, count) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (e - s)
        calls[name] = calls.get(name, 0) + 1
        items[name] = items.get(name, 0) + count
        if spid == pid:
            own = (e - s) - _covered(s, e, children.get(idx, ()))
            self_s[name] = self_s.get(name, 0.0) + own
            if parent < 0 and name == "cli.main":
                root = e - s

    def t(name):
        return total.get(name, 0.0)

    def own(name):
        return self_s.get(name, 0.0)

    kernel_busy = t("kernel.pure") + t("kernel.compiled")
    kernel_cells = calls.get("kernel.pure", 0) + calls.get("kernel.compiled", 0)
    kernel_patterns = items.get("kernel.pure", 0) + items.get("kernel.compiled", 0)
    orbits = calls.get("dynamics.iterate_cycle", 0) + calls.get("dynamics.general_iterate_cycle", 0)
    verify_total = t("dynamics.iterate_cycle") + t("dynamics.general_iterate_cycle")
    root = root or 0.0
    values = {
        "kernel.busy_s": kernel_busy,
        "kernel.cells": kernel_cells,
        "kernel.cells_pure": calls.get("kernel.pure", 0),
        "kernel.cells_compiled": calls.get("kernel.compiled", 0),
        "kernel.patterns_per_s": kernel_patterns / kernel_busy if kernel_busy else 0.0,
        "cli.main_self_s": own("cli.main"),
        "cli.scan_self_s": own("cli.cmd_scan"),
        "cli.fibers_self_s": own("cli.cmd_fibers"),
        "cli.write_s": t("cli.emit"),
        "cli.bytes_written": items.get("cli.emit", 0),
        "cli.pool_wait_s": t("cli.pool_wait"),
        "dynamics.verify_s": own("dynamics.iterate_cycle") + own("dynamics.general_iterate_cycle"),
        "dynamics.verify_s.iterate_cycle": own("dynamics.iterate_cycle"),
        "dynamics.verify_s.general_iterate_cycle": own("dynamics.general_iterate_cycle"),
        "dynamics.orbits_verified": orbits,
        "dynamics.orbits_verified.iterate_cycle": calls.get("dynamics.iterate_cycle", 0),
        "dynamics.orbits_verified.general_iterate_cycle": calls.get(
            "dynamics.general_iterate_cycle", 0),
        "dynamics.us_per_orbit": verify_total / orbits * 1e6 if orbits else 0.0,
        "cycle.resolve_s": t("cycle.resolve"),
        "semilinear.bruteforce_s": own("semilinear.bruteforce"),
        "semilinear.detect_s": t("semilinear.detect"),
        "semilinear.rows": calls.get("semilinear.bruteforce", 0),
        "trace.root_s": root,
        "trace.unattributed_s": root - sum(self_s.values()),
    }
    missing = missing_spans(doc)
    for metric, (_unit, needs) in PER_LAYER.items():
        if missing.intersection(needs):
            values[metric] = None
    return values
