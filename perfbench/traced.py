#!/usr/bin/env python3
"""Run one qndsim CLI command in this process with its layer boundaries traced.

    python3 perfbench/traced.py SPANS.npz simulate --config run.cfg ...

Everything after SPANS.npz is passed to ``qndsim.cli.main``.  The package is
not modified: the functions each module calls across a layer boundary are
replaced, from outside, by wrappers that record one span per call (name,
start, end, parent) in memory.  When the command ends the spans are written
to SPANS.npz together with the facts a span cannot carry: how many process
pools were started, which KS calibration tables were built and how many
bytes ``analyze`` read.  The exit code is the command's.

Chunks that run in pool workers record their spans in the worker and send
them back attached to the chunk result; the parent adopts them as children
of the pool span.  ``time.perf_counter`` is the system-wide monotonic clock
on Linux, so worker and parent times are comparable.

A patched name that the package no longer has is skipped, so the trace
keeps working when a layer is removed; its metrics then read zero.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

# (module, attribute, span name): the call sites of every traced layer.
# Modules import their dependencies by name, so each caller's binding is
# patched, not the defining module's.
PATCHES = (
    ("qndsim.cli", "_cmd_simulate", "cli.simulate"),
    ("qndsim.cli", "_cmd_sweep", "cli.sweep"),
    ("qndsim.cli", "_cmd_analyze", "cli.analyze"),
    ("qndsim.cli", "load_config", "config.load_config"),
    ("qndsim.cli", "run_ensemble", "ensemble.run_ensemble"),
    ("qndsim.cli", "ensemble_stats", "ensemble.ensemble_stats"),
    ("qndsim.cli", "energy_histogram", "stats.energy_histogram"),
    ("qndsim.ensemble", "ensemble_stats", "ensemble.ensemble_stats"),
    ("qndsim.ensemble", "trajectory_rng", "ensemble.trajectory_rng"),
    ("qndsim.ensemble", "thermal_step", "dynamics.thermal_step"),
    ("qndsim.ensemble", "measure", "measurement.measure"),
    ("qndsim.ensemble", "estimate_t1", "stats.estimate_t1"),
    ("qndsim.ensemble", "gof_boltzmann", "stats.gof_boltzmann"),
    ("qndsim.ensemble", "heating_slope", "stats.heating_slope"),
    ("qndsim.stats", "_calibration_table", "stats.calibration_table"),
)


class Tracer:
    """Spans of one process in four flat arrays, plus the open-span stack."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.pool_starts = 0
        self.analyze_read_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int, start: float | None = None) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter() if start is None else start)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def export(self, first: int) -> tuple[array, array, array, array]:
        """Remove spans [first, end) and return them with parents relative
        to ``first`` (-1 for spans whose parent lies outside the slice)."""
        parents = array("i", (p - first if p >= first else -1 for p in self.parent[first:]))
        out = (self.name[first:], parents, self.start[first:], self.end[first:])
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[first:]
        return out

    def adopt(self, spans, parent: int) -> None:
        """Append spans exported by a worker under the given parent span."""
        names, parents, starts, ends = spans
        base = len(self.start)
        self.name.extend(names)
        self.parent.extend(array("i", (p + base if p >= 0 else parent for p in parents)))
        self.start.extend(starts)
        self.end.extend(ends)


def read_chars() -> int:
    """Bytes this process has read through read(2) so far (Linux ``rchar``;
    0 where the kernel does not report it)."""
    try:
        with open("/proc/self/io", "rb") as handle:
            for line in handle:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def install(tracer: Tracer) -> None:
    """Patch every traced call site of the already imported package."""
    for module_name, attr, span in PATCHES:
        module = sys.modules[module_name]
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(span, fn))

    ensemble = sys.modules["qndsim.ensemble"]
    run_chunk = getattr(ensemble, "_run_chunk", None)
    if run_chunk is not None:
        traced_chunk = tracer.wrap("ensemble.run_chunk", run_chunk)

        # functools.wraps keeps the qualified name, so the pool pickles the
        # wrapper by reference and a forked worker runs it too.
        @functools.wraps(run_chunk)
        def chunk(*args, **kwargs):
            first = len(tracer.start)
            result = traced_chunk(*args, **kwargs)
            if os.getpid() != tracer.pid and hasattr(result, "__dict__"):
                result._spans = tracer.export(first)
            return result

        ensemble._run_chunk = chunk

    pool_class = getattr(ensemble, "ProcessPoolExecutor", None)
    if pool_class is not None:
        pool_id = tracer.name_id("ensemble.pool")

        class TracedPool(pool_class):
            def __enter__(self):
                tracer.pool_starts += 1
                self._span = tracer.open(pool_id)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def map(self, fn, *iterables, **kwargs):
                for result in super().map(fn, *iterables, **kwargs):
                    spans = getattr(result, "__dict__", {}).pop("_spans", None)
                    if spans is not None:
                        tracer.adopt(spans, self._span)
                    yield result

        ensemble.ProcessPoolExecutor = TracedPool

    # what analyze reads, however it reads it (whole file, streamed, or less)
    cli = sys.modules["qndsim.cli"]
    analyze = getattr(cli, "_cmd_analyze", None)
    if analyze is not None:
        @functools.wraps(analyze)
        def counted(*args, **kwargs):
            before = read_chars()
            try:
                return analyze(*args, **kwargs)
            finally:
                tracer.analyze_read_bytes += read_chars() - before

        cli._cmd_analyze = counted


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: traced.py SPANS.npz QNDSIM-ARGS...", file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    root = tracer.open(tracer.name_id("process"), start=T0)
    imported = tracer.open(tracer.name_id("process.import"))
    import qndsim.cli  # noqa: F401  (imports every traced module)

    tracer.close(imported)
    install(tracer)
    code = tracer.wrap("cli.main", sys.modules["qndsim.cli"].main)(argv)
    tracer.close(root)

    import numpy as np

    tables = getattr(sys.modules["qndsim.stats"], "_null_tables", {})
    facts = {"pool_starts": tracer.pool_starts, "calibration_tables": [list(key) for key in tables],
             "analyze_read_bytes": tracer.analyze_read_bytes}
    np.savez(
        spans_path,
        name=np.frombuffer(tracer.name, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        names=np.array(tracer.names),
        facts=np.array(json.dumps(facts)),
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
