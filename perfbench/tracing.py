"""Runtime span tracing around rowcolproj's layer boundaries.

The tracer replaces public functions and methods of the library with
wrappers while it is installed and restores them afterwards; the
library's source is not touched. Each call records a span (name, start,
end, parent) in memory; spans are written to a file when the run ends.
A span's self time is its duration minus the durations of its direct
children, which are nested within it on the same thread.
"""

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _nbytes(obj):
    if isinstance(obj, tuple):
        return sum(_nbytes(x) for x in obj)
    return getattr(obj, "nbytes", 0)


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.counters = Counter()
        self._stack = [-1]

    def _wrap(self, name, fn, after):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(index)
            span_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(stack[-1], args, result)
            return result

        return traced

    def _count_bytes(self, boundary=None):
        """Add a call's array bytes in and out to affine.project's tally.

        With ``boundary`` set, only calls made directly inside a span of
        that name count.
        """
        def after(parent, args, result):
            if boundary is None or (parent >= 0 and self.names[self.span_name[parent]] == boundary):
                self.counters["affine.project.bytes"] += _nbytes(args[1:]) + _nbytes(result)
        return after

    def _count_solve(self, parent, args, trace):
        self.counters["solvers.iterations"] += len(trace.deltas) - 1
        if trace.converged:
            self.counters["solvers.iterations.converged"] += len(trace.deltas) - 1
            self.counters[f"solvers.converged.{trace.algorithm}"] += 1

    def _count_files(self, parent, args, paths):
        self.counters["harness.emit_outputs.bytes"] += sum(p.stat().st_size for p in paths)

    @contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        rcp = importlib.import_module("rowcolproj")
        harness = importlib.import_module("rowcolproj.harness")
        solvers = importlib.import_module("rowcolproj.solvers")
        # (owner, attribute, span name, hook); owners are where callers look the name up.
        points = [
            (rcp, "run_experiment", "harness.run_experiment", None),
            (rcp, "emit_outputs", "harness.emit_outputs", self._count_files),
            (harness, "draw_start", "harness.draw_start", None),
            (harness, "summarize", "harness.summarize", None),
            (harness, "run", "solvers.run", self._count_solve),
            (harness, "spectral_norm", "linalg.spectral_norm", None),
            (solvers, "frobenius_norm", "linalg.frobenius_norm", None),
            (rcp.HyperBox, "project", "box.project", None),
            (rcp.AffineMarginalSet, "project", "affine.project", self._count_bytes()),
            (rcp.ScaledMarginalOperator, "apply", "operator.apply",
             self._count_bytes("affine.project")),
            (rcp.ScaledMarginalOperator, "pinv_apply", "operator.pinv_apply",
             self._count_bytes("affine.project")),
        ]
        saved = []
        try:
            for owner, attr, name, hook in points:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
            "start_ns": np.asarray(self.span_start, dtype=np.int64),
            "end_ns": np.asarray(self.span_end, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def layer_stats(self):
        """{span name: (calls, total ns, self ns)} over every recorded span."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        width = len(self.names)
        calls = np.bincount(a["name"], minlength=width)
        total = np.bincount(a["name"], weights=duration, minlength=width)
        own = np.bincount(a["name"], weights=duration - child, minlength=width)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.names)}
