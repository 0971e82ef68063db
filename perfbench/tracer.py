"""Span tracer that measures lqreduce layer by layer from outside the package.

`Tracer.installed()` wraps every public function defined in the modules of
`lqreduce` (one layer per module) and `numpy.linalg.svd`.  The package binds
helpers with `from .linalg import independent_rows` and the like, so a
wrapper is rebound under every name, in every lqreduce module, that refers
to the original function; patching only the defining module would miss
calls such as `ReductionResult.final_constraints` -> `independent_rows` or
`run_sweep` -> `reduce`.

Each call made while `recording` is on becomes a span (id, parent id, name,
start, end).  A span's self time is its duration minus the time its child
spans cover.  Spans stay in memory until `summary()` folds them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "model", "reduction", "constraints", "classify", "oracle",
           "experiments", "cli")


def svd_flops(shape, full_matrices=True, compute_uv=True) -> float:
    """Golub & Van Loan (Matrix Computations, 3rd ed., Fig. 5.4.1) counts.

    For an m x n matrix with m >= n (transpose otherwise): 4mn^2 - 4n^3/3
    for singular values only, 14mn^2 + 8n^3 with thin U and V, and
    4m^2n + 8mn^2 + 9n^3 with the full U.  Computed from shapes, not
    measured.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    if full_matrices:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
    return 14.0 * m * n * n + 8.0 * n ** 3


def _svd_counters(counters, args, kwargs, result):
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    counters["linalg.svd.flops_est"] += svd_flops(np.shape(args[0]), full, uv)


def _independent_rows_counters(counters, args, kwargs, result):
    m = np.asarray(args[0])
    counters["linalg.independent_rows.rows_in"] += m.shape[0] if m.ndim == 2 else 1
    counters["linalg.independent_rows.rows_out"] += result.shape[0]


def _reduce_counters(counters, args, kwargs, result):
    counters["reduction.passes"] += result.index_k


def _oracle_counters(counters, args, kwargs, result):
    counters["oracle.passes"] += result.index_k


COUNTERS = {
    "linalg.svd": _svd_counters,
    "linalg.independent_rows": _independent_rows_counters,
    "reduction.reduce": _reduce_counters,
    "oracle.recursive_reduce": _oracle_counters,
}


class Tracer:
    """Collects spans and counters for the calls made while recording."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end, self_s)
        self.counters = defaultdict(int)
        self.recording = False
        self.names = []  # every span name of the last install, called or not
        self._stack = []  # [span_id, seconds covered by children]
        self._next_id = 0

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def _wrap(self, name, fn):
        on_return = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end, duration - frame[1]))
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every public lqreduce function and numpy.linalg.svd to a wrapper."""
        package = importlib.import_module("lqreduce")
        modules = [package] + [importlib.import_module(f"lqreduce.{m}") for m in MODULES]
        wrappers = {}
        self.names = ["linalg.svd"]
        for short in MODULES:
            module = importlib.import_module(f"lqreduce.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                    self.names.append(f"{short}.{attr}")
        patches = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
        patches.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap("linalg.svd", np.linalg.svd)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def summary(self) -> dict:
        """Per wrapped span name: calls and self seconds; plus the counters."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for _, _, name, _, _, self_s in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        return {"spans": dict(out), "counters": dict(self.counters)}
