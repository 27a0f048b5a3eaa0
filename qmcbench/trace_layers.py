"""Per-layer tracing of qmctree from outside, without editing its source.

``Tracer`` replaces each listed public function wherever a qmctree module
has bound it (``recovery.matrix_function`` is a different binding from
``linalg.matrix_function``), plus ``numpy.linalg.eigh``/``eigvalsh``, for
the duration of a ``with`` block in this process only.  Each wrapper is a
span: it counts calls and keeps self time, the span's duration minus the
time of the spans it encloses.  Eigensolver calls are counted only when
the caller is a qmctree module, so the oracle's own checks never show.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute); "Class.method" wraps a method in place
SPANS = {
    "layout.partial_trace": ("layout", "partial_trace"),
    "layout.embed": ("layout", "embed"),
    "linalg.matrix_function": ("linalg", "matrix_function"),
    "linalg.hermitian_eig": ("linalg", "hermitian_eig"),
    "linalg.trace_distance": ("linalg", "trace_distance"),
    "states.DensityOperator": ("states", "DensityOperator.__init__"),
    "states.marginal": ("states", "DensityOperator.marginal"),
    "states.von_neumann_entropy": ("states", "von_neumann_entropy"),
    "states.relative_entropy": ("states", "relative_entropy"),
    "recovery.check_qmc_compatibility": ("recovery", "check_qmc_compatibility"),
    "recovery.petz_recover": ("recovery", "petz_recover"),
    "maxent.expectation_constraints": ("maxent", "expectation_constraints"),
    "maxent.minimize_dual": ("maxent", "minimize_dual"),
    "tree.learn_tree": ("tree", "learn_tree"),
    "tree.tree_recover": ("tree", "tree_recover"),
    "tree.delta_s": ("tree", "delta_s"),
    "tree.chow_liu_tree": ("tree", "chow_liu_tree"),
    "fileio.read_density": ("fileio", "read_density"),
    "fileio.write_density": ("fileio", "write_density"),
    "cli.main": ("cli", "main"),
}
EIG_SPANS = {"linalg.eigh": "eigh", "linalg.eigvalsh": "eigvalsh"}

# (metric, unit, better) in report order; see README for what each moves
PER_LAYER = [
    ("layout.partial_trace.calls", "count", "lower"),
    ("layout.partial_trace.self_ms", "ms", "lower"),
    ("layout.embed.calls", "count", "lower"),
    ("layout.embed.self_ms", "ms", "lower"),
    ("linalg.matrix_function.calls", "count", "lower"),
    ("linalg.matrix_function.self_ms", "ms", "lower"),
    ("linalg.hermitian_eig.calls", "count", "lower"),
    ("linalg.hermitian_eig.self_ms", "ms", "lower"),
    ("linalg.trace_distance.calls", "count", "lower"),
    ("linalg.trace_distance.self_ms", "ms", "lower"),
    ("linalg.eigh.calls", "count", "lower"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eig.self_ms", "ms", "lower"),
    ("linalg.eig.work_gd3", "GD3", "lower"),
    ("states.DensityOperator.calls", "count", "lower"),
    ("states.DensityOperator.self_ms", "ms", "lower"),
    ("states.marginal.calls", "count", "lower"),
    ("states.von_neumann_entropy.calls", "count", "lower"),
    ("states.von_neumann_entropy.self_ms", "ms", "lower"),
    ("states.relative_entropy.calls", "count", "lower"),
    ("states.relative_entropy.self_ms", "ms", "lower"),
    ("recovery.check_qmc_compatibility.calls", "count", "lower"),
    ("recovery.check_qmc_compatibility.self_ms", "ms", "lower"),
    ("recovery.petz_recover.calls", "count", "lower"),
    ("recovery.petz_recover.self_ms", "ms", "lower"),
    ("maxent.expectation_constraints.self_ms", "ms", "lower"),
    ("maxent.minimize_dual.calls", "count", "lower"),
    ("maxent.minimize_dual.self_ms", "ms", "lower"),
    ("maxent.newton_iterations", "count", "lower"),
    ("tree.learn_tree.self_ms", "ms", "lower"),
    ("tree.tree_recover.calls", "count", "lower"),
    ("tree.tree_recover.self_ms", "ms", "lower"),
    ("tree.delta_s.self_ms", "ms", "lower"),
    ("tree.chow_liu_tree.self_ms", "ms", "lower"),
    ("fileio.read_density.calls", "count", "lower"),
    ("fileio.read_density.self_ms", "ms", "lower"),
    ("fileio.write_density.calls", "count", "lower"),
    ("fileio.write_density.self_ms", "ms", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """Context manager that installs the wrappers and collects totals."""

    def __init__(self, package):
        self.package = package
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []

    # -- span bookkeeping -------------------------------------------------

    def _span(self, name, fn, after=None):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                self_ns[name] += dur - child
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _eig_span(self, name, fn):
        inner = self._span(name, fn)
        counters = self.counters

        def wrapper(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith(self.package.__name__):
                return fn(a, *args, **kwargs)
            d = np.shape(a)[-1]
            counters["linalg.eig.work_gd3"] += d ** 3 / 1e9
            return inner(a, *args, **kwargs)

        return wrapper

    def _after(self, name):
        counters = self.counters
        if name == "maxent.minimize_dual":
            def after(args, kwargs, result):
                counters["maxent.newton_iterations"] += result.iterations
        elif name == "fileio.read_density":
            def after(args, kwargs, result):
                counters["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name == "fileio.write_density":
            def after(args, kwargs, result):
                counters["fileio.bytes_written"] += os.path.getsize(args[0])
        else:
            after = None
        return after

    # -- install / remove -------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        homes = {mod: importlib.import_module(f"{self.package.__name__}.{mod}")
                 for mod, _ in SPANS.values()}
        modules = [self.package] + [
            m for n, m in sorted(sys.modules.items())
            if n.startswith(self.package.__name__ + ".") and m is not None
        ]
        for name, (mod_name, attr) in SPANS.items():
            home = homes[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._span(name, cls.__dict__[meth], self._after(name)))
                continue
            original = getattr(home, attr)
            wrapped = self._span(name, original, self._after(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for name, attr in EIG_SPANS.items():
            self._set(np.linalg, attr, self._eig_span(name, getattr(np.linalg, attr)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for key, _, _ in PER_LAYER:
            if key.endswith(".calls"):
                out[key] = self.calls[key[:-len(".calls")]]
            elif key.endswith(".self_ms"):
                span = key[:-len(".self_ms")]
                if span == "linalg.eig":
                    ns = sum(self.self_ns[s] for s in EIG_SPANS)
                else:
                    ns = self.self_ns[span]
                out[key] = ns / 1e6
            elif not key.startswith("trace."):
                out[key] = self.counters[key]
        return out
