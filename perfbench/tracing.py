"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces module attributes of ``mmfq`` with timing
wrappers and ``Tracer.uninstall`` restores them.  A wrapper goes into the
namespace that makes the call, because ``from ... import`` binds a name
per module: wrapping ``mmfq.riccati.solve_linear`` catches the Newton step
solves and nothing else.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np


def _step_solve(args, result, counts):
    n = float(np.shape(args[0])[0])  # the Kronecker system is n x n, n = pq
    counts["riccati.step_solve.flops_computed"] += 2.0 / 3.0 * n ** 3
    counts["riccati.step_solve.bytes_computed"] += 8.0 * n * n


def _sylvester(args, result, counts):
    p, q = np.shape(args[2])
    counts["perturb.sylvester.flops_computed"] += 2.0 / 3.0 * float(p * q) ** 3


def _newton(args, result, counts):
    counts["riccati.newton_iterations"] += result[1]


def _solve_psi(args, result, counts):
    _max(counts, "riccati.residual_max", result.residual)
    _max(counts, "riccati.rowsum_defect_max",
         float(np.abs(result.psi.sum(axis=1) - 1.0).max(initial=0.0)))


def _estimate_psi(args, result, counts):
    paths = args[1].replications * args[0].n_plus
    counts["simulate.estimate_psi.paths"] += paths
    counts["simulate.censored_paths"] += result.censored_fraction * paths


def _max(counts, key, value):
    counts[key] = max(counts.get(key, 0.0), float(value))


# (module, attribute, layer name, observer of the result)
WRAP_POINTS = [
    ("mmfq.core", "validate_model", "core.validate_model", None),
    ("mmfq.riccati", "validate_model", "core.validate_model", None),
    ("mmfq.bench", "validate_model", "core.validate_model", None),
    ("mmfq.riccati", "censor_zero_phases", "core.censor_zero_phases", None),
    ("mmfq.density", "censor_zero_phases", "core.censor_zero_phases", None),
    ("mmfq.riccati", "solve_psi", "riccati.solve_psi", _solve_psi),
    ("mmfq.bench", "solve_psi", "riccati.solve_psi", _solve_psi),
    ("mmfq.riccati", "solve_psi_at", "riccati.solve_psi_at", None),
    ("mmfq.bench", "solve_psi_at", "riccati.solve_psi_at", None),
    ("mmfq.riccati", "newton_riccati", "riccati.newton_riccati", _newton),
    ("mmfq.riccati", "solve_linear", "riccati.step_solve", _step_solve),
    ("mmfq.riccati", "_defect_correct", "riccati.defect_correct", None),
    ("mmfq.perturb", "expand", "perturb.expand", None),
    ("mmfq.bench", "expand", "perturb.expand", None),
    ("mmfq.perturb", "solve_sylvester", "perturb.sylvester", _sylvester),
    ("mmfq.perturb", "newton_riccati", "perturb.inner_newton", None),
    ("mmfq.density", "stationary_law", "density.stationary_law", None),
    ("mmfq.density", "first_order_law", "density.first_order_law", None),
    ("mmfq.density", "density_at", "density.density_at", None),
    ("mmfq.density", "density1_at", "density.density1_at", None),
    ("mmfq.density", "matrix_exp", "density.matrix_exp", None),
    ("mmfq.density", "conv_integral", "density.conv_integral", None),
    ("mmfq.simulate", "estimate_psi", "simulate.estimate_psi", _estimate_psi),
    ("mmfq.simulate", "estimate_density", "simulate.estimate_density", None),
    ("mmfq.bench", "error_norms", "bench.error_norms", None),
]

ROOT = "harness.op"


class Tracer:
    """Spans (id, parent id, op id, name, start, end) and result counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self.op_id = -1
        self._points = []
        for mod_name, attr, layer, observe in WRAP_POINTS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._points.append((module, attr, original,
                                 self._wrap(layer, original, observe)))

    def _wrap(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result, self.counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op_id, name, start, end))

    def install(self):
        for module, attr, _, wrapper in self._points:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._points:
            setattr(module, attr, original)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name.

        ``busy_s`` counts a span only when no enclosing span has the same
        name; ``self_s`` is a span's duration minus that of its children.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, parent, _, name, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[sid]
            ancestor = parent
            while ancestor >= 0 and by_id[ancestor][3] != name:
                ancestor = by_id[ancestor][1]
            if ancestor < 0:
                row["busy_s"] += end - start
        return dict(table)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{start!r},{end!r}\n")
