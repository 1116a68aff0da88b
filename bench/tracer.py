"""Spans and counters recorded from outside the library.

The tracer replaces library functions at the names their callers use
(``helmfosls.cli.assemble_fosls``, ``helmfosls.analysis.vector_eval``,
...) with wrappers, and restores them afterwards.  A span wrapper records
the call's layer, start, end and parent span; a counter wrapper only
counts calls, for functions called too often for a span each.  Spans are
kept in memory; the caller writes them out when the run ends.
"""

import importlib
import time
from collections import Counter

import numpy as np

# layer -> (metric of the layer's summed self time, call sites)
SPAN_SITES = {
    "cli": ("cli.self_s", ["helmfosls.cli:run_study"]),
    "mesh": ("mesh.build_s", [
        "helmfosls.cli:build_interval_mesh",
        "helmfosls.cli:MESH_BUILDERS[plane-wave-2d]",
        "helmfosls.mesh:build_square_mesh",
    ]),
    "spaces": ("spaces.build_s", [
        "helmfosls.cli:build_h1_space",
        "helmfosls.cli:build_hdiv_space",
        "helmfosls.spaces:build_h1_space",
        "helmfosls.spaces:build_hdiv_space",
    ]),
    "fosls": ("fosls.assemble_s", [
        "helmfosls.cli:assemble_fosls",
        "helmfosls.cli:assemble_classical_fem",
        "helmfosls.fosls:assemble_fosls",
    ]),
    "solver": ("solver.solve_s", [
        "helmfosls.cli:solve_hpd",
        "helmfosls.cli:solve_general",
        "helmfosls.solver:solve_hpd",
    ]),
    "analysis": ("analysis.errors_s", ["helmfosls.cli:compute_errors"]),
    "projection": ("projection.project_s", [
        "helmfosls.projection:project_hdiv_global",
    ]),
}

_EVALS = ("scalar_eval", "scalar_grad_eval", "vector_eval", "vector_div_eval")

# count metric -> call sites
COUNT_SITES = {
    "spaces.eval_calls": [
        f"helmfosls.{mod}:{name}" for mod in ("analysis", "fosls") for name in _EVALS
    ],
    "polyquad.rule_calls": [
        "helmfosls.fosls:simplex_quadrature",
        "helmfosls.fosls:gauss01",
        "helmfosls.analysis:simplex_quadrature",
        "helmfosls.spaces:gauss01",
        "helmfosls.projection:simplex_quadrature",
        "helmfosls.projection:gauss01",
        "helmfosls.projection:gauss_jacobi01",
    ],
    "projection.reference_calls": ["helmfosls.projection:project_reference"],
}


def _relative_residual(system, x):
    b = system.rhs
    return float(np.linalg.norm(system.matrix @ x - b) / np.linalg.norm(b))


def _observe(layer, result, record):
    """Exact counts and trust figures read off a layer's return value."""
    if layer == "fosls":
        record["fosls.dofs"] += int(result.n_total)
        record["fosls.nnz"] += int(result.matrix.nnz)
    elif layer == "solver":
        record["solver.cg_iterations"] += int(result.iterations)
    elif layer == "analysis":
        record.maximum("analysis.quad_drift_max", result.quad_drift)
    elif layer == "projection" and isinstance(result, tuple):
        record.maximum("projection.max_mismatch", result[1])


class Record(Counter):
    """Counts that add up and figures that keep their maximum."""

    def maximum(self, key, value):
        self[key] = max(self.get(key, 0.0), float(value))


def _resolve(site):
    """(container, key) for 'module:attr' or 'module:attr[key]'."""
    module_name, attr = site.split(":")
    container = importlib.import_module(module_name)
    if attr.endswith("]"):
        attr, key = attr[:-1].split("[")
        return getattr(container, attr), key
    return container, attr


def _get(container, key):
    if isinstance(container, dict):
        return container.get(key)
    return getattr(container, key, None)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Install with ``with tracer:``; read ``spans`` and ``record`` after."""

    def __init__(self):
        self.spans = []
        self.record = Record()
        self._stack = []
        self._saved = []
        self._solved = []  # residuals are recomputed after the timed run

    def _span_wrapper(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "layer": layer, "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            _observe(layer, result, self.record)
            if layer == "solver":
                self._solved.append((args[0] if args else kwargs["system"], result.solution))
            return result
        return wrapper

    def _count_wrapper(self, metric, fn):
        def wrapper(*args, **kwargs):
            self.record[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, site, make):
        container, key = _resolve(site)
        original = _get(container, key)
        if original is None:  # the caller no longer uses this name
            return
        self._saved.append((container, key, original))
        _set(container, key, make(original))

    def __enter__(self):
        for layer, (_, sites) in SPAN_SITES.items():
            for site in sites:
                self._patch(site, lambda fn, l=layer, s=site: self._span_wrapper(l, s, fn))
        for metric, sites in COUNT_SITES.items():
            for site in sites:
                self._patch(site, lambda fn, m=metric: self._count_wrapper(m, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            _set(*self._saved.pop())
        for system, x in self._solved:
            self.record.maximum("solver.max_rel_residual", _relative_residual(system, x))
        self._solved.clear()
        return False

    def layer_self_times(self):
        """Summed self time per layer: span time not covered by child spans."""
        child_time = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = Counter()
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            out[span["layer"]] += own
        return out
