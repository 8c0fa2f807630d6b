"""Per-layer tracing by wrapping the library's module-level functions.

Each layer function is wrapped in the module whose namespace calls it (a
function imported by name is looked up in the importer's namespace, so the
defining module is the wrong place to patch it).  A wrapper records calls,
total time and self time (its span minus the spans of wrapped functions it
called).  Aggregates stay in memory; nothing is written until the run ends.

A target that no longer exists is recorded as missing, and a layer whose
targets are all missing is reported as absent.
"""

from __future__ import annotations

import importlib
from statistics import median
from time import perf_counter

# (metric prefix, [(module, attribute), ...])
# The driver spans are entered by only the 1D or only the 2D driver.  Their
# calls feed `stages` and all of them go into the report's spans table, but
# none is a listed metric: each would read 0 on one of the workloads.
DRIVER_SPANS = (
    ("timestep.rk_step", [("timestep", "rk_step")]),
    ("operator.build_H", [("timestep", "build_H")]),
    ("operator.build_H_2d", [("solver2d", "build_H_2d")]),
    ("solver2d.compute_bounds_2d", [("solver2d", "compute_bounds_2d")]),
)
# Spans entered by both drivers; each gives calls, total_s and self_s.
LAYER_SPANS = (
    ("core.compute_bounds", [("timestep", "compute_bounds"),
                             ("solver2d", "compute_bounds")]),
    ("operator.convection", [("operator", "_convection")]),
    ("operator.diffusion", [("operator", "_diffusion")]),
    ("operator.flux_split", [("operator", "flux_split")]),
    # _d_pair/_d_zero are reached from operator's namespace only by the k=3
    # cross term
    ("operator.cross_term", [("operator", "_d_pair"), ("operator", "_d_zero")]),
    ("kernelops.d_chain_pair", [("operator", "d_chain_pair")]),
    ("kernelops.d_chain_zero", [("operator", "d_chain_zero")]),
    ("filtering.xi", [("operator", "xi")]),
    ("filtering.sigma_fields", [("operator", "sigma_fields")]),
    ("kernelops.local_integrals", [("kernelops", "local_integrals")]),
    ("kernelops.sweep", [("kernelops", "sweep_left"), ("kernelops", "sweep_right")]),
    ("kernelops.boundary_coefficients", [("kernelops", "boundary_coefficients")]),
    ("quadrature.weno_integrals", [("quadrature", "weno_integrals")]),
    ("quadrature.linear_integrals", [("quadrature", "linear_integrals")]),
    ("quadrature.small_stencil_coefficients",
     [("quadrature", "small_stencil_coefficients")]),
    ("quadrature.linear_weights", [("quadrature", "linear_weights")]),
)
SPANS = DRIVER_SPANS + LAYER_SPANS

BYTES_PER_ELEMENT = 8


class Tracer:
    """Installs the wrappers for one traced pass and restores the originals."""

    def __init__(self):
        self.stats = {}          # span -> [calls, total_s, self_s]
        self.stack = []          # open spans: [start, time in child spans]
        self.missing = []        # "module.attribute" targets not found
        self.nu_seen = set()     # nu of every coefficient-table build
        self.sweep_elements = 0  # elements through the recursive sweeps
        self._restore = []
        self._observe = {"quadrature.small_stencil_coefficients": self._table_build,
                         "kernelops.sweep": self._sweep}

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        observe = self._observe.get(name)

        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = perf_counter() - frame[0]
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[1]
                if stack:
                    stack[-1][1] += span

        return traced

    def _table_build(self, nu, *args, **kwargs):
        self.nu_seen.add(float(nu))

    def _sweep(self, J, *args, **kwargs):
        self.sweep_elements += J.size

    def __enter__(self):
        for name, targets in SPANS:
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(f"advdiff.{module_name}")
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(name, original))
                self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def absent(self):
        """Spans none of whose targets exist."""
        return sorted(name for name, _ in SPANS if name not in self.stats)

    def counts(self):
        """The exact counts of one pass, which repeat between runs."""
        out = {name + ".calls": s[0] for name, s in self.stats.items()}
        out["kernelops.sweep.elements"] = self.sweep_elements
        out["quadrature.coef_tables.distinct_nu"] = len(self.nu_seen)
        return out


def layer_metrics(passes, steps, traced_wall, untraced_wall):
    """The metrics listed in BENCHMARK.json, from the tracers of the traced passes.

    Counts come from the first pass (the caller checks that they repeat);
    times are medians over the passes.
    """
    first = passes[0]
    counts = first.counts()
    metrics = {}
    for name, (calls, total, own) in span_table(passes, LAYER_SPANS).items():
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".total_s"] = (total, "s")
        metrics[name + ".self_s"] = (own, "s")
    if "quadrature.small_stencil_coefficients" in first.stats:
        builds = counts["quadrature.small_stencil_coefficients.calls"]
        distinct = counts["quadrature.coef_tables.distinct_nu"]
        metrics["quadrature.coef_tables.builds"] = (builds, "count")
        metrics["quadrature.coef_tables.distinct_nu"] = (distinct, "count")
        metrics["quadrature.coef_tables.useful_ratio"] = (distinct / builds if builds else 0.0, "ratio")
    if "kernelops.sweep" in first.stats:
        elements = counts["kernelops.sweep.elements"]
        metrics["kernelops.sweep.elements"] = (elements, "count")
        # computed, not measured: each element reads J and writes I once
        metrics["kernelops.sweep.bytes_computed"] = (2 * BYTES_PER_ELEMENT * elements, "B")
    stages = sum(counts.get(f"operator.{n}.calls", 0) for n in ("build_H", "build_H_2d"))
    metrics["steps"] = (steps, "count")
    metrics["stages"] = (stages, "count")
    metrics["trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def span_table(passes, spans=SPANS):
    """Calls, total and self time of every present span, in the order given;
    times are medians over the passes."""
    return {name: [passes[0].stats[name][0],
                   median([t.stats[name][1] for t in passes]),
                   median([t.stats[name][2] for t in passes])]
            for name, _ in spans if name in passes[0].stats}

