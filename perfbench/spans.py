"""Span recorder for one traced experiment run, kept outside the package.

The recorder wraps the functions that the stochtransport modules import from
each other (for example ``noise.pair_matrix`` as seen from ``malliavin`` and
``experiments``), so no source under ``src/`` changes.  Each call becomes a
span with name, start, end, thread and parent.  The parent is the innermost
open span of the calling thread; work submitted to a thread pool takes the
submitting thread's open span as its parent, so the blocks that
``experiments._simulate_blocks`` hands to its pool nest under it.  Spans stay
in memory and are written out by the caller when the run ends.

``layer_metrics`` turns the spans and the lru ``cache_info()`` deltas into
the per-layer numbers the benchmark reports.
"""

import dataclasses
import importlib
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (defining module, function) pairs that become spans.  Every module
# attribute that refers to the same function object is replaced, so calls
# through any import site are caught.
TRACED = (
    ("experiments", "run"),
    ("experiments", "_simulate_blocks"),
    ("experiments", "_write_csv"),
    ("wiener", "generate"),
    ("wiener", "generate_increments"),
    ("noise", "simulate_ensemble"),
    ("noise", "simulate_hermite"),
    ("noise", "_window_plan"),
    ("noise", "_window_scales"),
    ("noise", "_fbm_weights"),
    ("noise", "_pair_matrix_cached"),
    ("noise", "pair_matrix"),
    ("noise", "lattice_covariance"),
    ("noise", "lattice_variance"),
    ("kernels", "kernel_KH_matrix"),
    ("flow", "backward_ensemble"),
    ("flow", "backward_ensemble_trajectory"),
    ("malliavin", "dy_norm_ensemble"),
    ("malliavin", "dz_norm_ensemble"),
    ("malliavin", "mt_diagnostic"),
    ("malliavin", "density_report"),
    ("transport", "solution_field"),
    ("transport", "weak_form_residual"),
    ("rv", "symmetric_integral_eps"),
)

# lru caches whose hit/miss counts are reported, by span name.
CACHES = ("noise._window_plan", "noise._window_scales", "noise._fbm_weights",
          "noise._pair_matrix_cached")

# Arguments that carry the ensemble size, as (span name, positional index).
_ROWS_ARG = {
    "wiener.generate_increments": 2,
    "noise.simulate_ensemble": 3,
    "malliavin.dy_norm_ensemble": 3,
}


class Tracer:
    """Thread-aware in-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.drift_evals = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caches = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def _wrap(self, name, fn):
        cache_info = getattr(fn, "cache_info", None)
        rows_at = _ROWS_ARG.get(name)

        def traced(*args, **kwargs):
            parent = self.current()
            span_id = next(self._ids)
            stack = self._stack()
            before = cache_info() if cache_info else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "name": name, "start": start,
                        "end": end, "thread": threading.get_ident(),
                        "parent": parent}
                if before is not None:
                    after = cache_info()
                    span["hits"] = after.hits - before.hits
                    span["misses"] = after.misses - before.misses
                if rows_at is not None and len(args) > rows_at:
                    span["rows"] = len(args[rows_at])
                with self._lock:
                    self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def _count_drift(self, drift_preset):
        """Count b(t, x) calls of returned drifts, not their validation."""
        def counted_preset(*args, **kwargs):
            field = drift_preset(*args, **kwargs)
            b = field.b
            live = False

            def counted_b(t, x):
                if live:
                    with self._lock:
                        self.drift_evals += 1
                return b(t, x)

            field = dataclasses.replace(field, b=counted_b)
            live = True
            return field

        return counted_preset

    def _pool(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Runs each task with the submitter's open span as its parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task():
                    tracer._local.base = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.base = None

                return super().submit(task)

        return TracedPool

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace the traced functions in every loaded stochtransport module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "stochtransport" or key.startswith("stochtransport.")]
        swaps = {}
        for mod, fn_name in TRACED:
            name = f"{mod}.{fn_name}"
            fn = getattr(importlib.import_module(f"stochtransport.{mod}"), fn_name)
            if name in CACHES:
                self._caches[name] = fn
            swaps[id(fn)] = (fn, self._wrap(name, fn))
        presets = importlib.import_module("stochtransport.presets")
        swaps[id(presets.drift_preset)] = (presets.drift_preset,
                                           self._count_drift(presets.drift_preset))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in swaps:
                    setattr(module, attr, swaps[id(value)][1])
        experiments = importlib.import_module("stochtransport.experiments")
        experiments.ThreadPoolExecutor = self._pool()

    def cache_counts(self):
        """Current (hits, misses) of every reported lru cache."""
        return {name: tuple(fn.cache_info()[:2])
                for name, fn in self._caches.items()}


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _union(
            [k for k in kids if k[1] > k[0]])
    return out


def _ancestors(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def _outermost(spans, names, by_id):
    """Spans named in names that have no ancestor named in names."""
    return [s for s in spans if s["name"] in names
            and not any(a["name"] in names for a in _ancestors(s, by_id))]


def _busy(spans, names, by_id):
    return sum(s["end"] - s["start"] for s in _outermost(spans, names, by_id))


def _cold_cover(root, spans, by_id, names):
    """Time inside root covered by cache-missing calls of the named caches."""
    return _union([(s["start"], s["end"]) for s in spans
                   if s["name"] in names and s.get("misses")
                   and any(a["id"] == root["id"] for a in _ancestors(s, by_id))])


def layer_metrics(spans, cache_delta, drift_evals):
    """Per-layer numbers of one traced run (units: run.LAYER_UNITS).

    A ``.s`` figure is busy time summed over threads, so two pool threads
    working at once count twice; ``noise.cold_plan.s`` is wall time covered
    by cache-missing plan builds.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def total(name):
        return _busy(spans, {name}, by_id)

    def rows(name):
        return sum(s.get("rows", 0) for s in _outermost(spans, {name}, by_id))

    sims = _outermost(spans, {"noise.simulate_ensemble"}, by_id)
    plan_caches = {"noise._window_scales", "noise._fbm_weights"}
    sim_cold = sum(_cold_cover(s, spans, by_id, {"noise._window_scales"})
                   for s in sims)
    sim_plan = sum(_cold_cover(s, spans, by_id, plan_caches) for s in sims)
    dy_paths = rows("malliavin.dy_norm_ensemble")
    cold_plan = _union([(s["start"], s["end"]) for s in spans
                        if s["name"] in CACHES and s.get("misses")])
    return {
        "wiener.generate_increments.s": total("wiener.generate_increments"),
        "wiener.generate_increments.rows": rows("wiener.generate_increments"),
        "noise.cold_plan.s": cold_plan,
        "noise.window_scales.misses": cache_delta["noise._window_scales"][1],
        "noise.simulate_ensemble.cold_s": sim_cold,
        "noise.simulate_ensemble.s": total("noise.simulate_ensemble") - sim_plan,
        "noise.simulate_ensemble.rows": rows("noise.simulate_ensemble"),
        "noise.simulate_hermite.s": total("noise.simulate_hermite"),
        "noise.fbm_weights.misses": cache_delta["noise._fbm_weights"][1],
        "kernels.kernel_KH_matrix.s": total("kernels.kernel_KH_matrix"),
        "noise.pair_matrix.s": total("noise.pair_matrix"),
        "noise.pair_matrix.hits": cache_delta["noise._pair_matrix_cached"][0],
        "noise.pair_matrix.misses": cache_delta["noise._pair_matrix_cached"][1],
        "noise.lattice_moments.s": _busy(
            spans, {"noise.lattice_covariance", "noise.lattice_variance"}, by_id),
        "flow.backward_ensemble.s": total("flow.backward_ensemble"),
        "flow.ensemble.s": _busy(spans, {"flow.backward_ensemble",
                                         "flow.backward_ensemble_trajectory"}, by_id),
        "flow.drift_evals": drift_evals,
        "malliavin.dy_norm_ensemble.s": total("malliavin.dy_norm_ensemble"),
        "malliavin.dy_norm_ensemble.s_per_path": (
            total("malliavin.dy_norm_ensemble") / dy_paths if dy_paths else 0.0),
        "malliavin.dz_norm_ensemble.s": total("malliavin.dz_norm_ensemble"),
        "malliavin.mt_diagnostic.s": total("malliavin.mt_diagnostic"),
        "malliavin.density_report.s": total("malliavin.density_report"),
        "transport.solution_field.s": total("transport.solution_field"),
        "transport.weak_form_residual.self_s": sum(
            selfs[s["id"]] for s in spans
            if s["name"] == "transport.weak_form_residual"),
        "rv.symmetric_integral_eps.s": total("rv.symmetric_integral_eps"),
        "experiments.run.self_s": sum(
            selfs[s["id"]] for s in spans if s["name"] == "experiments.run"),
        "experiments.write_csv.s": total("experiments._write_csv"),
    }
