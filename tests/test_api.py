"""The public surface: the exported names, and the names the benchmark traces."""

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import stochtransport

ROOT = Path(__file__).resolve().parent.parent

# What the experiments, the README and the independent test oracles use.
PUBLIC = {
    # errors
    "ConvergenceError", "DomainError", "GridError", "NumericError",
    "ResolutionError", "SampleSizeError", "StochTransportError",
    "UnsupportedOrderError",
    # grid, Brownian driver, kernels, noise
    "TimeGrid", "Perturbation", "WienerLattice", "generate",
    "generate_increments", "HermiteSpec", "c_H", "d_H", "hurst_prime",
    "kernel_KH", "kernel_L", "NoisePath", "lattice_covariance",
    "lattice_variance", "simulate_ensemble", "simulate_fbm",
    "simulate_fbm_circulant", "simulate_hermite",
    # regularized calculus
    "EpsilonSchedule", "QVReport", "covariation_eps", "qv_certificate",
    "symmetric_integral_eps",
    # flows and transport
    "DriftField", "backward_ensemble", "backward_flow", "forward_ensemble",
    "forward_flow", "picard_solve", "InitialDatum",
    "TestFunction", "WeakFormReport", "solution_field", "weak_form_residual",
    # derivatives and density diagnostics
    "BoundCheckReport", "DensityReport", "MalliavinPath", "dY_closed_form",
    "dY_integral_eq", "dY_profile", "density_bound_check", "density_report",
    "dy_norm_ensemble", "dz_hermite", "dz_norm_ensemble",
    "dz_table", "increment_derivative", "mt_diagnostic",
    # presets
    "DRIFT_PRESETS", "U0_PRESETS", "drift_preset", "u0_preset",
}


# The parameters of every exported callable, in order; "name=" marks an
# optional one and "name**" a keyword catch-all.  A new option has to be
# added here on purpose.
SIGNATURES = {
    "DriftField": "b b_prime sup_norm_b sup_norm_bprime",
    "backward_ensemble": "b grid z_values x s t",
    "backward_flow": "b Z x s t",
    "forward_ensemble": "b grid z_values x s t",
    "forward_flow": "b Z x s t",
    "picard_solve": "b Z x t u tol=",
    "BoundCheckReport": "brackets floor_condition floor_universal passed",
    "DensityReport": "count x_grid density mass max_cdf_jump min_norm_sq",
    "MalliavinPath": "grid values",
    "dY_closed_form": "b Z DZ s t alpha x",
    "dY_integral_eq": "b Z DZ t alpha x",
    "dY_profile": "b Z s t x",
    "density_bound_check": "b grid z_values s t x",
    "density_report": "samples norms",
    "dy_norm_ensemble": "b grid spec z_values s t x dW= flow_weights=",
    "dz_hermite": "w t alpha spec",
    "dz_norm_ensemble": "grid spec dW t",
    "dz_table": "Z",
    "increment_derivative": "Z",
    "mt_diagnostic": "grid spec",
    "lattice_covariance": "grid spec s t",
    "lattice_variance": "grid spec t",
    "drift_preset": "name params**",
    "u0_preset": "name params**",
    "EpsilonSchedule": "values",
    "QVReport": "eps means stderrs slope target passed",
    "covariation_eps": "X Y grid eps t",
    "qv_certificate": "values grid H schedule t=",
    "symmetric_integral_eps": "Y X grid eps t",
    "InitialDatum": "u0 u0_prime",
    "TestFunction": "phi phi_prime support",
    "WeakFormReport": "lhs residual relative_residual",
    "solution_field": "u0 b Z t x_nodes",
    "weak_form_residual": "u0 b Z phi t eps x_quadrature",
    "TimeGrid": "T n",
    "HermiteSpec": "q H hp c d",
    "c_H": "H",
    "d_H": "q H",
    "hurst_prime": "q H",
    "kernel_KH": "t s H",
    "kernel_L": "t y spec",
    "NoisePath": "grid spec values source",
    "simulate_ensemble": "grid spec seed path_ids driver=",
    "simulate_fbm": "w H",
    "simulate_fbm_circulant": "grid H seed path_ids",
    "simulate_hermite": "w spec",
    "Perturbation": "a b delta",
    "WienerLattice": "grid seed path_id increments",
    "generate": "grid seed path_id=",
    "generate_increments": "grid seed path_ids",
}

# Public attributes of the exported classes beyond their dataclass fields.
CLASS_MEMBERS = {
    "DriftField": {"is_zero"},
    "BoundCheckReport": {"min_bracket"},
    "DensityReport": {"MASS_RANGE", "atom_bound", "mass_ok"},
    "MalliavinPath": set(),
    "EpsilonSchedule": {"dyadic"},
    "QVReport": {"rows"},
    "InitialDatum": set(),
    "TestFunction": {"bump"},
    "WeakFormReport": set(),
    "TimeGrid": {"dt", "index_of", "midpoints"},
    "HermiteSpec": {"create"},
    "NoisePath": {"driver"},
    "Perturbation": {"perturb", "step_mask"},
    "WienerLattice": set(),
}


def _exported():
    """(name, object) of every exported callable but the exceptions."""
    for name in stochtransport.__all__:
        obj = getattr(stochtransport, name)
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, BaseException)):
            yield name, obj


def _signature(obj) -> str:
    marks = {inspect.Parameter.VAR_KEYWORD: "**"}
    return " ".join(
        p.name + ("=" if p.default is not p.empty else marks.get(p.kind, ""))
        for p in inspect.signature(obj).parameters.values())


def test_signatures_are_pinned():
    """Every exported callable takes exactly the parameters listed above."""
    got = {name: _signature(obj) for name, obj in _exported()}
    assert got == SIGNATURES


# Callables outside __all__ whose keywords other modules pass by name.
MODULE_SIGNATURES = {
    "flow.backward_ensemble_trajectory": "b grid z_values x s t visit=",
}


def test_module_signatures_are_pinned():
    got = {}
    for path in MODULE_SIGNATURES:
        module, name = path.split(".")
        obj = getattr(importlib.import_module(f"stochtransport.{module}"), name)
        got[path] = _signature(obj)
    assert got == MODULE_SIGNATURES


def test_run_manifest_fields_are_pinned():
    """The fields of every manifest.json the command line writes."""
    from stochtransport.experiments import RunManifest
    assert [f.name for f in dataclasses.fields(RunManifest)] == [
        "kind", "config", "config_hash", "version", "started_utc",
        "wall_clock_s", "peak_rss_mb", "checks", "files", "passed"]


def test_class_members_are_pinned():
    got = {}
    for name, cls in _exported():
        if isinstance(cls, type):
            fieldnames = {f.name for f in dataclasses.fields(cls)}
            got[name] = {a for a in vars(cls)
                         if not a.startswith("_") and a not in fieldnames}
    assert got == CLASS_MEMBERS


def _array_holders():
    """Two builds with equal contents, fresh arrays, of every exported class
    that holds an array."""
    pkg = stochtransport
    grid = pkg.TimeGrid(T=1.0, n=8)

    def lattice():
        return pkg.WienerLattice(grid=grid, seed=1, path_id=0,
                                 increments=np.zeros(8))
    builds = {
        "WienerLattice": lattice,
        "NoisePath": lambda: pkg.NoisePath(
            grid=grid, spec=pkg.HermiteSpec.create(1, 0.7), values=np.zeros(9),
            source=lattice()),
        "MalliavinPath": lambda: pkg.MalliavinPath(grid=grid, values=np.zeros(8)),
        "EpsilonSchedule": lambda: pkg.EpsilonSchedule(values=np.array([0.5, 0.25])),
        "QVReport": lambda: pkg.QVReport(
            eps=np.ones(2), means=np.ones(2), stderrs=np.ones(2), slope=0.4,
            target=0.4, passed=True),
        "BoundCheckReport": lambda: pkg.BoundCheckReport(
            brackets=np.ones(2), floor_condition=0.9, floor_universal=0.8,
            passed=True),
        "DensityReport": lambda: pkg.DensityReport(
            count=2, x_grid=np.ones(2), density=np.ones(2), mass=1.0,
            max_cdf_jump=0.5, min_norm_sq=1.0),
    }
    return {name: (build(), build()) for name, build in builds.items()}


def test_array_holders_compare_by_identity():
    """A generated == would skip an array field or raise on it; these
    classes compare and hash by identity.  TimeGrid keeps value equality
    on (T, n): the plan caches key on it."""
    holders = _array_holders()
    with_arrays = {
        name for name, cls in _exported()
        if dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    assert with_arrays == set(holders) | {"TimeGrid"}
    for name, (a, b) in holders.items():
        assert a == a and not a == b and a != b, name
        assert len({a, b}) == 2, name


def test_exports_are_pinned():
    exported = stochtransport.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == PUBLIC
    for name in exported:
        assert hasattr(stochtransport, name), name


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(stochtransport.__path__)
    if m.name != "__main__"))  # importing __main__ runs the CLI
def test_star_import(module):
    """from stochtransport.<module> import * binds every name it lists."""
    namespace = {}
    exec(f"from stochtransport.{module} import *", namespace)
    for name in getattr(importlib.import_module(f"stochtransport.{module}"),
                        "__all__", ()):
        assert name in namespace, f"{module}.{name}"


def test_benchmark_traced_names_resolve():
    """perfbench/spans.py wraps these (module, function) pairs by name."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, name in spans.TRACED:
        mod = importlib.import_module(f"stochtransport.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"
    for cached in spans.CACHES:
        module, name = cached.split(".")
        fn = getattr(importlib.import_module(f"stochtransport.{module}"), name)
        assert callable(fn.cache_info), cached


def test_every_noise_cache_is_reported_by_the_benchmark():
    """The lru caches of noise are exactly the noise caches whose counters
    perfbench/spans.py reports (CACHES), so no plan cache goes unseen."""
    import stochtransport.noise as noise

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    caches = {f"noise.{name}" for name, fn in vars(noise).items()
              if hasattr(fn, "cache_info") and fn.__module__ == noise.__name__}
    assert caches == {c for c in spans.CACHES if c.startswith("noise.")}
    assert caches == {"noise._fbm_weights", "noise._window_plan",
                      "noise._window_scales", "noise._pair_matrix_cached"}
