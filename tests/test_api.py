"""The public surface: the exported names, and the names the benchmark traces."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import stochtransport

ROOT = Path(__file__).resolve().parent.parent

# What the experiments, the README and the independent test oracles use.
PUBLIC = {
    # errors
    "ConvergenceError", "DomainError", "GridError", "NumericError",
    "ResolutionError", "SampleSizeError", "StochTransportError",
    "StructuralViolationError", "UnsupportedOrderError",
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
    "DriftField", "backward_ensemble", "backward_flow", "backward_trajectory",
    "forward_ensemble", "forward_flow", "picard_solve", "InitialDatum",
    "TestFunction", "WeakFormReport", "solution_field", "weak_form_residual",
    # derivatives and density diagnostics
    "BoundCheckReport", "DensityReport", "MalliavinPath", "dY_closed_form",
    "dY_integral_eq", "dY_profile", "density_bound_check", "density_report",
    "dy_norm_ensemble", "dz_fbm", "dz_hermite", "dz_norm_ensemble",
    "dz_table", "increment_derivative", "mt_diagnostic",
    # presets
    "DRIFT_PRESETS", "U0_PRESETS", "drift_preset", "u0_preset",
}


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
