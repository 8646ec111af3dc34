"""Simulation and verification toolkit for transport driven by rough noise.

Subpackages are organized by role: lattice Brownian inputs (wiener), the
fractional kernels and Hermite-class noise built on them (kernels, noise),
regularization-based integrals and quadratic variation (rv), characteristic
flows and the transport solution (flow, transport), first-variation /
Malliavin diagnostics (malliavin), and the experiment drivers behind the
command line tool (experiments, cli).
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    NumericError,
    ResolutionError,
    SampleSizeError,
    StochTransportError,
    UnsupportedOrderError,
)
from .flow import (
    DriftField,
    backward_ensemble,
    backward_flow,
    forward_ensemble,
    forward_flow,
    picard_solve,
)
from .grid import TimeGrid
from .kernels import HermiteSpec, c_H, d_H, hurst_prime, kernel_KH, kernel_L
from .malliavin import (
    BoundCheckReport,
    DensityReport,
    MalliavinPath,
    dY_closed_form,
    dY_integral_eq,
    dY_profile,
    density_bound_check,
    density_report,
    dy_norm_ensemble,
    dz_hermite,
    dz_norm_ensemble,
    dz_table,
    increment_derivative,
    mt_diagnostic,
)
from .noise import (
    NoisePath,
    lattice_covariance,
    lattice_variance,
    simulate_ensemble,
    simulate_fbm,
    simulate_fbm_circulant,
    simulate_hermite,
)
from .presets import DRIFT_PRESETS, U0_PRESETS, drift_preset, u0_preset
from .rv import (
    EpsilonSchedule,
    QVReport,
    covariation_eps,
    qv_certificate,
    symmetric_integral_eps,
)
from .transport import (
    InitialDatum,
    TestFunction,
    WeakFormReport,
    solution_field,
    weak_form_residual,
)
from .wiener import Perturbation, WienerLattice, generate, generate_increments

__all__ = [
    "DriftField",
    "backward_ensemble",
    "backward_flow",
    "forward_ensemble",
    "forward_flow",
    "picard_solve",
    "BoundCheckReport",
    "DensityReport",
    "MalliavinPath",
    "dY_closed_form",
    "dY_integral_eq",
    "dY_profile",
    "density_bound_check",
    "density_report",
    "dy_norm_ensemble",
    "dz_hermite",
    "dz_norm_ensemble",
    "dz_table",
    "increment_derivative",
    "mt_diagnostic",
    "lattice_covariance",
    "lattice_variance",
    "DRIFT_PRESETS",
    "U0_PRESETS",
    "drift_preset",
    "u0_preset",
    "EpsilonSchedule",
    "QVReport",
    "covariation_eps",
    "qv_certificate",
    "symmetric_integral_eps",
    "InitialDatum",
    "TestFunction",
    "WeakFormReport",
    "solution_field",
    "weak_form_residual",
    "ConvergenceError",
    "DomainError",
    "GridError",
    "NumericError",
    "ResolutionError",
    "SampleSizeError",
    "StochTransportError",
    "UnsupportedOrderError",
    "TimeGrid",
    "HermiteSpec",
    "c_H",
    "d_H",
    "hurst_prime",
    "kernel_KH",
    "kernel_L",
    "NoisePath",
    "simulate_ensemble",
    "simulate_fbm",
    "simulate_fbm_circulant",
    "simulate_hermite",
    "Perturbation",
    "WienerLattice",
    "generate",
    "generate_increments",
]

__version__ = "0.1.0"
