"""Transport solutions by characteristics, and their weak-form verification.

The solution of  du + b(t,x) dx u + dx u d°Z = 0,  u(0,·) = u0  is the
composition u(t, x) = u0(Y_{0,t}(x)) with Y the inverse characteristic flow;
`u0.u0(backward_flow(b, Z, x, 0.0, t))` evaluates it pointwise.

`solution_field` tabulates u(s, x) for every grid time s <= t on a spatial
node set by evolving one forward mesh of characteristics and inverting it by
monotone interpolation: the forward flow maps a fine start mesh y_j to
X_{0,s}(y_j), strictly increasing in y_j, so Y_{0,s}(x) is read off by
interpolating x back onto each mesh row as the march solves it.  One
O(n * mesh) sweep replaces n * nodes backward solves; the interpolation
error is O(mesh spacing^2), far below the weak-form tolerances this feeds.

`weak_form_residual` checks the distributional identity

    int u(t)phi = int u0 phi + int_0^t int u b phi' dx ds
                + int_0^t int u b' phi dx ds + int_0^t [int u phi' dx] d°Z_s

with trapezoidal space/time quadrature and the mollified-increment estimator
for the d°Z term, and reports the left side and its mismatch with the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError
from .flow import _FD_TOL, DriftField, _fd_gap, _march, _sample
from .noise import NoisePath
from .rv import symmetric_integral_eps

_SAMPLE_X = np.linspace(-4.0, 4.0, 17)


@dataclass(frozen=True)
class InitialDatum:
    """Initial profile u0 with its derivative.

    Both callables must broadcast elementwise over arrays.  At construction,
    on a fixed sample of points, both must be finite and u0_prime must agree
    with centered finite differences of u0.
    """

    u0: Callable
    u0_prime: Callable

    def __post_init__(self):
        vals = _sample(self.u0, "u0", _SAMPLE_X)
        der = _sample(self.u0_prime, "u0_prime", _SAMPLE_X)
        if not _fd_gap(self.u0, der, _SAMPLE_X) <= _FD_TOL:
            raise DomainError("u0_prime disagrees with finite differences of u0")
        if vals.shape != _SAMPLE_X.shape:
            raise DomainError("u0 must broadcast elementwise over arrays")


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported smooth test function with analytic derivative.

    At construction the support must be a nonempty finite interval, phi
    must vanish at and just outside its edges, and phi_prime must be finite
    and agree with centered finite differences of phi inside it.
    """

    __test__ = False  # not a pytest class, despite the name

    phi: Callable
    phi_prime: Callable
    support: tuple[float, float]

    def __post_init__(self):
        a, b = self.support
        if not -np.inf < a < b < np.inf:
            raise DomainError("support must be a nonempty finite interval")
        margin = np.array([a, b, a - 0.01 * (b - a), b + 0.01 * (b - a)])
        if not np.max(np.abs(_sample(self.phi, "phi", margin))) <= 1e-12:
            raise DomainError("phi must vanish at and outside its support edges")
        xs = np.linspace(a + 0.05 * (b - a), b - 0.05 * (b - a), 17)
        if not _fd_gap(self.phi, _sample(self.phi_prime, "phi_prime", xs), xs) <= _FD_TOL:
            raise DomainError("phi_prime disagrees with finite differences of phi")

    @classmethod
    def bump(cls, center: float = 0.0, radius: float = 1.0) -> "TestFunction":
        """The smooth bump exp(-1/(1-z^2)) on |z| < 1, z = (x-center)/radius,
        and 0 elsewhere; its support is [center - radius, center + radius]."""
        c, r = float(center), float(radius)

        def phi(x):
            z = (np.asarray(x, dtype=float) - c) / r
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            out[inside] = np.exp(-1.0 / (1.0 - zi * zi))
            return out

        def phi_prime(x):
            z = (np.asarray(x, dtype=float) - c) / r
            out = np.zeros_like(z)
            inside = np.abs(z) < 1.0
            zi = z[inside]
            w = 1.0 - zi * zi
            out[inside] = np.exp(-1.0 / w) * (-2.0 * zi / (w * w)) / r
            return out

        return cls(phi=phi, phi_prime=phi_prime, support=(c - r, c + r))


def solution_field(u0: InitialDatum, b: DriftField, Z: NoisePath, t: float,
                   x_nodes: np.ndarray) -> np.ndarray:
    """u(s, x) for every grid time s <= t and x in x_nodes.

    Built from one forward characteristic mesh, spaced like the closest
    nodes and padded by max|Z| + sup|b| t + 0.5 on each side, which is more
    than a characteristic can travel by time t; returns shape
    (grid index of t + 1, len(x_nodes)); no mesh trajectory is held.
    """
    nodes = np.asarray(x_nodes, dtype=float)
    if np.any(np.diff(nodes) <= 0):
        raise DomainError("x_nodes must be strictly increasing")
    grid = Z.grid
    kt = grid.index_of(t)
    mesh_dx = float(np.min(np.diff(nodes))) if nodes.size > 1 else grid.dt
    pad = float(np.max(np.abs(Z.values[: kt + 1]))) + b.sup_norm_b * t + 0.5
    y_mesh = np.arange(nodes[0] - pad, nodes[-1] + pad + mesh_dx, mesh_dx)

    out = np.empty((kt + 1, nodes.size))

    def invert(j, row):
        if row[0] > nodes[0] or row[-1] < nodes[-1]:
            raise NumericError("characteristic mesh does not cover the nodes")
        if np.any(np.diff(row) <= 0):
            raise NumericError("forward mesh lost monotonicity; refine the grid")
        out[j] = u0.u0(np.interp(nodes, row, y_mesh))
    _march(b, grid, Z.values, y_mesh, 0, kt, 1, visit=invert)
    return out


@dataclass(frozen=True)
class WeakFormReport:
    """The left side of the weak identity and its mismatch with the right."""

    lhs: float
    residual: float
    relative_residual: float


def weak_form_residual(u0: InitialDatum, b: DriftField, Z: NoisePath,
                       phi: TestFunction, t: float, eps: float,
                       x_quadrature: np.ndarray) -> WeakFormReport:
    """Evaluate both sides of the weak identity at time t.

    x_quadrature must contain phi's support padded by at least one cell.
    """
    x = np.asarray(x_quadrature, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise DomainError("x_quadrature must be strictly increasing")
    a_s, b_s = phi.support
    cell = float(np.max(np.diff(x)))
    if x[0] > a_s - cell or x[-1] < b_s + cell:
        raise DomainError("x_quadrature must cover the support padded by one cell")

    grid = Z.grid
    kt = grid.index_of(t)
    u_field = solution_field(u0, b, Z, t, x)

    phi_x = np.asarray(phi.phi(x), dtype=float)
    dphi_x = np.asarray(phi.phi_prime(x), dtype=float)

    lhs = float(np.trapezoid(u_field[kt] * phi_x, x))
    term1 = float(np.trapezoid(np.asarray(u0.u0(x), dtype=float) * phi_x, x))

    times = grid.points[: kt + 1]
    bx = np.asarray(b.b(times[:, None], x), dtype=float)
    bpx = np.asarray(b.b_prime(times[:, None], x), dtype=float)
    inner2 = np.trapezoid(u_field * bx * dphi_x[None, :], x, axis=1)
    inner3 = np.trapezoid(u_field * bpx * phi_x[None, :], x, axis=1)
    term2 = float(np.trapezoid(inner2, times))
    term3 = float(np.trapezoid(inner3, times))

    g = np.zeros(grid.n + 1)
    g[: kt + 1] = np.trapezoid(u_field * dphi_x[None, :], x, axis=1)
    term4 = symmetric_integral_eps(g, Z.values, grid, eps, t)

    rhs = term1 + term2 + term3 + term4
    residual = abs(lhs - rhs)
    scale = max(abs(lhs), *(abs(v) for v in (term1, term2, term3, term4)))
    return WeakFormReport(
        lhs=lhs, residual=residual,
        relative_residual=residual / scale if scale > 0 else residual,
    )
