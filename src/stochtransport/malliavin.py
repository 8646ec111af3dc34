"""First-variation (Malliavin) derivatives on the Wiener lattice.

On the discrete Wiener space spanned by the increments dW_i, the derivative
of a functional F at a point alpha inside step i is the coefficient of dW_i
in F, viewed as a step function of alpha:

rank 1:  D_alpha Z_t = K_H(t, m_i)                        (deterministic)
rank 2:  D_alpha Z_t = 2 d sum_j Lambda_t[i, j] dW_j      (order-1 chaos)

Both are exact derivatives of the values simulate_hermite produces, so
Cameron-Martin difference quotients close to first order in the shift with
no discretization gap: for rank 1 the quotient is independent of the shift
size, for rank 2 the remainder is exactly the quadratic term of the shift.

The inverse flow Y_{s,t}(x) satisfies a linear equation in the derivative:

    D_alpha Y_{s,t} = -int_s^t b'(u, Y_{u,t}) D_alpha Y_{u,t} du + DZ(s),
    DZ(u) := -(D_alpha Z_t - D_alpha Z_u),

solved here two independent ways that tests cross-check.  The closed form
is one discrete formula: the trapezoid rule turns the equation into a
lower-triangular system whose exact solution carries a Crank-Nicolson
integrating factor, the discrete exp(-int_s^r b'(v, Y_{v,t}) dv).  Summed
by parts, it is one signed weight vector omega (_cn_weights), sum 0:

    D_alpha Y_{s,t} = sum_r omega[r] D_alpha Z_{t_r},   t_r = s, ..., t,

for one alpha (dY_closed_form) or every alpha at once (dY_profile,
dy_norm_ensemble), so the profile equals the closed form to roundoff; where
the slope cannot move (s = t, or sup|b'| declared 0) omega = e_0 - e_m.
The oracle is forward substitution on the time-reversed Volterra form
(dY_integral_eq), which solves the same system step by step.

The rank enters only through D Z, whose kernel products live in noise
(_dz_rows, _dz_norm); this module is rank-agnostic.

Density diagnostics follow the standard criterion: a functional whose
derivative has positive L^2([0,T]) norm on almost every path has an
absolutely continuous law.  density_bound_check reads the flow bracket,
the discrete 2 - exp(-int_s^t b'(Y_{u,t}) du) that multiplies the noise
derivative in dY, as a running factor of the march, and density_report
inspects a Monte Carlo sample for atoms and for vanishing derivative norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
from scipy.stats import gaussian_kde

from .errors import DomainError, NumericError, ResolutionError, SampleSizeError
from .flow import (
    DriftField,
    _check_times,
    _time_first,
    backward_ensemble_trajectory,
)
from .grid import TimeGrid
from .kernels import HermiteSpec
from .noise import NoisePath, _dz_norm, _dz_rows, _lattice_gram, _probe_indices
from .wiener import WienerLattice

__all__ = [
    "MalliavinPath",
    "BoundCheckReport",
    "DensityReport",
    "dz_hermite",
    "dz_table",
    "dz_norm_ensemble",
    "dy_norm_ensemble",
    "increment_derivative",
    "dY_closed_form",
    "dY_integral_eq",
    "dY_profile",
    "mt_diagnostic",
    "density_bound_check",
    "density_report",
]

_UNIVERSAL_FLOOR = 1.0 - 0.5 * np.exp(-1.0)  # 1 + min of -x exp(-2x)
_FLOOR_SLACK = 1e-6
_VOLTERRA_TOL = 1e-10  # residual guard of dY_integral_eq, relative to |h|
_MIN_BOUND_PATHS = 100  # fewest paths density_bound_check accepts
_MIN_DENSITY_SAMPLES = 1000  # fewest samples density_report accepts
_CN_BLOCK = 4096  # slope values per block of rows in _cn_weights


@dataclass(frozen=True, eq=False)
class MalliavinPath:
    """A first-variation profile on a grid, stored read-only.

    values is one-dimensional with 1 to n+1 entries: dY_profile gives
    D_alpha F for alpha in each of the n steps, dY_integral_eq the
    derivative of a trajectory at each node for one fixed alpha.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or not 1 <= v.size <= self.grid.n + 1:
            raise DomainError(f"a profile needs 1 to n+1 = {self.grid.n + 1} "
                              f"values in one dimension, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _step_of(grid: TimeGrid, alpha: float) -> int:
    """Index of the lattice step containing alpha (alpha in [0, T))."""
    if alpha < 0:
        raise DomainError(f"alpha={alpha} is negative")
    a = int(np.searchsorted(grid.points, alpha, side="right")) - 1
    return min(a, grid.n - 1)


def dz_hermite(w: WienerLattice, t: float, alpha: float,
               spec: HermiteSpec) -> float:
    """D_alpha Z_t for the lattice noise driven by w.

    The entry of dz_table for t and the step a containing alpha.  rank 1:
    the kernel weight K_H(t, m_a) at the step midpoint (independent of the
    path; its continuum limit is kernels.kernel_KH(t, alpha, H)).  rank 2:
    the order-1 chaos sum 2 d (A_t @ dW)[a], from the cached pair matrix —
    the simulator's trace correction is deterministic and drops out — so
    difference quotients of simulated values close exactly.  A loop over
    alpha at one t costs O(k) per call after one build, not a table each.
    """
    if alpha < 0:
        raise DomainError(f"alpha={alpha} is negative")
    k = w.grid.index_of(t)
    if alpha >= t:
        return 0.0
    return float(_dz_rows(w.grid, spec, w.increments, (k, _step_of(w.grid, alpha))))


def dz_table(Z: NoisePath) -> np.ndarray:
    """All lattice derivatives of one noise path: G[k, a] = D_alpha Z_{t_k},
    shape (n+1, n), row k supported on steps a < k (noise._dz_rows): kernel
    rows at rank 1, the simulator's window pass transposed at rank 2."""
    return _dz_rows(Z.grid, Z.spec, Z.driver)


def increment_derivative(Z: NoisePath) -> Callable:
    """DZ(u, t, alpha) = D_alpha of the window term -(Z_t - Z_u), u <= t.

    u is calendar time and may be an array of lattice times; the result
    broadcasts.  Backed by the full lattice table, computed once.
    """
    G = dz_table(Z)
    grid = Z.grid
    dt = grid.dt

    def DZ(u, t: float, alpha: float):
        kt = grid.index_of(t)
        if alpha >= t:
            return np.zeros_like(np.asarray(u, dtype=float)) if np.ndim(u) else 0.0
        a = _step_of(grid, alpha)
        ku = np.rint(np.asarray(u, dtype=float) / dt).astype(int)
        if np.any(np.abs(np.asarray(u) - ku * dt) > grid._time_tol) or \
                np.any(ku < 0) or np.any(ku > kt):
            raise DomainError("u must be lattice times inside [0, t]")
        out = -(G[kt, a] - G[ku, a])
        return out if np.ndim(u) else float(out)

    return DZ


def _factor_ratios(a: np.ndarray) -> np.ndarray:
    """f = a / (1 + a) of half-step slopes a = dt b'/2 (see _cn_weights)."""
    if a.min() <= -1.0:
        raise ResolutionError("dt * b' <= -2 leaves the discrete "
                              "integrating factor undefined; refine the grid")
    return a / (a + 1.0)


def _cn_weights(w: np.ndarray, dt: float) -> np.ndarray:
    """Signed Crank-Nicolson flow weights omega in calendar order, in place.

    w holds the slopes gam[r] = b'(r, Y_{r,t}) of rows r = 0..m (time
    t_ks + r dt), m+1 rows of shape () or (paths,), and is overwritten by
    omega; the anchor row m is never read.  With c, d = 1 +- a,
    a = dt gam / 2, and the discrete integrating factor
    P[r] = (1/c_0) prod_{k=1..r} d_k / c_k,

        omega[0] = P[0],   omega[m] = -P[m-1],
        omega[r] = -a[r] (P[r] + P[r-1]) = P[r] - P[r-1]   (0 < r < m),

    so omega sums to zero, its running sum is P, omega @ G[ks:kt+1] solves
    the trapezoid Volterra system of dY_integral_eq exactly, and the flow
    bracket is 2 - d_m P[m-1] = 2 + (1 - a[m]) omega[m].  P is undefined
    where some c <= 0.  A forward recursion over blocks of
    max(1, _CN_BLOCK // paths) rows forms omega[r] = -2 P[r-1] f[r],
    f = a / c (differences of P would lose digits), and P[r] as the running
    sum of omega, so no rounded d / c is raised to a power.  It reads a
    block's slopes before it writes their weights.  A zero slope gives
    f = 0 exactly, so a zero drift gets omega = e_0 - e_m to the bit, and
    an empty window, m = 0, gets omega = [-0].
    """
    m, half_dt, p = w.shape[0] - 1, 0.5 * dt, 0.0
    step = max(1, _CN_BLOCK // w[0].size)
    for lo in range(0, m, step):
        f = _factor_ratios(np.multiply(w[lo:min(lo + step, m)], half_dt))
        g = -2.0 * f
        for r in range(lo, lo + len(f)):
            w[r] = p * g[r - lo] if r else 1.0 - f[0]
            p = p + w[r]
    w[m] = -p
    return w


def _ensemble_weights(b: DriftField, grid: TimeGrid, z: np.ndarray, x: float,
                      s: float, t: float, out: np.ndarray | None = None):
    """(Y_{s,t}(x), omega of [s, t]) per path of a (paths, n+1) ensemble z.

    The march covers [s, t] only and writes the slope b'(t_r, Y_{r,t}(x))
    of grid row ks + i into row i of out, (kt-ks+1, paths), which may be
    z.T[ks:kt+1], as it reads each noise row before it solves the state
    there.  _cn_weights turns the slopes into omega in place, elementwise
    in the paths: no slicing moves a bit.  For s = t omega is the one row
    [-0] and Y_{t,t}(x) = x.
    """
    ks, kt = _check_times(grid, s, t)
    w = np.empty((kt - ks + 1, _time_first(grid, z).shape[1])) if out is None else out

    def slopes(i, y):
        w[i] = b.b_prime(grid.points[ks + i], y)
    y = backward_ensemble_trajectory(b, grid, z, x, s, t, visit=slopes)
    return y, _cn_weights(w, grid.dt)


def dY_closed_form(b: DriftField, Z: NoisePath, DZ: Callable, s: float,
                   t: float, alpha: float, x: float) -> float:
    """D_alpha Y_{s,t}(x) = omega @ h with h = DZ(t_ks..t_kt).

    omega are the flow weights (_cn_weights); they sum to zero, so for
    the increment_derivative convention h = G - G[kt] (h[m] = 0 by
    adaptedness) omega @ h = omega @ G[ks:kt+1], which dY_profile reads
    too.  They solve the trapezoid Volterra system that dY_integral_eq
    solves sequentially, so all three routes agree to roundoff.
    """
    grid = Z.grid
    ks, kt = _check_times(grid, s, t)
    if alpha >= t:
        return 0.0
    w = _ensemble_weights(b, grid, Z.values[None], x, s, t)[1][:, 0]
    return float(w @ np.asarray(DZ(grid.points[ks:kt + 1], t, alpha), dtype=float))


def dY_profile(b: DriftField, Z: NoisePath, s: float, t: float,
               x: float) -> MalliavinPath:
    """The whole alpha-profile of D Y_{s,t}(x) in one vectorized pass."""
    grid = Z.grid
    ks, kt = _check_times(grid, s, t)
    G = dz_table(Z)
    w = _ensemble_weights(b, grid, Z.values[None], x, s, t)[1][:, 0]
    return MalliavinPath(grid=grid, values=w @ G[ks:kt + 1])


def dz_norm_ensemble(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray,
                     t: float) -> np.ndarray:
    """||D Z_t||^2_{L^2} per path for a (paths, n) matrix of increments:
    the s = 0, omega = e_0 - e_m case of noise._dz_norm."""
    dW = np.asarray(dW, dtype=float)
    if dW.ndim != 2 or dW.shape[1] != grid.n:
        raise DomainError(f"increments shape {dW.shape} does not match the grid")
    return _dz_norm(grid, spec, dW, dW.shape[0], 0, grid.index_of(t))


def dy_norm_ensemble(b: DriftField, grid: TimeGrid, spec: HermiteSpec,
                     z_values: np.ndarray, s: float, t: float, x: float,
                     dW: np.ndarray | None = None,
                     flow_weights: np.ndarray | None = None) -> np.ndarray:
    """||D Y_{s,t}(x)||^2_{L^2} per path, V = omega.T @ G[ks:kt+1] (_cn_weights).

    z_values is the (paths, n+1) noise ensemble; rank 2 also needs its
    increments dW.  For s = t or a drift declaring sup_norm_bprime == 0,
    omega = e_0 - e_m (noise._dz_norm's closed form, no flow).
    flow_weights optionally supplies the omega of _ensemble_weights, shape
    (index(t) - index(s) + 1, paths), which a caller can build slice by
    slice.
    """
    P = _time_first(grid, z_values).shape[1]
    ks, kt = _check_times(grid, s, t)
    if dW is not None:
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (P, grid.n):
            raise DomainError("dW must pair with z_values row by row")
    if ks == kt or b.sup_norm_bprime == 0.0:
        return _dz_norm(grid, spec, dW, P, ks, kt)
    w = _ensemble_weights(b, grid, z_values, x, s, t)[1] if flow_weights is None \
        else np.asarray(flow_weights, dtype=float)
    if w.shape != (kt - ks + 1, P):
        raise DomainError(f"flow weights have shape {w.shape}, "
                          f"expected {(kt - ks + 1, P)}")
    return _dz_norm(grid, spec, dW, P, ks, kt, w)


def dY_integral_eq(b: DriftField, Z: NoisePath, DZ: Callable, t: float,
                   alpha: float, x: float) -> MalliavinPath:
    """D_alpha of the time-reversed state, all reversed times u in [0, t].

    Solves the linear Volterra equation by forward substitution with
    trapezoidal quadrature; entry j is D_alpha Y_{t - u_j, t}(x).  The
    solve is direct; _VOLTERRA_TOL bounds the a-posteriori residual of the
    discrete system (a roundoff guard, not an iteration control).
    """
    grid = Z.grid
    kt = grid.index_of(t)
    # h_j = DZ over the window [t - u_j, t]
    rev = grid.points[kt::-1]  # calendar times t - u_j
    h = np.asarray(DZ(rev, t, alpha), dtype=float)
    y = backward_ensemble_trajectory(b, grid, Z.values[None], x, 0.0, t)[:, 0]
    gam = np.broadcast_to(np.asarray(b.b_prime(rev, y[::-1]), dtype=float),
                          rev.shape)
    dt = grid.dt
    pivots = 1.0 + 0.5 * dt * gam
    if np.any(np.abs(pivots) < 0.5):
        raise ResolutionError("dt * |b'| too large for the Volterra solve; "
                              "refine the grid")
    D = np.zeros(kt + 1)
    D[0] = h[0]  # = 0 by adaptedness
    running = 0.5 * gam[0] * D[0]
    for j in range(1, kt + 1):
        D[j] = (h[j] - dt * running) / pivots[j]
        running += gam[j] * D[j]
    gd = gam * D
    trap = np.concatenate(([0.0], np.cumsum(0.5 * dt * (gd[1:] + gd[:-1]))))
    residual = float(np.max(np.abs(D + trap - h)))
    if residual > _VOLTERRA_TOL * (1.0 + float(np.max(np.abs(h)))):
        raise NumericError(f"Volterra residual {residual:.3e} above "
                           f"tolerance {_VOLTERRA_TOL:.1e}")
    return MalliavinPath(grid=grid, values=D)


def mt_diagnostic(grid: TimeGrid, spec: HermiteSpec) -> float:
    """max over a probe (u, t) grid of E ||D(Z_t - Z_u)||^2.

    Deterministic, by the isometry E ||D F||^2 = q E F^2 of a rank-q chaos:
    q (Var Z_u + Var Z_t - 2 Cov(Z_u, Z_t)) of the lattice noise.
    Diagnostic only; the probe grid is 0 and the eighths of [0, T], whose
    second moments come from one lattice Gram (noise._lattice_gram): at
    rank 2 the variances are the calibrated t^(2H), and the cross moments
    take one sweep over the eight probe indices (noise._pair_sums).
    """
    G = _lattice_gram(grid, spec, np.concatenate(([0], _probe_indices(grid.n))))
    var = np.diag(G)
    return float(spec.q * (var[:, None] + var - 2.0 * G).max())


@dataclass(frozen=True, eq=False)
class BoundCheckReport:
    """Per-path values of the flow bracket and its floors."""

    brackets: np.ndarray
    floor_condition: float
    floor_universal: float
    passed: bool

    @property
    def min_bracket(self) -> float:
        return float(np.min(self.brackets))


def density_bound_check(b: DriftField, grid: TimeGrid, z_values: np.ndarray,
                        s: float, t: float, x: float) -> BoundCheckReport:
    """The flow bracket 2 - (1 - a_m) P[m-1] per path, a_m = dt b'(t, x)/2.

    The bracket, 2 - d_m P[m-1] (_cn_weights), is the discrete form of
    1 + int_s^t b' e^{-int_s^u b'} du = 2 - exp(-int_s^t b'(Y_{u,t}) du); it
    multiplies the noise derivative in dY and must stay positive for the
    density criterion.  For a constant b' = g it is exactly 2 - rho^k over
    the k steps of [s, t], rho = (1 - dt g/2) / (1 + dt g/2).  With
    f(m) = -m exp(-2m) it is checked to exceed both
    1 + f(||b'||_inf (t-s)) - 1e-6 and the universal constant 1 - e^{-1}/2,
    floors that hold when int_s^t b'(Y) >= -0.169; passed carries the
    verdict, so drifts that genuinely sit below the floor are reported.
    The march covers [s, t] only and multiplies P[m-1] = (1 - f_0)
    prod_{r=1..m-1} (1 - 2 f_r) (_factor_ratios) into one factor per path
    as it solves rows m-1, ..., 0: no trajectory is held.
    """
    P = _time_first(grid, z_values).shape[1]
    if P < _MIN_BOUND_PATHS:
        raise SampleSizeError(f"need at least {_MIN_BOUND_PATHS} paths, got {P}")
    ks, kt = _check_times(grid, s, t)
    m, pts, half_dt = kt - ks, grid.points, 0.5 * grid.dt
    q, brackets = np.ones(P), np.ones(P)

    def factor(r, y):
        if r < m:
            f = _factor_ratios(np.multiply(b.b_prime(pts[ks + r], y), half_dt))
            q[:] -= (f if r == 0 else 2.0 * f) * q
    if ks < kt:
        backward_ensemble_trajectory(b, grid, z_values, x, s, t, visit=factor)
        brackets = 2.0 - (1.0 - half_dt * float(b.b_prime(pts[kt], x))) * q

    m_bar = b.sup_norm_bprime * (t - s)
    floor_condition = 1.0 - m_bar * np.exp(-2.0 * m_bar) - _FLOOR_SLACK
    passed = bool(np.min(brackets) > max(floor_condition, _UNIVERSAL_FLOOR))
    return BoundCheckReport(
        brackets=brackets, floor_condition=float(floor_condition),
        floor_universal=float(_UNIVERSAL_FLOOR), passed=passed,
    )


@dataclass(frozen=True, eq=False)
class DensityReport:
    """KDE summary plus the two density-criterion diagnostics.

    The density runner gates on three of its facts: mass_ok (KDE mass
    inside MASS_RANGE; mass lost off the evaluation grid means the density
    table is not trustworthy), max_cdf_jump at most atom_bound (no atoms),
    and min_norm_sq above zero (every derivative norm positive).
    """

    MASS_RANGE: ClassVar[tuple[float, float]] = (0.99, 1.01)

    count: int
    x_grid: np.ndarray
    density: np.ndarray
    mass: float
    max_cdf_jump: float
    min_norm_sq: float

    def __post_init__(self):
        if self.min_norm_sq < 0:
            raise DomainError("derivative norms cannot be negative")

    @property
    def mass_ok(self) -> bool:
        lo, hi = self.MASS_RANGE
        return bool(lo <= self.mass <= hi)

    @property
    def atom_bound(self) -> float:
        return 3.0 / np.sqrt(self.count)


def density_report(samples: np.ndarray, norms: np.ndarray) -> DensityReport:
    """Atom and degeneracy diagnostics for a Monte Carlo sample.

    samples are realizations of the target functional, norms the matching
    per-path ||DF||^2 values.  Flags: the KDE must keep its mass on the
    evaluation grid, the largest empirical-CDF jump must not exceed
    3/sqrt(N) (no atoms) and every norm must be positive (derivative
    criterion).  The KDE bandwidth follows Silverman's rule; a sample with
    no spread has none, so its table is empty and the mass gate fails.
    """
    samples = np.asarray(samples, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if samples.ndim != 1 or norms.shape != samples.shape:
        raise DomainError("samples and norms must be matching 1-d arrays")
    N = samples.size
    if N < _MIN_DENSITY_SAMPLES:
        raise SampleSizeError(f"need at least {_MIN_DENSITY_SAMPLES} samples, got {N}")

    try:
        kde = gaussian_kde(samples, bw_method="silverman")
        bw = float(np.sqrt(kde.covariance[0, 0]))
        x_grid = np.linspace(samples.min() - 5 * bw, samples.max() + 5 * bw, 801)
        density = kde(x_grid)
    except np.linalg.LinAlgError:  # the sample variance is zero
        x_grid = density = np.empty(0)
    mass = float(np.trapezoid(density, x_grid))

    _, counts = np.unique(samples, return_counts=True)
    max_jump = float(counts.max()) / N
    return DensityReport(
        count=N, x_grid=x_grid, density=density, mass=mass,
        max_cdf_jump=max_jump, min_norm_sq=float(np.min(norms)),
    )
