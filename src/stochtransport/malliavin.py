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
dy_norm_ensemble), so the profile equals the closed form to roundoff.  The
oracle is forward substitution on the time-reversed Volterra form
(dY_integral_eq), which solves the same system step by step.

Density diagnostics follow the standard criterion: a functional whose
derivative has positive L^2([0,T]) norm on almost every path has an
absolutely continuous law.  density_bound_check reads the flow bracket,
the discrete 2 - exp(-int_s^t b'(Y_{u,t}) du) that multiplies the noise
derivative in dY, as a running factor of the march, and density_report
inspects a Monte Carlo sample for atoms and for vanishing derivative norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
from scipy.stats import gaussian_kde

from .errors import DomainError, NumericError, ResolutionError, SampleSizeError
from .flow import (
    DriftField,
    _check_times,
    _time_first,
    backward_ensemble_trajectory,
    backward_trajectory,
)
from .grid import TimeGrid
from .kernels import HermiteSpec, kernel_KH
from .noise import (
    _FOLD,
    _PATH_BLOCK,
    _TRI_BLOCK,
    _TRI_CHUNK,
    NoisePath,
    _fbm_weights,
    _pair_matrix_cached,
    _probe_indices,
    _windows,
    lattice_covariance,
    lattice_variance,
)
from .wiener import WienerLattice

__all__ = [
    "MalliavinPath",
    "BoundCheckReport",
    "DensityReport",
    "dz_fbm",
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


@dataclass(frozen=True)
class MalliavinPath:
    """A first-variation profile with its L^2 norm.

    axis "alpha": values[i] is D_alpha F for alpha in step i (length n);
    the squared norm is the exact integral of the step profile.
    axis "time": values[j] is the derivative of a trajectory at node j for
    one fixed alpha (any length up to n+1); the norm uses the trapezoid rule.
    """

    grid: TimeGrid
    values: np.ndarray
    axis: str = "alpha"
    l2_norm_sq: float = field(init=False, default=0.0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise DomainError("values must be one-dimensional")
        if self.axis == "alpha":
            if v.shape != (self.grid.n,):
                raise DomainError(
                    f"alpha profile needs one value per step, got {v.shape}")
            norm = float(np.sum(v * v) * self.grid.dt)
        elif self.axis == "time":
            if not 1 <= v.size <= self.grid.n + 1:
                raise DomainError("time profile does not fit on the grid")
            norm = float(np.trapezoid(v * v, dx=self.grid.dt))
        else:
            raise DomainError(f"unknown axis {self.axis!r}")
        object.__setattr__(self, "l2_norm_sq", norm)
        v.flags.writeable = False


def _step_of(grid: TimeGrid, alpha: float) -> int:
    """Index of the lattice step containing alpha (alpha in [0, T))."""
    if alpha < 0:
        raise DomainError(f"alpha={alpha} is negative")
    a = int(np.searchsorted(grid.points, alpha, side="right")) - 1
    return min(a, grid.n - 1)


def dz_fbm(t: float, alpha: float, H: float) -> float:
    """D_alpha of the rank-1 noise at time t: the kernel K_H(t, alpha).

    Deterministic (the noise is a Wiener integral of the kernel).  Zero for
    alpha >= t; alpha = 0 sits on the kernel singularity and is rejected.
    """
    if alpha == 0.0:
        raise DomainError("alpha = 0 is the kernel singularity")
    if alpha < 0:
        raise DomainError(f"alpha={alpha} is negative")
    if alpha >= t:
        return 0.0
    return kernel_KH(t, alpha, H)


def dz_hermite(w: WienerLattice, t: float, alpha: float,
               spec: HermiteSpec) -> float:
    """D_alpha Z_t for the lattice noise driven by w.

    The entry of dz_table for t and the step a containing alpha.  rank 1:
    the kernel weight K_H(t, m_a) at the step midpoint (independent of the
    path; dz_fbm is its continuum limit).  rank 2: the order-1 chaos sum
    2 d (A_t @ dW)[a] — the simulator's trace correction is deterministic
    and drops out — so difference quotients of simulated values close
    exactly.
    """
    if alpha < 0:
        raise DomainError(f"alpha={alpha} is negative")
    k = w.grid.index_of(t)
    if alpha >= t:
        return 0.0
    a = _step_of(w.grid, alpha)
    if spec.q == 1:
        return float(_fbm_weights(w.grid.key(), spec.H)[k - 1, a])
    lam = _pair_matrix_cached(w.grid.key(), spec.H, k)
    return float(2.0 * spec.d * (lam[a] @ w.increments[:k]))


def dz_table(Z: NoisePath) -> np.ndarray:
    """All lattice derivatives of one noise path: G[k, a] = D_alpha Z_{t_k}.

    Shape (n+1, n), row k supported on steps a < k.  rank 1 rows are the
    kernel weight rows; rank 2 rows are rebuilt by the same window
    quadrature as the simulator: window l's term of A_{t_k} @ dW goes into
    row l+1, a block of windows at a time (noise._windows), and the rows are
    summed in place, so the whole table costs one extra pass over the path.
    """
    return _dz_table_raw(Z.grid, Z.spec, Z.driver)


def _dz_table_raw(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray) -> np.ndarray:
    """dz_table from the (n,) driver alone."""
    n = grid.n
    G = np.zeros((n + 1, n))
    if spec.q == 1:
        G[1:] = _fbm_weights(grid.key(), spec.H)
        return G
    for l0, l1, lam2, Fs, w in _windows(grid, spec, 0, n):
        X = (Fs @ dW[:l1]).reshape(-1, w.size) * w * lam2[:, None]
        G[l0 + 1:l1 + 1, :l1] = np.einsum("ap,apk->ak", X, Fs.reshape(len(X), w.size, l1))
    np.cumsum(G, axis=0, out=G)
    G *= 2.0 * spec.d
    return G


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
        if np.any(np.abs(np.asarray(u) - ku * dt) > 1e-9 * max(dt, 1.0)) or \
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


def _cn_weights(gam: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Signed Crank-Nicolson flow weights omega in calendar order, into out.

    gam holds the slopes b'(r, Y_{r,t}) of rows r = 0..m (time
    t_ks + r dt), m+1 rows of shape () or (paths,); the anchor row m is
    never read.  With c, d = 1 +- a, a = dt gam / 2, and the discrete
    integrating factor P[r] = (1/c_0) prod_{k=1..r} d_k / c_k,

        omega[0] = P[0],   omega[m] = -P[m-1],
        omega[r] = -a[r] (P[r] + P[r-1]) = P[r] - P[r-1]   (0 < r < m),

    so omega sums to zero, its running sum is P, omega @ G[ks:kt+1] solves
    the trapezoid Volterra system of dY_integral_eq exactly, and the flow
    bracket is 2 - d_m P[m-1] = 2 + (1 - a[m]) omega[m].  P is undefined
    where some c <= 0.  A forward recursion over blocks of
    max(1, _CN_BLOCK // paths) rows forms omega[r] = -2 P[r-1] f[r],
    f = a / c (differences of P would lose digits), and P[r] as the running
    sum of omega, so no rounded d / c is raised to a power.  It reads a
    block's slopes before it writes their weights, so out may be gam
    itself.  Needs m >= 1.
    """
    m, half_dt, p = out.shape[0] - 1, 0.5 * dt, 0.0
    step = max(1, _CN_BLOCK // out[0].size)
    for lo in range(0, m, step):
        f = _factor_ratios(np.multiply(gam[lo:min(lo + step, m)], half_dt))
        g = -2.0 * f
        for r in range(lo, lo + len(f)):
            out[r] = p * g[r - lo] if r else 1.0 - f[0]
            p = p + out[r]
    out[m] = -p
    return out


def _ensemble_weights(b: DriftField, grid: TimeGrid, z: np.ndarray, x: float,
                      s: float, t: float, out: np.ndarray | None = None):
    """(Y_{s,t}(x), omega of [s, t]) per path of a (paths, n+1) ensemble z.

    The march covers [s, t] only and writes the slope b'(t_r, Y_{r,t}(x))
    of grid row ks + i into row i of out, (kt-ks+1, paths), which may be
    z.T[ks:kt+1], as it reads each noise row before it solves the state
    there.  _cn_weights turns the slopes into omega in place, elementwise
    in the paths: no slicing moves a bit.  Needs s < t.
    """
    ks, kt = _check_times(grid, s, t)
    w = np.empty((kt - ks + 1, _time_first(grid, z).shape[1])) if out is None else out

    def slopes(i, y):
        w[i] = b.b_prime(grid.points[ks + i], y)
    y = backward_ensemble_trajectory(b, grid, z, x, s, t, visit=slopes)
    return y, _cn_weights(w, grid.dt, w)


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
    if ks == kt or b.is_zero:
        return float(DZ(s, t, alpha))
    w = _ensemble_weights(b, grid, Z.values[None], x, s, t)[1][:, 0]
    return float(w @ np.asarray(DZ(grid.points[ks:kt + 1], t, alpha), dtype=float))


def dY_profile(b: DriftField, Z: NoisePath, s: float, t: float,
               x: float) -> MalliavinPath:
    """The whole alpha-profile of D Y_{s,t}(x) in one vectorized pass."""
    grid = Z.grid
    ks, kt = _check_times(grid, s, t)
    G = dz_table(Z)
    if ks == kt or b.is_zero:
        return MalliavinPath(grid=grid, values=-(G[kt] - G[ks]))
    w = _ensemble_weights(b, grid, Z.values[None], x, s, t)[1][:, 0]
    return MalliavinPath(grid=grid, values=w @ G[ks:kt + 1])


def dz_norm_ensemble(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray,
                     t: float) -> np.ndarray:
    """||D Z_t||^2_{L^2} per path for a (paths, n) matrix of increments.

    rank 1 is deterministic (one value broadcast); rank 2 is one GEMM
    against the support block of the cached pair matrix.
    """
    dW = np.asarray(dW, dtype=float)
    if dW.ndim != 2 or dW.shape[1] != grid.n:
        raise DomainError(f"increments shape {dW.shape} does not match the grid")
    k = grid.index_of(t)
    if spec.q == 1:
        M = np.zeros(grid.n)
        if k > 0:
            M[:] = _fbm_weights(grid.key(), spec.H)[k - 1]
        return np.full(dW.shape[0], float(np.sum(M * M) * grid.dt))
    if k == 0:
        return np.zeros(dW.shape[0])
    lam = _pair_matrix_cached(grid.key(), spec.H, k)
    rows = 2.0 * spec.d * (dW[:, :k] @ lam)
    return np.sum(rows * rows, axis=1) * grid.dt


def dy_norm_ensemble(b: DriftField, grid: TimeGrid, spec: HermiteSpec,
                     z_values: np.ndarray, s: float, t: float, x: float,
                     dW: np.ndarray | None = None,
                     flow_weights: np.ndarray | None = None) -> np.ndarray:
    """||D Y_{s,t}(x)||^2_{L^2} per path, by the profile formula.

    The profile is V = omega.T @ G[ks:kt+1] (_cn_weights; omega = e_0 - e_m
    for a zero drift), z_values the (paths, n+1) noise ensemble.  rank 1
    shares one table G across paths: one GEMM over its lower triangle per
    block of _TRI_BLOCK steps and chunk of _TRI_CHUNK paths, as the rank-1
    simulator makes them; rank 2 needs the driving increments dW and makes
    one window pass for all paths (two GEMMs per block of windows and
    _PATH_BLOCK paths, no per-path table).  flow_weights optionally supplies
    the omega of _ensemble_weights(b, grid, z_values, x, s, t), shape
    (index(t) - index(s) + 1, paths); they are elementwise in the paths, so
    a caller can build them slice by slice.
    """
    P = _time_first(grid, z_values).shape[1]
    ks, kt = _check_times(grid, s, t)
    if spec.q == 2:
        if dW is None:
            raise DomainError("rank-2 ensembles need the driving increments dW")
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (P, grid.n):
            raise DomainError("dW must pair with z_values row by row")
    w = None  # the (m+1, P) flow weights; a zero drift needs none
    if not b.is_zero and ks < kt:
        if flow_weights is None:
            w = _ensemble_weights(b, grid, z_values, x, s, t)[1]
        else:
            w = np.asarray(flow_weights, dtype=float)
            if w.shape != (kt - ks + 1, P):
                raise DomainError(f"flow weights have shape {w.shape}, "
                                  f"expected {(kt - ks + 1, P)}")

    if spec.q == 1:
        # row k >= 1 of the table G is the kernel row M[k - 1]; row 0 is 0
        M = _fbm_weights(grid.key(), spec.H)
        if w is None:
            g_t, g_s = (M[k - 1] if k else np.zeros(grid.n) for k in (kt, ks))
            return np.full(P, float(np.sum((g_s - g_t) ** 2) * grid.dt))
        # V = w.T @ G[ks:kt+1] per chunk of paths and block of steps a < kt
        # (V vanishes past kt - 1), from the first table row that reaches
        # the block (row k vanishes on steps a >= k); each block is squared
        # in one (_TRI_BLOCK, _TRI_CHUNK) buffer and summed per path.
        out = np.zeros(P)
        prod = np.empty((_TRI_BLOCK, min(_TRI_CHUNK, P)))
        for c in range(0, P, _TRI_CHUNK):
            cols, nc = slice(c, c + _TRI_CHUNK), min(_TRI_CHUNK, P - c)
            for lo in range(0, kt, _TRI_BLOCK):
                hi = min(lo + _TRI_BLOCK, kt)
                r0 = max(0, lo + 1 - ks)
                v = np.matmul(M[ks + r0 - 1:kt, lo:hi].T, w[r0:, cols],
                              out=prod[:hi - lo, :nc])
                v *= v
                out[cols] += v.sum(axis=0)
        return out * grid.dt
    if ks == kt:
        return np.zeros(P)
    # V = sum_r w[r] G[ks+r] with G[k] = 2d sum_{l<k} T_l, T_l =
    # lam2_l F_l^T (wu * F_l dW), so V = 2d sum_l coef_l T_l, coef_l the sum
    # of the weights beyond l: zero for l < ks (they sum to zero) and -run
    # for ks <= l < kt, run the running sum of w, which is the integrating
    # factor at row l - ks (1 for a zero drift).  Each block of windows and _PATH_BLOCK paths adds X @ Fs
    # to V through one fixed buffer.
    run, scale = np.full(P, 1.0 if w is None else 0.0), np.empty((_FOLD, P))
    V, buf = np.zeros((P, kt)), np.empty((min(_PATH_BLOCK, P), kt))
    for l0, l1, lam2, Fs, wu in _windows(grid, spec, ks, kt):
        for a in range(l1 - l0):
            if w is not None:
                run += w[l0 + a - ks]
            np.multiply(-2.0 * spec.d * lam2[a], run, out=scale[a])
        for c in range(0, P, _PATH_BLOCK):
            X = (dW[c:c + _PATH_BLOCK, :l1] @ Fs.T).reshape(-1, l1 - l0, wu.size)
            X *= scale[:l1 - l0, c:c + _PATH_BLOCK].T[:, :, None]
            X *= wu
            V[c:c + _PATH_BLOCK, :l1] += np.matmul(
                X.reshape(len(X), -1), Fs, out=buf[:len(X), :l1])
    return np.einsum("ij,ij->i", V, V) * grid.dt


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
    if kt == 0 or b.is_zero:
        return MalliavinPath(grid=grid, values=h, axis="time")
    y = backward_trajectory(b, Z, x, t)
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
    return MalliavinPath(grid=grid, values=D, axis="time")


def mt_diagnostic(grid: TimeGrid, spec: HermiteSpec) -> float:
    """max over a probe (u, t) grid of E ||D(Z_t - Z_u)||^2.

    Deterministic, by the isometry E ||D F||^2 = q E F^2 of a rank-q chaos:
    q (Var Z_u + Var Z_t - 2 Cov(Z_u, Z_t)) of the lattice noise.
    Diagnostic only; the probe grid is 0 and the eighths of [0, T], whose
    rank-2 pair matrices come from the calibration (at T) and one recording
    pass (the others).
    """
    probes = grid.points[np.concatenate(([0], _probe_indices(grid.n)))]
    var = [lattice_variance(grid, spec, t) for t in probes]
    worst = 0.0
    for i, u in enumerate(probes):
        for j in range(i, probes.size):
            cov = lattice_covariance(grid, spec, u, probes[j])
            worst = max(worst, spec.q * (var[i] + var[j] - 2.0 * cov))
    return worst


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DensityReport:
    """KDE summary plus the two density-criterion diagnostics.

    passed needs all three gates: KDE mass inside MASS_RANGE (mass lost off
    the evaluation grid means the density table is not trustworthy), no
    empirical-CDF jump above atom_bound, and every derivative norm positive.
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

    @property
    def passed(self) -> bool:
        return bool(self.mass_ok and self.max_cdf_jump <= self.atom_bound
                    and self.min_norm_sq > 0.0)


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
