"""Pathwise characteristic flows driven by lattice noise.

Forward flow   X_{s,t}(x) = x + int_s^t b(u, X_{s,u}(x)) du + (Z_t - Z_s)
Backward flow  Y_{s,t}(x) = x - int_s^t b(r, Y_{r,t}(x)) dr - (Z_t - Z_s)

The noise is additive, so each lattice step adds the exact noise increment
and only the drift needs quadrature: an implicit trapezoidal step, solved by
fixed-point iteration to near machine tolerance.  Reading that step equation
backwards is exactly the forward step between the same two values, so the
discrete backward flow inverts the discrete forward flow to solver tolerance
rather than to O(dt) — the composition error is dominated by the iteration
cutoff, not the scheme.

The backward equation anchored at t is equivalent to the time-reversed
integral equation

    R(u) = x - int_0^u b(t - a, R(a)) da - (Z_t - Z_{t-u}),   u in [0, t],

which `picard_solve` attacks by global fixed-point iteration with trapezoidal
quadrature.  Its fixed point satisfies the same per-step equations as the
stepwise backward solver, so the two agree to iteration tolerance; tests and
calling code rely on that.

Every flow in the package -- one path or an ensemble, a scalar, a node
array or a paths vector of states, forward or backward -- runs through one
step kernel, `_march`, which returns the end state and hands each state it
solves to an optional visitor that keeps what it reads.  Its fixed-point
solve runs a number of iterations fixed in advance: the step map contracts
with kappa = |h|/2 sup|b'|, and the predictor starts within |h| sup|b| of
the fixed point, so k = ceil(log(tol / (|h| sup|b|)) / log kappa)
iterations reach the absolute tolerance whatever the state.  k depends only
on the step size and the declared sup norms of the DriftField, and every
operation of an iteration is elementwise, so each state's bits do not
depend on which other states share its array: a path solved alone, in any
sub-batch or in any order gives the same result.  One guard per step
checks the last change against the bound the contraction promises and
raises ConvergenceError when it fails, which catches sup norms declared
wrong away from the validation sample; it never changes a value.  A grid
whose steps have no such count -- kappa >= 1, or more than _STEP_MAX_ITER
iterations to reach the tolerance -- is refused with ResolutionError
before the first step.  Zero-drift flows shortcut, in the same kernel,
to pure translation by the noise increment, which keeps them exact to the
bit and reproducible per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ResolutionError
from .grid import TimeGrid
from .noise import NoisePath

_FD_STEP = 1e-5
_FD_TOL = 1e-6
_STEP_TOL = 1e-13
_STEP_MAX_ITER = 60
_STEP_SLACK = 1e-14  # roundoff allowance of the step guard, relative to |x|
_PICARD_MAX_ITER = 64  # global sweeps picard_solve makes before giving up

_SAMPLE_T = np.array([0.0, 0.31, 0.64, 1.0])
_SAMPLE_X = np.linspace(-3.0, 3.0, 13)


def _fd_gap(f: Callable, der: np.ndarray, x: np.ndarray) -> float:
    """Largest gap between a declared derivative der = f'(x) and the centred
    difference of f at x; a gap over _FD_TOL, or a nan, refuses the
    declaration."""
    with np.errstate(all="ignore"):
        fd = (np.asarray(f(x + _FD_STEP)) - np.asarray(f(x - _FD_STEP))) / (2 * _FD_STEP)
        return float(np.max(np.abs(der - fd)))


def _sample(f: Callable, what: str, *args) -> np.ndarray:
    """f(*args) on a validation sample; DomainError unless every value is
    finite, so an overflow or a nan parameter is refused, not warned of."""
    with np.errstate(all="ignore"):
        v = np.asarray(f(*args), dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{what} is not finite on its validation sample")
    return v


@dataclass(frozen=True)
class DriftField:
    """A drift b(t, x) together with its spatial derivative and sup-norms.

    Both callables must broadcast over numpy arrays in t and x: the march
    passes a scalar t, while picard_solve, dY_integral_eq and
    weak_form_residual pass arrays of times.  At construction, on a fixed
    sample of (t, x) points, both must be finite, b_prime must agree with
    centered finite differences of b, and neither may exceed its declared
    sup-norm, which must be finite; every check refuses a nan.
    """

    b: Callable
    b_prime: Callable
    sup_norm_b: float
    sup_norm_bprime: float

    def __post_init__(self):
        if not (0 <= self.sup_norm_b < np.inf and 0 <= self.sup_norm_bprime < np.inf):
            raise DomainError("declared sup norms must be finite and nonnegative")
        for t in _SAMPLE_T:
            bv = _sample(self.b, "b", t, _SAMPLE_X)
            bp = _sample(self.b_prime, "b_prime", t, _SAMPLE_X)
            gap = _fd_gap(lambda x: self.b(t, x), bp, _SAMPLE_X)
            if not gap <= _FD_TOL:
                raise DomainError(
                    f"b_prime disagrees with finite differences of b "
                    f"(max gap {gap:.2e} at t={t})")
            if not np.max(np.abs(bv)) <= self.sup_norm_b + 1e-9:
                raise DomainError(f"|b| exceeds declared sup norm {self.sup_norm_b} at t={t}")
            if not np.max(np.abs(bp)) <= self.sup_norm_bprime + 1e-9:
                raise DomainError(
                    f"|b_prime| exceeds declared sup norm {self.sup_norm_bprime} at t={t}")

    @property
    def is_zero(self) -> bool:
        return self.sup_norm_b == 0.0 and self.sup_norm_bprime == 0.0


def _check_times(grid: TimeGrid, s: float, t: float) -> tuple[int, int]:
    if s > t:
        raise DomainError(f"need s <= t, got s={s} > t={t}")
    return grid.index_of(s), grid.index_of(t)


def _step_plan(b: DriftField, h: float) -> tuple[int, float] | None:
    """A-priori iteration count of a step of size h, and its guard bound.

    The step map x -> rhs + (h/2) b(t', x) contracts with
    kappa = |h|/2 sup|b'|, and the predictor x + h f + dz lies within
    e0 = |h| sup|b| of its fixed point, so k iterations leave an error of at
    most kappa^k e0 <= _STEP_TOL, and the last change is at most
    (1 + kappa) kappa^(k-1) e0, the guard bound.  None when kappa >= 1 or k
    would exceed _STEP_MAX_ITER: the grid is too coarse for this drift.
    """
    kappa = 0.5 * abs(h) * b.sup_norm_bprime
    e0 = abs(h) * b.sup_norm_b
    if kappa >= 1.0:
        return None
    k = 1
    if kappa > 0.0 and e0 > _STEP_TOL:
        k = max(1, math.ceil(math.log(_STEP_TOL / e0) / math.log(kappa)))
    if k > _STEP_MAX_ITER:
        return None
    return k, (1.0 + kappa) * kappa ** (k - 1) * e0


def _solve_step(b: DriftField, t_new: float, rhs, x_guess, h: float,
                plan: tuple[int, float]):
    """Solve x = rhs + (h/2) * b(t_new, x) by the plan's k iterations.

    No stopping test reads the data, so each component's bits do not depend
    on the others.  The guard compares the last change with the plan's
    bound (plus roundoff slack) and raises ConvergenceError when the
    declared sup norms did not hold.
    """
    half = 0.5 * h
    k, bound = plan
    x = x_guess
    for _ in range(k):
        x_prev, x = x, rhs + half * np.asarray(b.b(t_new, x), dtype=float)
    gap = float(np.abs(x - x_prev).max())
    if gap > bound and \
            gap > bound + _STEP_SLACK * (1.0 + float(np.max(np.abs(x)))):
        raise ConvergenceError(
            f"drift step changed by {gap:.3g} after {k} iterations, above "
            f"the {bound:.3g} its declared sup norms allow; check "
            "sup_norm_b and sup_norm_bprime")
    return x


def _march(b: DriftField, grid: TimeGrid, z, x, ks: int, kt: int,
           sign: int, visit: Callable | None = None):
    """Implicit trapezoid steps between grid indices ks <= kt; the end state.

    z is time-first noise: z[k] is the value at grid index k, a scalar for
    one path or a paths vector for an ensemble (the transpose of a
    (paths, n+1) matrix).  x is a scalar, a node array or a paths vector.
    sign = +1 starts x at ks and marches forward to kt; sign = -1 anchors x
    at kt and marches back to ks.  visit(i, state), when given, gets the
    anchor and then each state as it is solved, i = k - ks for grid index
    k; it copies what it keeps.  Each noise row is read into a one-row
    carry before the state at its index is solved, so visit may write z's
    row ks + i: the march then consumes the noise a visitor records over,
    with the same bits as into a fresh array.
    """
    start, end = (ks, kt) if sign > 0 else (kt, ks)
    x = np.zeros(np.shape(z[start])) + np.asarray(x, dtype=float)
    carry = np.array(z[start], dtype=float)  # z[k] at step k
    if b.is_zero:
        for k in range(start, end + sign, sign) if visit else (end,):
            y = x + (z[k] - carry)
            if visit:
                visit(k - ks, y)
        return y
    pts = grid.points
    h = sign * grid.dt
    plan = _step_plan(b, h)
    if plan is None:
        raise ResolutionError(
            f"drift step does not contract within {_STEP_MAX_ITER} iterations "
            f"(dt*sup|b'|/2 = {0.5 * grid.dt * b.sup_norm_bprime:.3g}); "
            "refine the grid")
    if visit:
        visit(start - ks, x)
    # rg[0] = x + h/2 f + dz is the trapezoid right side, rg[1] the predictor
    steps = np.array([0.5 * h, h]).reshape((2,) + (1,) * x.ndim)
    dz, rg = np.empty_like(x), np.empty((2,) + x.shape)
    for k in range(start, end, sign):
        # dz is the increment along the march, so one formula serves both
        # directions: backwards it is the exact negative of the forward one.
        np.subtract(z[k + sign], carry, out=dz)
        np.copyto(carry, z[k + sign])
        np.multiply(steps, np.asarray(b.b(pts[k], x), dtype=float), out=rg)
        rg += x
        rg += dz
        x = _solve_step(b, pts[k + sign], rg[0], rg[1], h, plan)
        if visit:
            visit(k + sign - ks, x)
    return x


def forward_flow(b: DriftField, Z: NoisePath, x, s: float, t: float):
    """X_{s,t}(x): start at x at time s, integrate drift + noise up to t."""
    ks, kt = _check_times(Z.grid, s, t)
    return _march(b, Z.grid, Z.values, x, ks, kt, 1)


def backward_flow(b: DriftField, Z: NoisePath, x, s: float, t: float):
    """Y_{s,t}(x): anchor at x at time t, integrate down to time s."""
    ks, kt = _check_times(Z.grid, s, t)
    return _march(b, Z.grid, Z.values, x, ks, kt, -1)


def picard_solve(b: DriftField, Z: NoisePath, x: float, t: float, u: float,
                 tol: float | None = None) -> tuple[float, int]:
    """Solve the time-reversed equation at reversed time u by Picard iteration.

    Iterates R(a) = x - int_0^u b(t-a, R(a)) da - (Z_t - Z_{t-u}) on the
    reversed lattice a = 0..u with trapezoidal quadrature, starting from
    R == x.  Returns (R(u), iterations).
    """
    grid = Z.grid
    if u > t:
        raise DomainError(f"reversed time u={u} exceeds anchor t={t}")
    kt = grid.index_of(t)
    ku = grid.index_of(u)
    if tol is None:
        tol = 1e-10 * (1.0 + abs(x))
    if ku == 0:
        return float(x), 0

    # values of the reversed clock: a_j = j*dt, real time t - a_j
    rev_times = grid.points[kt] - grid.points[:ku + 1]
    z_term = -(Z.values[kt] - Z.values[kt - np.arange(ku + 1)])
    h = grid.dt

    R = np.full(ku + 1, float(x))
    for it in range(1, _PICARD_MAX_ITER + 1):
        drift = np.broadcast_to(np.asarray(b.b(rev_times, R), dtype=float),
                                R.shape)
        # cumulative trapezoid of -b(t-a, R(a)) over the reversed lattice
        integral = np.concatenate(
            ([0.0], np.cumsum(0.5 * h * (drift[1:] + drift[:-1]))))
        R_next = x - integral + z_term
        gap = np.max(np.abs(R_next - R))
        R = R_next
        if gap < tol:
            return float(R[ku]), it
    raise ConvergenceError(
        f"no fixed point after {_PICARD_MAX_ITER} iterations "
        f"(last change {gap:.3e})")


# ---------------------------------------------------------------------------
# Ensemble variants: one spatial point, many noise paths at once.
# ---------------------------------------------------------------------------

def _time_first(grid: TimeGrid, z_values: np.ndarray) -> np.ndarray:
    z = np.asarray(z_values, dtype=float)
    if z.ndim != 2 or z.shape[1] != grid.n + 1:
        raise DomainError("z_values must be (paths, n+1)")
    return z.T


def forward_ensemble(b: DriftField, grid: TimeGrid, z_values: np.ndarray,
                     x: float, s: float, t: float) -> np.ndarray:
    """X_{s,t}(x) per path for a (paths, n+1) matrix of noise values."""
    ks, kt = _check_times(grid, s, t)
    return _march(b, grid, _time_first(grid, z_values), x, ks, kt, 1)


def backward_ensemble(b: DriftField, grid: TimeGrid, z_values: np.ndarray,
                      x: float, s: float, t: float) -> np.ndarray:
    """Y_{s,t}(x) per path."""
    ks, kt = _check_times(grid, s, t)
    return _march(b, grid, _time_first(grid, z_values), x, ks, kt, -1)


def backward_ensemble_trajectory(b: DriftField, grid: TimeGrid,
                                 z_values: np.ndarray, x: float, s: float,
                                 t: float, visit: Callable | None = None):
    """Y_{r,t}(x) per path for the grid times r in [s, t], marched down from t.

    Without visit, row i is the state at grid index index(s) + i.  With
    visit, _march hands it each state instead and Y_{s,t}(x) is returned.
    """
    z = _time_first(grid, z_values)
    ks, kt = _check_times(grid, s, t)
    if visit is not None:
        return _march(b, grid, z, x, ks, kt, -1, visit=visit)
    traj = np.empty((kt - ks + 1,) + np.broadcast_shapes(z.shape[1:], np.shape(x)))
    _march(b, grid, z, x, ks, kt, -1, visit=traj.__setitem__)
    return traj
