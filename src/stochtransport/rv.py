"""Regularized calculus on lattice paths.

Two estimators built from mollified increments of a path X on a TimeGrid:

* the symmetric integral  I(eps, Y, dX)(t) = int_0^t Y_s (X_{s+eps} - X_{s-eps}) / (2 eps) ds
* the bracket             [X, Y]_{eps, t}  = (1/eps) int_0^t (X_{s+eps} - X_s)(Y_{s+eps} - Y_s) ds

X is frozen outside the horizon (X_s := X_0 for s < 0 and X_s := X_T for
s > T), which makes both estimators total functions of grid data at the cost
of an O(eps) boundary layer.  All time integrals
are left-endpoint Riemann sums with step dt, and eps must be an integer
multiple of dt so the difference quotients never interpolate.

`qv_certificate` turns the bracket into a decision: a path family has
vanishing quadratic variation when the mean bracket decays like a positive
power of eps.  The certificate fits the log-log slope across an
EpsilonSchedule and checks decay, which a Wiener path (bracket ~ t, slope 0)
must fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError, SampleSizeError
from .grid import TimeGrid

# Fewest eps values that qv_certificate fits its decay slope through.
_MIN_SLOPE_POINTS = 3
# Fewest paths that qv_certificate averages the bracket over.
_MIN_QV_PATHS = 100


@dataclass(frozen=True, eq=False)
class EpsilonSchedule:
    """Strictly decreasing ladder of regularization widths."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DomainError("schedule must be a non-empty 1-d array")
        # written so that a nan fails each test
        if not np.all((v > 0) & (v < np.inf)):
            raise DomainError("every eps must be positive and finite")
        if not np.all(np.diff(v) < 0):
            raise DomainError("eps values must be strictly decreasing")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def dyadic(cls, grid: TimeGrid, k_min: int = 3, k_max: int = 8) -> "EpsilonSchedule":
        """T·2^-k for k = k_min .. k_max, validated against the grid."""
        if k_min >= k_max:
            raise DomainError("k_min must be below k_max")
        eps = np.array([grid.T * 2.0**-k for k in range(k_min, k_max + 1)])
        for e in eps:
            _eps_steps(grid, e)
        return cls(values=eps)

    def __len__(self):
        return self.values.size


def _eps_steps(grid: TimeGrid, eps: float) -> int:
    """eps as a whole number of grid steps, >= 2."""
    if not abs(eps) < np.inf:  # a nan fails it too
        raise DomainError(f"eps={eps} is not finite")
    k = int(round(eps / grid.dt))
    if abs(k * grid.dt - eps) > 1e-9 * grid.dt:
        raise ResolutionError(f"eps={eps} is not an integer multiple of dt={grid.dt}")
    if k < 2:
        raise ResolutionError(f"eps={eps} must be at least 2*dt={2 * grid.dt}")
    return k


def _as_values(obj, grid: TimeGrid) -> np.ndarray:
    """A path's values on the grid points, shape-checked."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (grid.n + 1,):
        raise DomainError(f"expected {grid.n + 1} values on grid points, got {arr.shape}")
    return arr


def symmetric_integral_eps(Y, X, grid: TimeGrid, eps: float, t: float) -> float:
    """Mollified integral int_0^t Y_s dX_s at regularization width eps.

    Y and X are arrays of values on the grid points; X supplies the
    increments.
    """
    xv = _as_values(X, grid)
    yv = _as_values(Y, grid)
    k = _eps_steps(grid, eps)
    K = grid.index_of(t)
    idx = np.arange(K)
    hi = np.minimum(idx + k, grid.n)
    lo = np.maximum(idx - k, 0)
    quot = (xv[hi] - xv[lo]) / (2.0 * eps)
    return float(np.sum(yv[idx] * quot) * grid.dt)


def _bracket(xv: np.ndarray, yv: np.ndarray, grid: TimeGrid, eps: float,
             K: int) -> np.ndarray:
    """(1/eps) sum_{i<K} (X_{i+k} - X_i)(Y_{i+k} - Y_i) dt over the last axis.

    Values on grid points sit along the last axis; X and Y are frozen at
    their last grid value beyond the horizon.
    """
    idx = np.arange(K)
    hi = np.minimum(idx + _eps_steps(grid, eps), grid.n)
    dx = xv[..., hi] - xv[..., idx]
    dy = yv[..., hi] - yv[..., idx]
    return np.sum(dx * dy, axis=-1) * grid.dt / eps


def covariation_eps(X, Y, grid: TimeGrid, eps: float, t: float) -> float:
    """Bracket estimator (1/eps) int_0^t (X_{s+eps}-X_s)(Y_{s+eps}-Y_s) ds.

    X and Y are arrays of values on the grid points.
    """
    return float(_bracket(_as_values(X, grid), _as_values(Y, grid), grid, eps,
                          grid.index_of(t)))


@dataclass(frozen=True, eq=False)
class QVReport:
    """Per-eps bracket statistics plus the fitted decay slope."""

    eps: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    slope: float
    target: float
    passed: bool

    def rows(self) -> list[tuple[float, float, float]]:
        return [(float(e), float(m), float(s))
                for e, m, s in zip(self.eps, self.means, self.stderrs)]


def qv_certificate(values: np.ndarray, grid: TimeGrid, H: float,
                   schedule: EpsilonSchedule, t: float | None = None) -> QVReport:
    """Estimate E[X,X]_{eps,t} across the schedule and certify decay.

    values: (paths, n+1) matrix of path values on grid points.  Passes iff
    the fitted log-log slope lies within 0.1 of 2H - 1 and the mean bracket
    at the smallest eps is below the mean at the largest eps.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.n + 1:
        raise DomainError("values must be a (paths, n+1) matrix on grid points")
    if values.shape[0] < _MIN_QV_PATHS:
        raise SampleSizeError(
            f"need at least {_MIN_QV_PATHS} paths, got {values.shape[0]}")
    if len(schedule) < _MIN_SLOPE_POINTS:
        raise DomainError(
            f"slope fit needs at least {_MIN_SLOPE_POINTS} eps values")
    if t is None:
        t = grid.T
    K = grid.index_of(t)

    means = np.empty(len(schedule))
    stderrs = np.empty(len(schedule))
    for i, eps in enumerate(schedule.values):
        per_path = _bracket(values, values, grid, eps, K)
        means[i] = per_path.mean()
        stderrs[i] = per_path.std(ddof=1) / np.sqrt(per_path.size)

    slope = float(np.polyfit(np.log(schedule.values), np.log(means), 1)[0])
    target = 2.0 * H - 1.0
    passed = bool(abs(slope - target) <= 0.1 and means[-1] < means[0])
    return QVReport(eps=schedule.values.copy(), means=means, stderrs=stderrs,
                    slope=slope, target=target, passed=passed)
