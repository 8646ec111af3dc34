"""Fractional kernels for the moving-average representation of the noise.

The self-similar noise of rank q and self-similarity index H in (1/2, 1) is
built from a Brownian motion through the Volterra kernel

    K_H(t, s) = c_H * s^(1/2-H) * int_s^t (u-s)^(H-3/2) * u^(H-1/2) du,  t > s,

its derivative in t

    dK_H(t, s) = c_H * (s/t)^(1/2-H) * (t-s)^(H-3/2),

and, for rank q, the symmetric q-point kernel

    L_t(y_1..y_q) = 1{max y <= t} * int_{max y}^t prod_j dK_{H'}(u, y_j) du,

where H' = 1 + (H-1)/q so that q fold self-similarity composes back to H.

K_H and the normalization are evaluated in closed form:

* With a = H - 1/2, the substitution u = s + (t-s) v turns the integral of
  K_H into Euler's integral of the Gauss hypergeometric function, so
  K_H(t, s) = (c_H / a) * (t-s)^a * 2F1(-a, a; 1+a; 1 - t/s)
  (Decreusefond & Ustunel 1999).
* c_H makes int_0^min(u,v) K_H(u, y) K_H(v, y) dy the fBm covariance, so
  int_0^min(u,v) dK_{H'}(u, y) dK_{H'}(v, y) dy = H'(2H'-1) |u-v|^(2H'-2).
  Squaring L_1 and applying Fubini leaves q-th powers of that cross moment,
  and q(2H'-2) = 2H-2 gives
  ||L_1||^2 = (H'(2H'-1))^q * int_[0,1]^2 |u-v|^(2H-2) du dv
            = (H'(2H'-1))^q / (H(2H-1)).
  The constant d(H) = (q! ||L_1||^2)^(-1/2) gives the rank-q process unit
  variance at t = 1 (Tudor 2013); for rank 1 it is 1.

L_t stays a quadrature: Gauss–Jacobi rules absorb its algebraic endpoint
singularity, with exponent in (-1, -1/2), into the weight.  It is the
independent oracle of the rank-2 pair matrices in the tests and, for rank 1,
an independent route to K_H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1, roots_jacobi

from .errors import DomainError, UnsupportedOrderError

__all__ = [
    "HermiteSpec",
    "hurst_prime",
    "c_H",
    "kernel_KH",
    "kernel_KH_matrix",
    "kernel_L",
    "d_H",
]

SUPPORTED_ORDERS = (1, 2)

# Gauss rule size of each panel of _kernel_L_hp.
_L_NODES = 12

# Rows per block of kernel_KH_matrix: one row at a time takes the GIL about
# 15 times a row and slows the driver draw that the rank-1 build overlaps.
_KH_ROW_BLOCK = 64


def _check_rank(q: int) -> int:
    q = int(q)
    if q not in SUPPORTED_ORDERS:
        raise UnsupportedOrderError(
            f"rank {q} not supported (exact build covers {SUPPORTED_ORDERS})")
    return q


def _check_hurst(H: float) -> float:
    H = float(H)
    if not 0.5 < H < 1.0:
        raise DomainError(f"self-similarity index must lie in (1/2, 1), got {H}")
    return H


def hurst_prime(q: int, H: float) -> float:
    """Index H' = 1 + (H-1)/q of the one-dimensional kernel factors.

    Valid for any integer rank q >= 1; always lands in (1 - 1/(2q), 1).
    """
    H = _check_hurst(H)
    q = int(q)
    if q < 1:
        raise DomainError(f"rank must be a positive integer, got {q}")
    return 1.0 + (H - 1.0) / q


def c_H(H: float) -> float:
    """Normalization c_H = sqrt( H(2H-1) / B(2-2H, H-1/2) ) of K_H."""
    H = _check_hurst(H)
    return float(np.sqrt(H * (2.0 * H - 1.0) / beta_fn(2.0 - 2.0 * H, H - 0.5)))


@lru_cache(maxsize=256)
def _jacobi(n: int, alpha: float, beta: float):
    x, w = roots_jacobi(n, alpha, beta)
    return x, w


def _kh(t, s, H: float):
    """K_H(t, s) for s > 0, elementwise, by its closed form (no checks).

    Zero where t <= s: (t-s)^a is clipped to 0 there, and 1 - t/s to at
    most 1, where the hypergeometric factor is still finite.
    """
    a = H - 0.5
    z = np.minimum(1.0 - t / s, 1.0)
    return c_H(H) / a * np.maximum(t - s, 0.0) ** a * hyp2f1(-a, a, 1.0 + a, z)


def kernel_KH(t: float, s: float, H: float) -> float:
    """Volterra kernel K_H(t, s); zero when t <= s."""
    H = _check_hurst(H)
    if s <= 0:
        raise DomainError(f"kernel argument s must be positive, got {s}")
    if t <= s:
        return 0.0
    return float(_kh(t, s, H))


def kernel_KH_matrix(t_values: np.ndarray, s_values: np.ndarray,
                     H: float) -> np.ndarray:
    """Matrix K_H(t_k, s_i) over all pairs, zeros where t_k <= s_i.

    Builds the lattice representation of the rank-1 noise.  The rows go in
    blocks, and a block evaluates the closed form of kernel_KH only on the
    columns whose s lies below its largest t, so on a lattice, where the
    kernel is lower-triangular, the matrix costs about half the square.
    """
    H = _check_hurst(H)
    t_values = np.asarray(t_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values <= 0):
        raise DomainError("kernel arguments s must be positive")
    out = np.zeros((t_values.size, s_values.size))
    for lo in range(0, t_values.size, _KH_ROW_BLOCK):
        tc = t_values[lo:lo + _KH_ROW_BLOCK, None]
        sel = s_values < tc.max()
        out[lo:lo + _KH_ROW_BLOCK, sel] = _kh(tc, s_values[sel], H)
    return out


def _dkh_profile(u: np.ndarray, y: float, Hp: float, c: float) -> np.ndarray:
    """dK_{H'}(u, y) for an array of u > y (no domain checks; internal)."""
    return c * (y / u) ** (0.5 - Hp) * (u - y) ** (Hp - 1.5)


def kernel_L(t: float, y, spec: "HermiteSpec") -> float:
    """Rank-q kernel L_t(y_1, ..., y_q); zero when t <= max(y).

    The number of arguments must equal the spec's rank.  For rank 1 this
    reduces to kernel_KH at the spec's index.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != spec.q:
        raise DomainError(f"expected {spec.q} kernel arguments, got {y.size}")
    return _kernel_L_hp(t, y, spec.hp)


def _kernel_L_hp(t: float, y: np.ndarray, hp: float) -> float:
    """kernel_L by the one-dimensional index H' alone (any argument count).

    The u-integral is singular at u = max(y) (Jacobi panel) and, when two
    arguments are close, steep on the scale of their gap; geometrically
    growing panels resolve that without per-pair tuning. Coinciding arguments
    make the integral diverge and raise DomainError.
    """
    if np.any(y <= 0):
        raise DomainError("kernel arguments must be positive")
    m = float(np.max(y))
    if t <= m:
        return 0.0
    others = np.sort(y)[:-1]
    if others.size and others[-1] >= m - 1e-15 * max(1.0, m):
        raise DomainError("kernel_L diverges when the two largest arguments coincide")
    c = c_H(hp)

    def smooth_part(u: np.ndarray) -> np.ndarray:
        # integrand with the (u - m)^(H'-3/2) factor removed
        vals = c * m ** (0.5 - hp) * u ** (hp - 0.5)
        for yj in others:
            vals = vals * _dkh_profile(u, float(yj), hp, c)
        return vals

    gap = float(m - others[-1]) if others.size else (t - m)
    edge = min(t, m + min(gap, t - m))

    # Singular panel [m, edge]: Jacobi weight (u - m)^(H'-3/2).
    xj, wj = _jacobi(_L_NODES, 0.0, hp - 1.5)
    half = (edge - m) / 2.0
    u = m + half * (xj + 1.0)
    total = half ** (hp - 0.5) * float(wj @ smooth_part(u))

    # Geometric Legendre panels [edge, t]; integrand now includes the factor.
    xg, wg = np.polynomial.legendre.leggauss(_L_NODES)
    lo = edge
    width = edge - m
    while lo < t - 1e-15 * max(1.0, t):
        hi = min(t, lo + 2.0 * width)
        half = (hi - lo) / 2.0
        u = lo + half * (xg + 1.0)
        total += half * float(wg @ (smooth_part(u) * (u - m) ** (hp - 1.5)))
        width = hi - lo
        lo = hi
    return float(total)


def d_H(q: int, H: float) -> float:
    """Variance normalization: Var of the rank-q process at t = 1 becomes 1.

    d(H)^2 = H(2H-1) / (q! (H'(2H'-1))^q), the reciprocal of q! ||L_1||^2
    (see the module docstring).  Ranks above 2 are not supported.
    """
    H = _check_hurst(H)
    hp = hurst_prime(_check_rank(q), H)
    return math.sqrt(H * (2.0 * H - 1.0)
                     / (math.factorial(q) * (hp * (2.0 * hp - 1.0)) ** q))


@dataclass(frozen=True)
class HermiteSpec:
    """Rank and index of a Hermite-class noise, with derived constants.

    hp is the index of the one-dimensional kernel factors, c the kernel
    constant at hp, d the unit-variance normalization.  Use
    HermiteSpec.create(q, H); the constructor refuses an unsupported rank
    and otherwise trusts its inputs.
    """

    q: int
    H: float
    hp: float
    c: float
    d: float

    def __post_init__(self):
        _check_rank(self.q)

    @classmethod
    def create(cls, q: int, H: float) -> "HermiteSpec":
        H = _check_hurst(H)
        q = _check_rank(q)
        hp = hurst_prime(q, H)
        return cls(q=q, H=H, hp=hp, c=c_H(hp), d=d_H(q, H))
