"""Fractional kernels for the moving-average representation of the noise.

The self-similar noise of rank q and self-similarity index H in (1/2, 1) is
built from a Brownian motion through the Volterra kernel

    K_H(t, s) = c_H * s^(1/2-H) * int_s^t (u-s)^(H-3/2) * u^(H-1/2) du,  t > s,

its s-derivative

    dK_H(t, s) = c_H * (s/t)^(1/2-H) * (t-s)^(H-3/2),

and, for rank q, the symmetric q-point kernel

    L_t(y_1..y_q) = 1{max y <= t} * int_{max y}^t prod_j dK_{H'}(u, y_j) du,

where H' = 1 + (H-1)/q so that q fold self-similarity composes back to H.
All integrands have algebraic endpoint singularities with exponents in
(-1, -1/2); Gauss–Jacobi rules absorb them into the quadrature weight, so a
few dozen nodes give near machine-precision values.

The normalization constant d(H) that gives the rank-q process unit variance
at t = 1 is computed here by numerical quadrature of ||L_1||^2 over the unit
square (rank 2) or of ||K_1||^2 (rank 1); no literature constant is baked in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import roots_jacobi

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

# Gauss rule sizes, one per integral.
_KH_NODES = 48  # kernel_KH
_KH_MATRIX_NODES = 24  # kernel_KH_matrix
_L_NODES = 12  # each panel of _kernel_L_hp
_PSI_NODES = 20  # each panel of _psi
_NORM_NODES = 48  # the outer rule of _norm_L1_sq


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


def kernel_KH(t: float, s: float, H: float) -> float:
    """Volterra kernel K_H(t, s); zero when t <= s.

    The integrand (u-s)^(H-3/2) u^(H-1/2) is integrated with a Gauss–Jacobi
    rule whose weight carries the (u-s)^(H-3/2) factor exactly, leaving the
    analytic factor u^(H-1/2) to the polynomial part.
    """
    H = _check_hurst(H)
    if s <= 0:
        raise DomainError(f"kernel argument s must be positive, got {s}")
    if t <= s:
        return 0.0
    x, w = _jacobi(_KH_NODES, 0.0, H - 1.5)
    half = (t - s) / 2.0
    u = s + half * (x + 1.0)
    integral = half ** (H - 0.5) * float(w @ u ** (H - 0.5))
    return c_H(H) * s ** (0.5 - H) * integral


def kernel_KH_matrix(t_values: np.ndarray, s_values: np.ndarray,
                     H: float) -> np.ndarray:
    """Matrix K_H(t_k, s_i) over all pairs, zeros where t_k <= s_i.

    Vectorized version of kernel_KH used to assemble the lattice
    representation of the rank-1 noise; one Jacobi rule shared by all pairs.
    The rows go in chunks, and a chunk evaluates only the columns whose s
    lies below its largest t, so on a lattice, where the kernel is
    lower-triangular, the matrix costs about half the square.
    """
    H = _check_hurst(H)
    t_values = np.asarray(t_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values <= 0):
        raise DomainError("kernel arguments s must be positive")
    x, w = _jacobi(_KH_MATRIX_NODES, 0.0, H - 1.5)
    out = np.zeros((t_values.size, s_values.size))
    c = c_H(H)
    spow = s_values ** (0.5 - H)
    # Chunk over t to keep the (t, s, nodes) intermediate at a modest size.
    chunk = max(1, int(2e6) // max(1, s_values.size * _KH_MATRIX_NODES))
    for lo in range(0, t_values.size, chunk):
        hi = min(lo + chunk, t_values.size)
        tc = t_values[lo:hi, None]
        sel = s_values < tc.max()
        sc = s_values[sel]
        half = (tc - sc[None, :]) / 2.0
        mask = half > 0
        halfm = np.where(mask, half, 1.0)
        # one (rows, cols, nodes) array, powered in place
        u = halfm[:, :, None] * (x + 1.0)
        u += sc[None, :, None]
        np.power(u, H - 0.5, out=u)
        integral = halfm ** (H - 0.5) * (u @ w)
        del u  # before the next chunk allocates its own
        out[lo:hi, sel] = np.where(mask, c * spow[None, sel] * integral, 0.0)
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


def _psi(r: float, hp: float) -> float:
    """Cross moment psi(r) = int_0^1 dK(r, y) dK(1, y) dy for r > 1.

    The integrand c^2 r^(H'-1/2) y^(1-2H') (r-y)^(H'-3/2) (1-y)^(H'-3/2)
    is singular at y = 0 and y = 1 and develops a boundary layer of width
    r - 1 at the right end as r -> 1.  Panels: a Jacobi panel on [0, 1/2]
    carrying the y^(1-2H') weight, geometric panels shrinking toward y = 1,
    and a final Jacobi panel of width min(r-1, 1/2) at y = 1 carrying the
    (1-y)^(H'-3/2) weight, on which (r - y) varies by at most a factor 2.
    """
    c2 = c_H(hp) ** 2
    pref = c2 * r ** (hp - 0.5)
    g = min(r - 1.0, 0.5)

    # Left Jacobi panel [0, 1/2], weight y^(1-2H') at the lower endpoint.
    xl, wl = _jacobi(_PSI_NODES, 0.0, 1.0 - 2.0 * hp)
    y = 0.25 * (xl + 1.0)
    smooth = (r - y) ** (hp - 1.5) * (1.0 - y) ** (hp - 1.5)
    total = 0.25 ** (2.0 - 2.0 * hp) * float(wl @ smooth)

    # Right Jacobi panel [1-g, 1], weight (1-y)^(H'-3/2) at the upper end.
    xr, wr = _jacobi(_PSI_NODES, hp - 1.5, 0.0)
    half = g / 2.0
    y = 1.0 - g + half * (xr + 1.0)
    smooth = y ** (1.0 - 2.0 * hp) * (r - y) ** (hp - 1.5)
    total += half ** (hp - 0.5) * float(wr @ smooth)

    # Geometric Legendre panels filling (1/2, 1-g), doubling away from y=1.
    xg, wg = np.polynomial.legendre.leggauss(_PSI_NODES)
    hi = 1.0 - g
    width = g
    while hi > 0.5 + 1e-15:
        lo = max(0.5, hi - width)
        half = (hi - lo) / 2.0
        y = lo + half * (xg + 1.0)
        vals = y ** (1.0 - 2.0 * hp) * (r - y) ** (hp - 1.5) * (1.0 - y) ** (hp - 1.5)
        total += half * float(wg @ vals)
        width = 2.0 * (hi - lo)
        hi = lo
    return pref * total


def _norm_L1_sq(q: int, H: float) -> float:
    """Squared L2([0,1]^q) norm of the rank-q kernel L_1.

    Exact reductions do the heavy lifting: writing L as a u-integral of
    dK-products and applying Fubini turns the q-cube integral of L^2 into a
    double integral of psi(u/v)^q-type cross moments, and the kernel scaling
    dK(lam t, lam s) = lam^(H'-3/2) dK(t, s) collapses the pair (u, v) to
    the single ratio r = u/v.  What remains, for every rank, is

        ||L_1||^2 = (1/H) * int_0^1 x^(2H-2) psi(1/x)^q dx,

    whose integrand behaves like (1-x)^(2H-2) at x = 1 and is regular at
    x = 0; a Jacobi rule with that weight finishes the job.
    """
    hp = hurst_prime(q, H)
    a = 2.0 * H - 2.0
    xj, wj = _jacobi(_NORM_NODES, a, 0.0)
    x = 0.5 * (xj + 1.0)
    vals = np.empty_like(x)
    for i, xi in enumerate(x):
        vals[i] = (xi / (1.0 - xi)) ** a * _psi(1.0 / xi, hp) ** q
    J = 0.5 ** (a + 1.0) * float(wj @ vals)
    return J / H


def d_H(q: int, H: float) -> float:
    """Variance normalization: Var of the rank-q process at t = 1 becomes 1.

    Computed as (q! * ||L_1||^2)^(-1/2) with the kernel norm evaluated by
    quadrature of the defining integral — rank 1 over [0, 1], rank 2 over the
    unit square. Ranks above 2 are not supported.
    """
    H = _check_hurst(H)
    return _d_H_cached(_check_rank(q), H)


@lru_cache(maxsize=64)
def _d_H_cached(q: int, H: float) -> float:
    norm = _norm_L1_sq(q, H)
    factorial = 1.0 if q == 1 else 2.0
    return float(1.0 / np.sqrt(factorial * norm))


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
