"""Lattice simulation of Hermite-class noise of rank 1 and 2.

Both ranks share one representation: the target process is a (multiple)
Wiener integral of the fractional kernel against a standard Brownian motion,
and the lattice version replaces the Brownian motion by its increments on a
uniform grid.

rank 1 (Gaussian):     Z(t_k) = sum_{i<k} K_H(t_k, m_i) dW_i  (m_i midpoints)
rank 2 (non-Gaussian): Z(t_k) = d * (dW' A_k dW - dt * tr A_k),
    A_k[i, j] = lambda-weighted cell average of L_{t_k} over cell_i x cell_j.

Rank 2 uses cell averages instead of pointwise kernel values.  Writing
L_t(y1, y2) = int dK(u, y1) dK(u, y2) du and exchanging the order of
integration, the average over a pair of cells factorizes through
F_i(u) = (1/dt) * int_{cell_i} dK(u, y) dy, so A is assembled window by
window from Gram matrices of the factor rows.  The square is Wick-ordered
(the deterministic trace term subtracted), which keeps the process centered
with the diagonal cells kept.  The tempting one-liner — kernels at step
midpoints, diagonal dropped — loses the kernel's L^2 mass in the band
|y1 - y2| < dt and near y = 0, a variance deficit of order
dt^(2H-1) + dt^(1-H); both exponents are small for H in (1/2, 1), so the
deficit is still 12-38% at n = 2^10.  Cell averages remove the evaluation
bias, and a deterministic per-window factor lambda_l >= 1 (_window_scales)
restores the mass a piecewise-constant-in-y projection cannot represent, so
that Var Z(t_k) = t_k^(2H) holds exactly at every grid point.

The pair sum is never formed entry by entry during simulation: the
u-integral splits across grid windows [t_l, t_{l+1}], and on each window the
chaos sum collapses to S(u_p) = sum_i F_i(u_p) dW_i, with graded
Gauss-Legendre u-panels of fixed order (_NODES).  In y, the three edge cells
of a window (cell 0 and the two next to u), next to the kernel's
singularities, are exact incomplete-Beta averages.  The bulk cells between
them average the kernel power x^(hp - 3/2), x in [dt, T], with a fixed
Gauss-Legendre rule, and that power is an exponential sum of N = 36-71
positive terms accurate to about 1e-15 (_exp_sum), so a bulk factor row is
E (r^(l-2-i) ct_i) times the u-powers, r = exp(-rates dt), and every sum
over cells or windows is a recursion on N-vectors and (N, N) tables.  The
window pass (_window_blocks) keeps per path the state
X_l = sum_{1<=i<=l-2} r^(l-2-i) ct_i dW_i and maps it, with the newest
increments, to the chaos sums of _FOLD windows by one GEMM per block and
chunk of _PATH_BLOCK driver rows: O(n N M) per path, forward in the
simulator and transposed in the derivative norm.  _window_scales solves
the calibration in one forward sweep, O(n N^2 M), whose per-window Grams
also give the Wick means the simulator subtracts (one cached record), and
_pair_sums builds the pair matrices at any set of indices in one backward
sweep, O(k N^2 M + k^2 N) for A_k; both sweeps batch the lambda-free
products of a block of _FOLD windows and step one (N+1, N+1) state per
window.  The Wick form of A_k, d * (dW' A dW - dt * tr A), reproduces
simulated values to roundoff.  A k x k array is built only when a consumer
reads a pair matrix: _pair_matrix_cached keeps the last two single blocks,
and _lattice_gram drops its cross moments' blocks on return.  The four plan
caches (_fbm_weights, _window_plan, _window_scales, _pair_matrix_cached)
are keyed by the TimeGrid and HermiteSpec their caller holds; both hash by
value.

Both ranks store an ensemble time-first: the values fill one (n+1, paths)
array, row k holding Z(t_k) for every path, and come back as its
transpose, a Fortran-ordered (paths, n+1) view, so a flow reads each time
row contiguously.  Rank 2 writes window l's Wick-ordered term into row l+1
and sums the rows in place.  Rank 1 multiplies the driver by the kernel
matrix (_fbm_weights), whose row k vanishes past step k: the driver is
written into rows 1..n, row i+1 holding the increment of step i, and
_fbm_in_place overwrites it with the product, for each chunk of
_TRI_CHUNK paths in blocks of _TRI_BLOCK time steps, last block first, each
one GEMM over the block's nonzero prefix.  simulate_ensemble draws the
rank-1 driver in blocks of _DRAW_BLOCK paths straight into that array, so it
holds a whole (paths, n) driver only when the caller asks for one.  Two
helper threads share the work: one first builds the kernel matrix, and both
draw blocks (the draw and numpy release the interpreter lock); the products
start once the draw is done, so the BLAS threads do not spin between blocks.
Every path's driver comes from its own stream, so no bit depends on
_DRAW_BLOCK, on which thread drew a block, or on the thread count.  The BLAS
rounds by matrix shape; each chunk is its own GEMMs, so a path in a complete
chunk has the same bits whatever paths follow it.  Rank 2 builds its plan
on the calling thread.

The Malliavin derivative of the lattice noise is a product with the same
kernels, so it lives here, beside the forward product it transposes:
_dz_rows gives the rows G[k] = D Z_{t_k}, kernel rows or 2 d A_k dW, and
_dz_norm the per-path norm ||sum_r w[r] G[ks+r]||^2 dt, off two kernel rows
or pair matrices for w = e_0 - e_m, else by the adjoint of _fbm_in_place
or of the window pass.

lattice_variance/lattice_covariance return exact second moments of the
lattice process; at finite n a small increment-level bias remains (the grid
variances themselves are calibrated: rank 2 reads t^(2H)), and these let
tests separate it from Monte Carlo error.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import beta as _beta_fn, betainc, gamma as _gamma_fn

from .errors import DomainError, NumericError
from .grid import TimeGrid
from .kernels import HermiteSpec, kernel_KH_matrix
from .wiener import WienerLattice, _rng, generate_increments

__all__ = [
    "NoisePath",
    "simulate_fbm",
    "simulate_hermite",
    "simulate_ensemble",
    "simulate_fbm_circulant",
    "pair_matrix",
    "lattice_variance",
    "lattice_covariance",
]


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realized noise path on a grid, with the lattice that produced it.

    values[k] is the path at grid.points[k]; grid.index_of maps a lattice
    time to its index.  Paths compare and hash by identity.
    """

    grid: TimeGrid
    spec: HermiteSpec
    values: np.ndarray  # (n+1,), values[0] = 0
    source: WienerLattice

    def __post_init__(self):
        if self.values.shape != (self.grid.n + 1,):
            raise DomainError(
                f"values shape {self.values.shape} does not match grid with n={self.grid.n}"
            )
        if self.source.grid != self.grid:
            raise DomainError("source lattice lives on a different grid")
        self.values.flags.writeable = False

    @property
    def driver(self) -> np.ndarray:
        return self.source.increments


# Time steps per block, and paths per chunk, of the rank-1 triangular
# products (_fbm_in_place and its adjoint in _dz_norm).  Constants, so no
# bit depends on the thread count.
_TRI_BLOCK, _TRI_CHUNK = 128, 1024

# Paths per chunk of the rank-2 window products.
_PATH_BLOCK = 256

# Paths per driver block of a rank-1 simulate_ensemble.  Small, because the
# two blocks in flight at the end of the draw sit on top of the full array.
_DRAW_BLOCK = 64


@lru_cache(maxsize=32)
def _fbm_weights(grid: TimeGrid, spec: HermiteSpec) -> np.ndarray:
    M = kernel_KH_matrix(grid.points[1:], grid.midpoints, spec.H)
    M.flags.writeable = False
    return M


# Gauss-Legendre u-panels inside each window, graded toward the left edge
# where the newest cell's kernel factor blows up.
_U_GRADING = (0.0, 1.0 / 64.0, 1.0 / 8.0, 1.0)

# Gauss-Legendre order of each u-panel; the bulk y-rule derives from it.
_NODES = 8


def _panels(edges: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Nodes and weights of the rule (x, w) on [-1, 1] mapped onto each panel
    [edges[i], edges[i+1]], concatenated."""
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2.0
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def _exp_sum(a: float, n: int):
    """(sigma, w), all positive: x^(-a) = sum_e w_e exp(-sigma_e x) to
    about 1e-15 relative for x in [1/n, 1], 0 < a < 1.

    The trapezoid rule with step 1/4 in t on x^(-a) = int_0^inf s^(a-1)
    exp(-s x) ds / Gamma(a), s = exp(t - exp(-t)), whose integrand decays
    doubly exponentially as t -> -inf and exponentially as t -> inf (Beylkin
    and Monzon 2005); terms below 1e-17 of x^(-a) everywhere on the range
    are dropped: 36-38 at n = 4, 55-57 at n = 512, 64-65 at n = 4096."""
    t = np.arange(-32, 240) / 4.0
    sigma = np.exp(t - np.exp(-t))
    w = 0.25 * sigma**a * (1.0 + np.exp(-t)) / _gamma_fn(a)
    with np.errstate(divide="ignore"):
        x = np.clip(a / sigma, 1.0 / n, 1.0)  # where term / x^(-a) peaks
    keep = w * np.exp(-sigma * x) * x**a > 1e-17
    return sigma[keep], w[keep]


def _powers(rh: np.ndarray, k: int) -> np.ndarray:
    """(k, N): row j holds r^j = exp(-rh j), zero below e^-200 (no subnormals)."""
    d = np.arange(k)[:, None] * rh
    return np.where(d > 200.0, 0.0, np.exp(-d))


class _WindowPlan:
    """Per-grid quadrature tables for cell-averaged kernel factor rows.

    factor_block(l, l + 1), the one-window block, returns (F, w):
    F[p, i] is the average of dK(u_p, y) over cell i (i <= l) at the
    window-l u-nodes u_p, and w the matching u-weights, so F.T @ diag(w) @ F
    is window l's contribution to the pair matrix and F @ dW[:l+1] evaluates
    the chaos integrand at the u-nodes.  Edge cells 0, l-1 and l, next to
    the singularities at y = 0 and y = u, are exact incomplete-Beta
    averages (edges).  Bulk cells 1 .. l-2 average the kernel power with a
    fixed Gauss-Legendre rule, and the power's exponential sum (rates,
    weights) factors them as E[p] r^(l-2-i) ct[i] times the u-power, which
    _window_scales and _pair_sums read through exp_block and the window
    pass (_window_blocks) through the tables of _BlockTables.

    The plan holds quadrature only, nothing the calibration solves for: the
    scales lambda_l^2 and the Wick means live in the _window_scales record,
    so a plan evicted and rebuilt needs no second calibration.
    """

    def __init__(self, grid: TimeGrid, spec: HermiteSpec):
        n, h, pts, hp, c = grid.n, grid.dt, grid.points, spec.hp, spec.c
        m_y = max(2, _NODES // 2)

        # u template: offsets and weights relative to the window start
        du, self.wu = _panels(np.array(_U_GRADING) * h, *leggauss(_NODES))
        self.M = du.size

        # bulk cells average over the y-nodes yoff_j of a fixed Gauss-Legendre
        # rule: weight y^(1/2 - hp) times the averaging weight at y = t_i + yoff_j
        xb, wb = leggauss(m_y)
        yoff = (h / 2.0) * (xb + 1.0)
        cw = (pts[:-1] + yoff[:, None]) ** (0.5 - hp) * (wb[:, None] / 2.0)

        # Every window's u-powers c u^(hp - 1/2) and its edge columns
        # edges[l] = (cell 0, cell l-1, cell l), u-powers included.  With
        # y = u s a cell average is exact: (c/h) u^(hp - 1/2) B(a, b) times
        # I_{y1/u}(a, b) - I_{y0/u}(a, b), a = 3/2 - hp, b = hp - 1/2.  Cells
        # l-1 and l, next to the singularity at y = u, take the complement
        # form I_{(u-y0)/u}(b, a) - I_{(u-y1)/u}(b, a), which keeps their
        # digits.  It is evaluated once per boundary, t_{l-1} and t_l: cell l
        # ends at u, where it is I_0 = 0, and window 0's cell l-1 is cell 0.
        u = pts[:-1, None] + du  # (n, M)
        self.upow = up = c * u ** (hp - 0.5)
        a, b = 1.5 - hp, hp - 0.5
        l = np.arange(n)[:, None]
        lower, own = betainc(b, a, np.clip((u - h * np.stack([l - 1, l])) / u, 0.0, 1.0))
        cells = np.stack([betainc(a, b, np.minimum(h, u) / u), lower - own, own], axis=1)
        cells[0, 1] = own[0]
        self.edges = (_beta_fn(a, b) / h) * up[:, None, :] * cells

        # The bulk power as an exponential sum, x^(-a) = sum_e weights_e
        # exp(-rates_e x) on [h, T] (_exp_sum), so the power at lag k = l - i,
        # (k h + du_p - yoff_j)^(hp - 3/2), factors as E[p] r^(k-2) ct[i]:
        # E[p, e] = weights_e exp(-rates_e du_p), r = exp(-rates h) and
        # ct[i, e] = sum_j cw[j, i] exp(-rates_e (2h - yoff_j)).  Every sum
        # over cells or windows runs on these N-vectors.
        sigma, wt = _exp_sum(a, n)
        T = n * h
        self.rates, self.weights = sigma / T, wt * T ** -a
        self.rh = self.rates * h
        self.r = np.exp(-self.rh)
        self.E = self.weights * np.exp(-np.outer(du, self.rates))
        self.ct = cw.T @ np.exp(-np.outer(2.0 * h - yoff, self.rates))
        # sqrt(w)-weighted factor rows of windows l < 4, rows (l, p)
        Fs = self.factor_block(0, min(n, 4))[0]
        self.first = (Fs * np.tile(np.sqrt(self.wu), len(Fs) // self.M)[:, None]).T

    def factor_block(self, l0: int, l1: int):
        """(Fs, w): rows (l - l0) M .. (l - l0 + 1) M of the (m M, l1) stack
        Fs hold window l's factor rows, l0 <= l < l1, exactly zero past
        column l; the u-powers go in with one multiply per block."""
        m, pw, ct = l1 - l0, _powers(self.rh, l1), self.ct
        Fs = np.zeros((m, self.M, l1))
        # bulk cells 1 .. l-2: the cells i <= l0-2 of every window at once,
        # r^(l-2-i) = r^(l-l0) r^(l0-2-i), then each window's newer cells
        if l0 > 2:
            Fs[:, :, 1:l0 - 1] = (pw[:m, None] * self.E) @ (pw[l0 - 3::-1] * ct[1:l0 - 1]).T
        i0 = max(1, l0 - 1)
        for l in range(max(l0 + 1, 3), l1):
            Fs[l - l0, :, i0:l - 1] = self.E @ (pw[l - 2 - i0::-1] * ct[i0:l - 1]).T
        Fs *= self.upow[l0:l1, :, None]
        l = np.arange(l0, l1)[:, None]
        Fs[l - l0, :, np.hstack([0 * l, np.maximum(l - 1, 0), l])] = self.edges[l0:l1]
        return Fs.reshape(m * self.M, l1), self.wu

    def exp_block(self, l0: int, l1: int):
        """(Eh, P) for windows 3 <= l0 <= l < l1, weighted by sqrt(w): the
        bulk factor rows of window l are Eh[l - l0] (r^(l-2-i) * ct[i]) for
        cells 1 <= i <= l-2, and P[l - l0] its (cell 0, cell l-1, cell l)
        edge rows, (3, M)."""
        sw = np.sqrt(self.wu)
        Eh = (sw * self.upow[l0:l1])[:, :, None] * self.E
        return Eh, self.edges[l0:l1] * sw


class _BlockTables:
    """The tables of the window pass (_window_blocks), built per pass, so a
    run holds none of them while it reads a pair matrix.  Block b, windows
    4 + b _FOLD <= l < l1, reads X_l = sum_{1<=i<=l-2} r^(l-2-i) ct_i dW_i
    through er[:, (l - l0) M + p] = sqrt(w_p) E[p] r^(l-l0) and dW_0,
    dW_{l0-1} .. dW_{l1-1} through wb[b] (edge cells, bulk cells
    l0-1 <= i <= l-2), u-powers and sqrt(w) included; X_l1 = rf X_l0 +
    dW_{l0-1 .. l1-2} @ tn[b + 1], rf = r^_FOLD, and X_4 = dW_1,2 @ tn[0].
    The one product, ct[l0-1:l1-1] @ er, (_FOLD, N) @ (N, _FOLD M), is
    formed per block, small enough that BLAS keeps to one thread.
    """

    def __init__(self, plan: _WindowPlan):
        F, M, ct, n = _FOLD, plan.M, plan.ct, len(plan.upow)
        pw, sw = _powers(plan.rh, F + 1), np.sqrt(plan.wu)
        self.rf = pw[F]
        er = pw[:F, :, None] * (sw[:, None] * plan.E).T  # (F, N, M)
        self.er = np.ascontiguousarray(er.transpose(1, 0, 2).reshape(-1, F * M))
        self.tn, self.wb = [pw[1::-1] * ct[1:3]], []
        tril = np.tril_indices(F, -1)  # row by row, so (m, -1)'s are its head
        for l0 in range(4, n, F):
            l1 = min(l0 + F, n)
            m = l1 - l0
            i, j = (t[:m * (m - 1) // 2] for t in tril)  # cell l0-1+j <= l-2 of window l0+i
            G = ct[l0 - 1:l1 - 1] @ er  # G[d, j] = E . (r^d ct_{l0-1+j})
            W = np.zeros((m + 2, m, M))
            W[1 + j, i] = G[i - 1 - j, j]
            W *= plan.upow[l0:l1]
            i = np.arange(m)
            W[0, i], W[1 + i, i], W[2 + i, i] = (plan.edges[l0:l1] * sw).transpose(1, 0, 2)
            self.wb.append(W.reshape(m + 2, m * M))
            self.tn.append(pw[m - 1::-1] * ct[l0 - 1:l1 - 1])


@lru_cache(maxsize=16)
def _window_plan(grid: TimeGrid, spec: HermiteSpec) -> _WindowPlan:
    return _WindowPlan(grid, spec)


def _probe_indices(n: int) -> np.ndarray:
    """Grid indices of the eighths of [0, T], 0 excluded: the probe times of
    noise-stats and mt_diagnostic.  Every second one, the quarters, is a
    noise-stats covariance time."""
    return np.unique(np.round(np.linspace(0, n, 9)).astype(int))[1:]


# Windows per block of the rank-2 window engine: one GEMM maps a block's
# state and increments to its chaos sums (_window_blocks), and the
# exponential-sum sweeps batch a block's (N, N) tables (_window_scales,
# _pair_sums; rows per block of _tri_sum).
_FOLD = 16


class _Calibration(NamedTuple):
    """_window_scales' record, read-only: lam2[l] scales window l's Gram, and
    wick[l] = dt sum_p w_p |F_l[p]|^2 is the mean subtracted from its square."""
    lam2: np.ndarray
    wick: np.ndarray


@lru_cache(maxsize=4)
def _window_scales(grid: TimeGrid, spec: HermiteSpec) -> _Calibration:
    """The variance-calibration factors lambda_l^2, one per window, and the
    Wick means, as one record (rank 2).

    With A_k = sum_{l<k} lambda_l^2 B_l (B_l = Psi_l^T Psi_l the window-l
    Gram matrix of the weighted factor rows Psi_l = sqrt(w) F_l), the
    requirement Var Z(t_k) = 2 d^2 dt^2 ||A_k||_F^2 = t_k^(2H) at every k
    reduces to one quadratic per window: writing x = <A_l, B_l>_F,
    y = ||B_l||_F^2 and tau = (t_{l+1}^(2H) - t_l^(2H)) / (2 d^2 dt^2),
    solve y * lam^4 + 2 x * lam^2 = tau for lam^2.  x, y, tau are all
    positive, so the positive root always exists; each window keeps one
    deterministic, adapted scale and path simulation stays a single
    incremental pass.  The factors absorb the L^2 mass a piecewise-constant-
    in-y projection cannot represent.  lambda is largest on the first
    window and smallest on the last; at n = 1024 it runs over [1.03, 1.25]
    at H = 0.6, [1.01, 1.19] at H = 0.7, [1.04, 1.28] at H = 0.8 and
    [1.17, 1.60] at H = 0.9.  So lattice_variance returns t_k^(2H) itself.

    x_l = sum_{m<l} lambda_m^2 ||Psi_l Psi_m^T||^2 and y_l = ||Psi_l
    Psi_l^T||^2 come from one forward sweep on the exponential sum
    (_scales_sweep), never from a pair matrix; windows l < 4 take the small
    products of their factor rows.  The sweep forms every window's M x M
    Gram Psi_l Psi_l^T, and dt times its trace is the window's Wick mean:
    the record's other half.  The entry holds 2n doubles.
    """
    plan = _window_plan(grid, spec)
    n, h = grid.n, grid.dt
    tau = np.diff(grid.points ** (2.0 * spec.H)) / (2.0 * spec.d * spec.d * h * h)
    lam2, wick = np.empty(n), np.empty(n)
    wick[:4] = h * (plan.first ** 2).sum(axis=0).reshape(-1, plan.M).sum(axis=1)
    Psi = [plan.first[:l + 1, l * plan.M:(l + 1) * plan.M].T for l in range(min(n, 4))]
    for l, P in enumerate(Psi):
        x = sum(lam2[m] * np.sum((P[:, :m + 1] @ Q.T) ** 2) for m, Q in enumerate(Psi[:l]))
        y = np.sum((P @ P.T) ** 2)
        lam2[l] = (-x + np.sqrt(x * x + y * tau[l])) / y
    if n > 4:
        _scales_sweep(plan, lam2, wick, tau, Psi, h)
    lam2.flags.writeable = wick.flags.writeable = False
    return _Calibration(lam2, wick)


def _scales_sweep(plan: _WindowPlan, lam2: np.ndarray, wick: np.ndarray,
                  tau: np.ndarray, Psi: list, dt: float) -> None:
    """Solve lam2_l for windows l >= 4 in place (see _window_scales), given
    those before and the factor rows Psi of windows 0 .. 3, and fill
    wick[4:].

    For m <= l - 2 every cell of window m but cell 0 is a bulk cell of
    window l, Psi_l[:, i] = Eh_l (r^(l-2-i) ct_i) (_WindowPlan.exp_block), so
    Psi_l Psi_m^T = Et_l Dt^(l-2-m) Ht_m with Et_l = [Eh_l | e0_l],
    Dt = diag(r, 1), Ht_m = [H_m ; e0_m^T] and
    H_m = sum_{1<=i<=m} (r^(m-i) ct_i) Psi_m[:, i]^T, (N, M).  Hence
    x_l = <Phi_l, W_l> + lam2_{l-1} ||Psi_l Psi_{l-1}^T||^2 with
    Phi_l = Et_l^T Et_l and the (N+1, N+1) state
    W_l = sum_{m<=l-2} lam2_m Dt^(l-2-m) Ht_m Ht_m^T Dt^(l-2-m).  With the
    bulk Gram K_l = sum_{1<=i<=l-2} (r^(l-2-i) ct_i)(...)^T,
    H_m = r^2 K_m Eh_m^T + (r ct_{m-1}) p1_m^T + ct_m p2_m^T (p1, p2 the edge
    columns of cells m-1 and m) and Psi_l Psi_l^T = Eh_l K_l Eh_l^T plus the
    edge columns' outer products.  Every lambda-free product is formed per
    block of _FOLD windows in batched calls, K_l of the block's windows
    l0-1+b included, D^b K_{l0-1} D^b + C_b^T C_b (D = diag r, C_b the rows
    r^(b-1-j) ct_{l0-2+j}, j < b); only the dot with W, the root and
    W <- (rt rt^T) * W + lam2_{l-1} Ht_{l-1} Ht_{l-1}^T (rt = (r, 1)) stay
    per window.  O(N^2 M) per window, each product small enough that BLAS
    keeps to one thread.
    """
    n, M, r, ct = len(lam2), plan.M, plan.r, plan.ct
    N = r.size
    pw = _powers(plan.rh, _FOLD + 1)
    rt = np.append(r, 1.0)
    rho = np.outer(rt, rt)
    lag = np.arange(_FOLD + 1)[:, None] - 1 - np.arange(_FOLD)
    Pc = np.where(lag[:, :, None] >= 0, pw[np.maximum(lag, 0)], 0.0)  # C_b's powers
    # the state as window 4 sees windows m <= 2
    W = np.zeros((N + 1, N + 1))
    for m, P in enumerate(Psi[:3]):
        G = np.zeros((N + 1, M))
        for i in range(1, m + 1):
            G[:N] += np.outer(pw[2 - i] * ct[i], P[:, i])
        G[N] = P[:, 0]
        W += lam2[m] * (G @ G.T)
    Wf = W.ravel()
    K = np.outer(ct[1], ct[1])  # K_3
    for l0 in range(4, n, _FOLD):
        # windows l0-1+b, 0 <= b <= m: each l >= l0 with the window l-1 before it
        l1 = min(l0 + _FOLD, n)
        m = l1 - l0
        Eh, P = plan.exp_block(l0 - 1, l1)
        e0, Pt = P[:, :1].transpose(0, 2, 1), P.transpose(0, 2, 1)
        # EK[b] = Eh_b K_b, K_b = D^b K D^b + C_b^T C_b
        D, C = pw[:m + 1, None, :], Pc[:m + 1, :m] * ct[l0 - 2:l1 - 2]
        EK = ((Eh * D) @ K) * D
        EK += (Eh @ C.transpose(0, 2, 1)) @ C
        K = pw[m][:, None] * K * pw[m] + C[m].T @ C[m]  # K_{l1-1}
        # H_m^T, then Ht_m^T = [H_m^T | e0_m] and Et_l = [Eh_l | e0_l]
        H = EK[:m] * (r * r)
        H += Pt[:m, :, 1:] @ np.stack([r * ct[l0 - 2:l1 - 2], ct[l0 - 1:l1 - 1]], axis=1)
        HH = _gram(np.concatenate((H, e0[:m]), axis=2)).reshape(m, -1)
        Phi = _gram(np.concatenate((Eh[1:], e0[1:]), axis=2)).reshape(m, -1)
        # Psi_l Psi_l^T and Psi_l Psi_{l-1}^T, (M, M) each
        S = Eh[1:] @ EK[1:].transpose(0, 2, 1)
        S += Pt[1:] @ P[1:]
        y = np.einsum("bij,bij->b", S, S).tolist()
        wick[l0:l1] = dt * np.einsum("bii->b", S)
        # bulk cells, then (e0_l, p1_l, Eh_l ct_{l-2}) against cells 0, l-1
        # and l-2 of window l-1
        S = (Eh[1:] * r) @ EK[:-1].transpose(0, 2, 1)
        edge = np.concatenate((Pt[1:, :, :2], Eh[1:] @ ct[l0 - 2:l1 - 2, :, None]), axis=2)
        S += edge @ P[:-1, (0, 2, 1)]
        pn = np.einsum("bij,bij->b", S, S).tolist()
        for a, l in enumerate(range(l0, l1)):
            lam = lam2[l - 1]
            x = float(Phi[a] @ Wf) + lam * pn[a]
            lam2[l] = (-x + math.sqrt(x * x + y[a] * tau[l])) / y[a]
            # window l-1 joins the state that window l+1 sees
            W *= rho
            Wf += lam * HH[a]


def _gram(A: np.ndarray, w=1.0) -> np.ndarray:
    """w A^T A for each slice of a stack A, (m, r, c) -> (m, c, c).  w A is a
    second buffer, so numpy takes a GEMM: for A^T A of one buffer it takes
    syrk, about twice as slow at these sizes."""
    return A.transpose(0, 2, 1) @ (w * A)


def _pair_sums(plan: _WindowPlan, lam2: np.ndarray, ks) -> dict:
    """{k: A_k} at exactly the requested indices k, from one backward sweep.

    A_k = sum_{l<k} lam2_l Psi_l^T Psi_l is supported on [:k, :k]; only
    that block is returned, symmetric and read-only, and it is the one k x k
    array built.  Windows l < 3 add their small products.  Window l >= 3
    has cell 0, the bulk cells 1 .. l-2 with Psi_l[:, i] = Eh_l (r^(l-2-i)
    ct_i) (_WindowPlan.exp_block), and the edge cells l-1 and l.  Summed
    over l < k, the bulk-bulk entries are (r^(j-i) ct_i) . z_j, i <= j, and
    the cell-0 row is gamma_j . ct_j: with Et_m = [Eh_m | e0_m] and
    Rt = diag(r, 1), the backward recursion
    Y_m = lam2_m Et_m^T Et_m + Rt Y_{m+1} Rt on one (N+1, N+1) state gives
    both, Y_{j+2}[:, :N] ct_j = (z_j, gamma_j . ct_j), three calls per
    window.  A bulk cell against an edge cell is the same product
    with Eh_l^T p1_l or Eh_l^T p2_l in place of z.  Every entry at or above
    the second superdiagonal is then sum_e r^(j-2-i) ct_i Z_j (_tri_sum);
    the diagonal, the first superdiagonal and row 0 are vectors.  The sweep
    costs O(k N^2 M), each A_k O(k^2 N) more.
    """
    ks = sorted({int(k) for k in ks}, reverse=True)
    kmax, N, r, ct = ks[0], plan.r.size, plan.r, plan.ct
    rt = np.append(r, 1.0)
    rho = np.outer(rt, rt)
    # lam2-weighted per window l >= 3: Eh_l^T (p1, p2) and the products
    # (e0.e0, e0.p1, e0.p2, p1.p1, p1.p2, p2.p2) of its edge columns
    q, s = np.zeros((kmax + 1, 2, N)), np.zeros((kmax + 1, 6))
    z, row0 = [np.zeros((k, N)) for k in ks], np.zeros((len(ks), kmax))
    Y = np.zeros((len(ks), N + 1, N + 1))
    zb = np.empty((len(ks), _FOLD, N + 1))  # a block's (z_j, row 0), then copied to each k > j + 2
    active = 0
    for l1 in range(kmax, 3, -_FOLD):
        l0 = max(l1 - _FOLD, 3)
        Eh, P = plan.exp_block(l0, l1)
        lam = lam2[l0:l1, None]
        q[l0:l1] = lam[:, :, None] * np.einsum("bmn,bcm->bcn", Eh, P[:, 1:])
        G = np.einsum("bcm,bdm->bcd", P, P)
        s[l0:l1] = lam * G[:, (0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)]
        Phi = _gram(np.concatenate((Eh, P[:, 0, :, None]), axis=2), lam[:, :, None])
        for l in reversed(range(l0, l1)):
            while active < len(ks) and ks[active] > l:
                active += 1
            Ya = Y[:active]
            Ya *= rho
            Ya += Phi[l - l0]
            np.matmul(Ya[:, :, :N], ct[l - 2], out=zb[:active, l - l0])
        for a in range(active):
            hi = min(l1, ks[a]) - l0
            z[a][l0 - 2:l0 - 2 + hi] = zb[a, :hi, :N]
            row0[a, l0 - 2:l0 - 2 + hi] = zb[a, :hi, N]
        del Eh, P, G, Phi  # so the last block's tables do not outlive the sweep
    del Y
    out = {}
    first = [plan.first[:l + 1, l * plan.M:(l + 1) * plan.M].T for l in range(min(kmax, 3))]
    for a, k in enumerate(ks):
        A = np.zeros((k, k))
        q[k:] = s[k:] = 0.0  # windows l >= k: not in A_k, nor in any later k
        if k > 3:
            _bulk_sums(A, plan, z[a], row0[a, :k], q[:k + 1], s[:k + 1])
        for l, Psi in enumerate(first[:k]):
            B = Psi.T @ Psi
            A[:l + 1, :l + 1] += lam2[l] * 0.5 * (B + B.T)
        A.flags.writeable = False
        out[k] = A
    return out


def _bulk_sums(A: np.ndarray, plan: _WindowPlan, z, row0, q, s) -> None:
    """Add the windows 3 <= l < k of A_k (see _pair_sums) to A, (k, k):
    the entries on and above the diagonal, then their mirror images.  Rows
    l < k of q and s hold window l's edge terms, row k zeros."""
    k, r, ct = len(A), plan.r, plan.ct
    j = np.arange(1, k)
    # column factors Z_j, j >= 3: the bulk term, then window j+1 (cell j is
    # its edge l-1) and window j (cell j is its edge l)
    Z = r * r * z[3:] + r * q[4:, 0] + q[3:k, 1]
    _tri_sum(A[1:k - 2, 3:], ct[1:k - 2], Z, plan.rh)
    A[j, j] += np.einsum("je,je->j", ct[1:k], z[1:]) + s[j + 1, 3] + s[j, 5]
    i = j[1:] - 1
    A[i, i + 1] += (np.einsum("je,je->j", r * ct[i], z[i + 1])
                    + np.einsum("je,je->j", ct[i], q[i + 2, 0]) + s[i + 1, 4])
    A[0, 0] += s[:, 0].sum()
    A[0, 1:] += row0[1:] + s[j + 1, 1] + s[j, 2]
    tril = np.tril_indices(_FOLD, -1)  # row by row, so (m, -1)'s are its head
    for r0 in range(0, k, _FOLD):
        r1 = min(r0 + _FOLD, k)
        A[r0:r1, :r0] = A[:r0, r0:r1].T
        blk = A[r0:r1, r0:r1]
        lower = tuple(t[:(r1 - r0) * (r1 - r0 - 1) // 2] for t in tril)
        blk[lower] = blk.T[lower]


def _tri_sum(out: np.ndarray, L: np.ndarray, R: np.ndarray, rh: np.ndarray) -> None:
    """out[a, b] += sum_e exp(-rh_e (b - a)) L[a, e] R[b, e] for a <= b.

    By blocks of _FOLD rows: the diagonal block reads the powers of gaps
    0 .. _FOLD - 1 (_powers), gathered once, and the block's rows right of
    it are one GEMM with the powers split at the block's last row, so every
    power is non-negative."""
    m = len(L)
    pw = _powers(rh, max(m, _FOLD) + 1)
    gap = np.arange(_FOLD) - np.arange(_FOLD)[:, None]  # b - a
    pg = np.where(gap[:, :, None] >= 0, pw[np.maximum(gap, 0)], 0.0)
    for a0 in range(0, m, _FOLD):
        a1 = min(a0 + _FOLD, m)
        g = pg[:a1 - a0, :a1 - a0]
        out[a0:a1, a0:a1] += np.einsum("abe,ae,be->ab", g, L[a0:a1], R[a0:a1])
        if a1 < m:
            Lh = L[a0:a1] * pw[a1 - 1 - np.arange(a0, a1)]
            out[a0:a1, a1:m] += Lh @ (R[a1:m] * pw[1:m - a1 + 1]).T


def _window_blocks(plan: _WindowPlan, tab: _BlockTables, d: np.ndarray, lo: int, hi: int):
    """The rank-2 window pass over driver rows d, windows l < hi: per block
    with a window in [lo, hi), (b, l0, l1, S, W), the sqrt(w)-weighted chaos
    sums S = u @ W of windows l0 <= l < l1, column (l - l0) M + p.  Windows
    l < 4 (b = -1) read u = dW_0 .. dW_{l1-1}, block b (_BlockTables)
    u = [X_l0 | dW_0 | dW_{l0-1} .. dW_{l1-1}]; X moves on past every block."""
    l1 = min(hi, 4)
    if lo < l1:
        W = plan.first[:l1, :l1 * plan.M]
        yield -1, 0, l1, d[:, :l1] @ W, W
    if hi <= 4:
        return
    N = plan.r.size
    u, S = np.empty((len(d), N + _FOLD + 2)), np.empty((len(d), _FOLD * plan.M))
    X = d[:, 1:3] @ tab.tn[0]
    u[:, N] = d[:, 0]
    for b, l0 in enumerate(range(4, hi, _FOLD)):
        l1 = min(l0 + _FOLD, hi)
        if l1 > lo:
            u[:, :N] = X
            u[:, N + 1:N + l1 - l0 + 2] = d[:, l0 - 1:l1]
            k = (l1 - l0) * plan.M
            W = np.vstack([tab.er[:, :k] * plan.upow[l0:l1].ravel(), tab.wb[b][:l1 - l0 + 2, :k]])
            yield b, l0, l1, np.matmul(u[:, :len(W)], W, out=S[:, :W.shape[1]]), W
        if l1 < hi:
            X *= tab.rf
            X += d[:, l0 - 1:l1 - 1] @ tab.tn[b + 1]


def _fbm_in_place(M: np.ndarray, zt: np.ndarray) -> None:
    """Turn a time-first rank-1 driver into its noise, in place.

    zt is (n+1, paths) with the increment of step i in row i+1; on return
    row k holds Z(t_k) = sum_{i<k} M[k-1, i] dW_i and row 0 is zero.  In
    each chunk of paths the time blocks run last to first, so a block reads
    driver rows [1, hi] that no block has yet overwritten; its own rows
    [lo+1, hi] are among them, so it goes through one fixed buffer.
    """
    n, P = zt.shape[0] - 1, zt.shape[1]
    buf = np.empty((min(_TRI_BLOCK, n), min(_TRI_CHUNK, P)))
    for c in range(0, P, _TRI_CHUNK):
        z, out = zt[:, c:c + _TRI_CHUNK], buf[:, :P - c]
        for lo in reversed(range(0, n, _TRI_BLOCK)):
            hi = min(lo + _TRI_BLOCK, n)
            z[1 + lo:1 + hi] = np.matmul(M[lo:hi, :hi], z[1:hi + 1], out=out[:hi - lo])
    zt[0] = 0.0


def _from_driver(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray) -> np.ndarray:
    """Noise values from Brownian increment rows (paths, n) -> (paths, n+1),
    the transpose of a time-first array (see the module docstring)."""
    if dW.ndim != 2 or dW.shape[1] != grid.n:
        raise DomainError(f"driver shape {dW.shape} does not match grid with n={grid.n}")
    P, n = dW.shape
    zt = np.empty((n + 1, P))
    if spec.q == 1:
        zt[1:] = dW.T
        _fbm_in_place(_fbm_weights(grid, spec), zt)
        return zt.T

    # rank 2: window l's Wick-ordered square, (S * S) @ w less its mean, in row l+1
    plan = _window_plan(grid, spec)
    lam2, wick = _window_scales(grid, spec)
    tab = _BlockTables(plan)
    zt[0] = 0.0
    for c in range(0, P, _PATH_BLOCK):
        for _, l0, l1, S, _ in _window_blocks(plan, tab, dW[c:c + _PATH_BLOCK], 0, n):
            S = S.reshape(-1, plan.M)
            zt[l0 + 1:l1 + 1, c:c + _PATH_BLOCK] = lam2[l0:l1, None] * (
                np.einsum("ij,ij->i", S, S).reshape(-1, l1 - l0).T
                - wick[l0:l1, None])
    np.cumsum(zt[1:], axis=0, out=zt[1:])
    zt[1:] *= spec.d
    return zt.T


def _dz_rows(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray,
             entry: tuple[int, int] | None = None):
    """G[k, a] = D_alpha Z_{t_k}, alpha in step a, for the increments dW (n,):
    the (n+1, n) table, row k supported on a < k, or with entry = (k, a) the
    one entry G[k, a].  A rank-2 entry reads row a of the cached pair
    matrix; the table takes every window's factor rows (factor_block, in
    blocks of _FOLD windows), window l's term in row l+1, and sums the rows
    in place."""
    if entry is not None:
        k, a = entry
        if spec.q == 1:
            return _fbm_weights(grid, spec)[k - 1, a]
        return 2.0 * spec.d * (_pair_matrix_cached(grid, spec, k)[a] @ dW[:k])
    G = np.zeros((grid.n + 1, grid.n))
    if spec.q == 1:
        G[1:] = _fbm_weights(grid, spec)
        return G
    plan, lam2 = _window_plan(grid, spec), _window_scales(grid, spec).lam2
    for l0 in range(0, grid.n, _FOLD):
        l1 = min(l0 + _FOLD, grid.n)
        Fs, w = plan.factor_block(l0, l1)
        X = (Fs @ dW[:l1]).reshape(-1, w.size) * w * lam2[l0:l1, None]
        G[l0 + 1:l1 + 1, :l1] = np.einsum("ap,apk->ak", X, Fs.reshape(len(X), w.size, l1))
    np.cumsum(G, axis=0, out=G)
    G *= 2.0 * spec.d
    return G


def _dz_norm(grid: TimeGrid, spec: HermiteSpec, dW: np.ndarray | None,
             paths: int, ks: int, kt: int, w: np.ndarray | None = None) -> np.ndarray:
    """||V||^2 dt per path, V = sum_r w[r] G[ks+r] (_dz_rows), for driver
    rows dW (paths, n) and weights w (kt-ks+1, paths) of sum zero; zero for
    ks == kt.  w = None stands for e_0 - e_m: G[kt] - G[ks] from two kernel
    rows (one value for every path) or two cached pair matrices, one GEMM
    per end.  Rank 2 otherwise: window l's term of G[k] counts in every row
    k > l, so it carries -run, run the running sum of w (zero for l < ks).
    Per chunk of _PATH_BLOCK paths, the window pass runs forward, each
    block's scaled S goes back through its map W, and the state gradients
    then run backwards through the state recursion onto the cells."""
    if spec.q == 2 and dW is None:
        raise DomainError("rank-2 ensembles need the driving increments dW")
    if ks == kt:
        return np.zeros(paths)
    if spec.q == 1:
        M = _fbm_weights(grid, spec)
        if w is None:
            v = M[kt - 1] - (M[ks - 1] if ks else 0.0)
            return np.full(paths, float(np.sum(v * v) * grid.dt))
        # G[k] = M[k - 1]: per chunk of paths and block of steps a < kt,
        # one GEMM from the first row that reaches the block (row k
        # vanishes on a >= k), squared in one buffer and summed per path
        out, prod = np.zeros(paths), np.empty((_TRI_BLOCK, min(_TRI_CHUNK, paths)))
        for c in range(0, paths, _TRI_CHUNK):
            cols, nc = slice(c, c + _TRI_CHUNK), min(_TRI_CHUNK, paths - c)
            for lo in range(0, kt, _TRI_BLOCK):
                hi = min(lo + _TRI_BLOCK, kt)
                r0 = max(0, lo + 1 - ks)
                v = np.matmul(M[ks + r0 - 1:kt, lo:hi].T, w[r0:, cols],
                              out=prod[:hi - lo, :nc])
                v *= v
                out[cols] += v.sum(axis=0)
        return out * grid.dt
    if w is None:
        rows = dW[:, :kt] @ _pair_matrix_cached(grid, spec, kt)
        if ks:
            rows[:, :ks] -= dW[:, :ks] @ _pair_matrix_cached(grid, spec, ks)
        rows *= 2.0 * spec.d
        rows *= rows
        return rows.sum(axis=1) * grid.dt
    plan, lam2 = _window_plan(grid, spec), _window_scales(grid, spec).lam2
    tab = _BlockTables(plan)
    N, M, nb, rows = plan.r.size, plan.M, len(range(4, kt, _FOLD)), min(paths, _PATH_BLOCK)
    out = np.empty(paths)
    bufs = np.empty((rows, kt)), np.empty((rows, kt)), np.empty((nb, rows, N))
    for c in range(0, paths, _PATH_BLOCK):
        d = dW[c:c + _PATH_BLOCK]
        scale, V, gX = bufs[0][:len(d)], bufs[1][:len(d)], bufs[2][:, :len(d)]
        scale[:, :ks] = V[:] = gX[:] = 0.0
        np.cumsum(w[:-1, c:c + _PATH_BLOCK].T, axis=1, out=scale[:, ks:])
        scale *= -2.0 * spec.d * lam2[:kt]
        for b, l0, l1, S, W in _window_blocks(plan, tab, d, ks, kt):
            X = S.reshape(len(d), l1 - l0, M)
            X *= scale[:, l0:l1, None]
            g = S @ W.T
            if b < 0:
                V[:, :l1] += g
            else:
                gX[b] = g[:, :N]
                V[:, 0] += g[:, N]
                V[:, l0 - 1:l1] += g[:, N + 1:]
        Y = np.zeros((len(d), N))  # the gradient at block b's state, then its input cells
        for b in reversed(range(nb)):
            Y *= tab.rf
            Y += gX[b]
            l0, k = 4 + b * _FOLD, len(tab.tn[b])
            V[:, l0 - k - 1:l0 - 1] += Y @ tab.tn[b].T
        out[c:c + _PATH_BLOCK] = np.einsum("ij,ij->i", V, V)
    return out * grid.dt


def simulate_hermite(w: WienerLattice, spec: HermiteSpec) -> NoisePath:
    """Rank-q noise driven by the given lattice; rank 1 equals simulate_fbm."""
    values = _from_driver(w.grid, spec, w.increments[None, :])
    return NoisePath(grid=w.grid, spec=spec, values=values[0], source=w)


def simulate_fbm(w: WienerLattice, H: float) -> NoisePath:
    """Gaussian (rank-1) noise from the moving-average kernel representation."""
    return simulate_hermite(w, HermiteSpec.create(1, H))


def simulate_ensemble(grid: TimeGrid, spec: HermiteSpec, seed: int,
                      path_ids, driver: bool = False):
    """Simulate many paths at once; returns (paths, n+1), first column zero.

    Row p is driven by the Brownian increments of path_ids[p], the same as
    what simulate_hermite would produce path by path up to roundoff.  The
    values are stored time-first (a Fortran-ordered array, so a column --
    one time across all paths -- is contiguous).  Rank 1 draws the driver
    in blocks of _DRAW_BLOCK paths straight into that array, which the
    kernel product then overwrites in place (see the module docstring);
    rank 2 draws the whole (paths, n) driver for its window pass.  With
    driver, the (paths, n) increments come back too, as (values, dW), so a
    caller that needs both draws them once.
    """
    if spec.q != 1:
        dW = generate_increments(grid, seed, path_ids)
        values = _from_driver(grid, spec, dW)
        return (values, dW) if driver else values
    path_ids = list(path_ids)
    zt = np.empty((grid.n + 1, len(path_ids)))
    dW = np.empty((len(path_ids), grid.n)) if driver else None

    def draw(cols):
        block = generate_increments(grid, seed, path_ids[cols])
        zt[1:, cols] = block.T
        if driver:
            dW[cols] = block

    blocks = [slice(lo, lo + _DRAW_BLOCK)
              for lo in range(0, len(path_ids), _DRAW_BLOCK)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        # the kernel matrix goes into its lru cache during the draw
        weights = pool.submit(_fbm_weights, grid, spec)
        list(pool.map(draw, blocks))
        M = weights.result()
    _fbm_in_place(M, zt)
    return (zt.T, dW) if driver else zt.T


def simulate_fbm_circulant(grid: TimeGrid, H: float, seed: int, path_ids) -> np.ndarray:
    """Rank-1 paths by circulant embedding of the increment covariance.

    Validation oracle only: it samples the exact Gaussian law of fBm on the
    grid without going through the kernel representation, so it carries no
    usable Brownian driver.  Seeds index an unrelated stream; only laws are
    comparable with the kernel method, never paths.
    """
    from .kernels import _check_hurst

    H = _check_hurst(H)
    n = grid.n
    m = 2 * n
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * grid.dt ** (2.0 * H) * (
        (k + 1.0) ** (2.0 * H) - 2.0 * k ** (2.0 * H) + np.abs(k - 1.0) ** (2.0 * H)
    )
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-10 * eig.max():
        raise NumericError(
            f"circulant embedding not nonnegative definite (min eig {eig.min():.3e})"
        )
    eig = np.clip(eig, 0.0, None)

    path_ids = np.asarray(list(path_ids), dtype=np.int64)
    out = np.zeros((path_ids.size, n + 1))
    for rowi, pid in enumerate(path_ids):
        rng = _rng(seed, int(pid))
        z = np.empty(m, dtype=complex)
        g = rng.standard_normal(2)
        u = rng.standard_normal(n - 1)
        v = rng.standard_normal(n - 1)
        z[0] = np.sqrt(eig[0] / m) * g[0]
        z[n] = np.sqrt(eig[n] / m) * g[1]
        z[1:n] = np.sqrt(eig[1:n] / (2 * m)) * (u + 1j * v)
        z[n + 1:] = np.conj(z[1:n][::-1])
        fgn = np.fft.fft(z).real[:n]
        out[rowi, 1:] = np.cumsum(fgn)
    return out


@lru_cache(maxsize=2)
def _pair_matrix_cached(grid: TimeGrid, spec: HermiteSpec, k: int) -> np.ndarray:
    """The k x k support block of the pair matrix at grid index k.

    Each k costs one _pair_sums sweep over the windows l < k, and the cache
    keeps the last two blocks.  A_k cannot be sliced from any A_m with
    m > k: every window l >= k adds lam2_l B_l[:k, :k] to the cells below
    k, and B_l is nonzero there.
    """
    return _pair_sums(_window_plan(grid, spec), _window_scales(grid, spec).lam2, (k,))[k]


def pair_matrix(grid: TimeGrid, spec: HermiteSpec, t: float) -> np.ndarray:
    """Pair-interaction matrix A of the rank-2 noise at time t, n x n.

    Entry (i, j) is the calibrated cell average of the chaos kernel
    L_t(y1, y2) over cell_i x cell_j; symmetric with positive diagonal, zero
    outside the cells before t.  The Wick form d * (dW' A dW - dt * tr A)
    equals the simulated Z(t) for the path driven by dW to roundoff, because
    the same window quadrature and calibration build both; the bulk kernel
    power enters A through its exponential sum, 1e-15 from the table the
    simulator reads.  Building the support block takes one sweep over the
    windows before t, O(k N^2 M + k^2 N) at grid index k.  The result is a
    fresh read-only copy of the cached support block; the library's own
    consumers use that block directly.
    """
    if spec.q != 2:
        raise DomainError("pair_matrix is defined for rank-2 noise only")
    k = grid.index_of(t)
    A = np.zeros((grid.n, grid.n))
    A[:k, :k] = _pair_matrix_cached(grid, spec, k)
    A.flags.writeable = False
    return A


def _lattice_gram(grid: TimeGrid, spec: HermiteSpec, ks) -> np.ndarray:
    """E[Z(t_i) Z(t_j)] of the lattice noise over the grid indices ks (see
    lattice_covariance).  A rank-2 variance is t_k^(2H), what the
    calibration solves for (_window_scales); cross moments of distinct
    nonzero indices take one _pair_sums sweep over them, dropped on return."""
    ks = [int(k) for k in ks]
    if spec.q == 1:
        M = _fbm_weights(grid, spec)
    else:
        var = grid.points ** (2.0 * spec.H)
        nonzero = {k for k in ks if k}
        A = (_pair_sums(_window_plan(grid, spec), _window_scales(grid, spec).lam2, nonzero)
             if len(nonzero) > 1 else {})
    G = np.zeros((len(ks), len(ks)))
    for i, a in enumerate(ks):
        for j, b in enumerate(ks[i:], i):
            k = min(a, b)
            if not k:
                continue
            if spec.q == 1:
                G[i, j] = G[j, i] = grid.dt * (M[a - 1] @ M[b - 1])
            elif a == b:
                G[i, j] = G[j, i] = var[a]
            else:
                G[i, j] = G[j, i] = (2.0 * spec.d**2 * grid.dt**2
                                     * (A[a][:k, :k] * A[b][:k, :k]).sum())
    return G


def lattice_covariance(grid: TimeGrid, spec: HermiteSpec, s: float,
                       t: float) -> float:
    """Exact covariance E[Z(s) Z(t)] of the *lattice* noise, deterministically.

    Rank 1: dt * <K-row(s), K-row(t)>; rank 2: 2 d^2 dt^2 <A_s, A_t>, the
    Wick covariance of the centered quadratic forms.  Rank-2 variances are
    calibrated to t^(2H) at grid times, so the gap to the continuum value
    (t^2H + s^2H - |t-s|^2H)/2 is confined to s != t and shrinks with
    refinement; rank 1 carries the usual small midpoint bias.  Either way
    this is the exact second moment of what simulate_* samples, so tests
    can separate discretization bias from Monte Carlo error.  The two-index
    case of _lattice_gram: only two distinct nonzero rank-2 indices build
    pair matrices, in one _pair_sums sweep.
    """
    return float(_lattice_gram(grid, spec, (grid.index_of(s), grid.index_of(t)))[0, 1])


def lattice_variance(grid: TimeGrid, spec: HermiteSpec, t: float) -> float:
    """Exact variance of the lattice noise at time t (see lattice_covariance)."""
    return lattice_covariance(grid, spec, t, t)
