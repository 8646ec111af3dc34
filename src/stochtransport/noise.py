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
singularities, are exact incomplete-Beta averages, and the bulk cells
between them use a lag-tabulated Gauss-Legendre rule.  Cost is
O(_NODES * n^2) for a whole path, not per output time.  One block engine
serves every rank-2 consumer.  _WindowPlan tabulates once per grid the bulk
kernel powers by lag, every window's u-powers and its three edge cells, so
factor_block stacks the factor rows of up to _FOLD windows with one einsum
per window.  _windows walks the calibrated windows in those blocks, and a
consumer applies a block to _PATH_BLOCK driver rows at a time, one GEMM
S = dW[:, :l1] @ Fs.T per block: the simulator here and the
derivative tables and norms in malliavin.  pair_matrix accumulates the
identical quadrature into an explicit matrix, so the Wick form
d * (dW' A dW - dt * tr A) reproduces simulated values to roundoff, which
downstream first-variation code relies on.  The calibration pass builds
that matrix anyway, in slabs of rows, and keeps only its last, A_n, the one
a run at t = T reads.  The pair matrices at the other probe times (the
eighths of [0, T]) come from one recording pass with the same blocks, paid
only by the diagnostics that read them (noise-stats, mt_diagnostic).
Every plan cache (_fbm_weights, _window_plan, _calibration, _window_scales,
_probe_blocks, _pair_matrix_cached) is keyed by the TimeGrid and
HermiteSpec its caller holds; both hash by value.

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

lattice_variance/lattice_covariance return exact second moments of the
lattice process; at finite n a small increment-level bias remains (the grid
variances themselves are calibrated), and these let tests separate it from
Monte Carlo error.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import beta as _beta_fn, betainc

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


@dataclass(frozen=True)
class NoisePath:
    """One realized noise path on a grid, with the lattice that produced it."""

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

    def value_at(self, t: float) -> float:
        return float(self.values[self.grid.index_of(t)])


# Time steps per block, and paths per chunk, of the rank-1 triangular
# products (here and in malliavin.dy_norm_ensemble).  Constants, so no bit
# depends on the thread count.
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


class _WindowPlan:
    """Per-grid quadrature tables for cell-averaged kernel factor rows.

    factor_block(l, l + 1), the one-window block, returns (F, w):
    F[p, i] is the average of dK(u_p, y) over cell i (i <= l) at the
    window-l u-nodes u_p, and w the matching u-weights, so F.T @ diag(w) @ F
    is window l's contribution to the pair matrix and F @ dW[:l+1] evaluates
    the chaos integrand at the u-nodes.  The y-integrals, tabulated for
    every window at construction:

      - bulk cells 1 .. l-2: a fixed Gauss-Legendre rule, shared by every
        window, so their kernel powers are tabulated once by lag (D, C);
      - edge cells 0, l-1 and l, next to the singularities at y = 0 and
        y = u: exact, one regularized incomplete Beta expression (edges).
    """

    def __init__(self, grid: TimeGrid, spec: HermiteSpec):
        n, h, pts, hp, c = grid.n, grid.dt, grid.points, spec.hp, spec.c
        m_y = max(2, _NODES // 2)

        # u template: offsets and weights relative to the window start
        du, self.wu = _panels(np.array(_U_GRADING) * h, *leggauss(_NODES))
        self.M = du.size

        # bulk cells see window l only through the lag k = l - i >= 2: D[j, p,
        # n-1-k] = (k h + du_p - yoff_j)^(hp - 3/2) at y-node j (window l reads
        # a contiguous tail), C[j, i] = y^(1/2 - hp) times the averaging weight
        xb, wb = leggauss(m_y)
        yoff = (h / 2.0) * (xb + 1.0)
        lag = np.arange(n - 1, 1, -1) * h
        self.D = (lag + du[:, None] - yoff[:, None, None]) ** (hp - 1.5)
        self.C = (pts[:-1] + yoff[:, None]) ** (0.5 - hp) * (wb[:, None] / 2.0)

        # Every window's u-powers c u^(hp - 1/2) and its edge columns
        # edges[l] = (cell 0, cell l-1, cell l), u-powers included.  With
        # y = u s a cell average is exact: (c/h) u^(hp - 1/2) B(a, b) times
        # I_{y1/u}(a, b) - I_{y0/u}(a, b), a = 3/2 - hp, b = hp - 1/2.  Cells
        # l-1 and l, next to the singularity at y = u, take the complement
        # form I_{(u-y0)/u}(b, a) - I_{(u-y1)/u}(b, a), which keeps their
        # digits; cell l ends at u, and window 0's cell l-1 is cell 0.
        u = pts[:-1, None] + du  # (n, M)
        self.upow = up = c * u ** (hp - 0.5)
        a, b = 1.5 - hp, hp - 0.5
        l = np.arange(n)[:, None, None]
        y0 = h * np.concatenate([np.maximum(l - 1, 0), l], axis=1)  # (n, 2, 1)
        uc = u[:, None, :]
        near = (betainc(b, a, np.clip((uc - y0) / uc, 0.0, 1.0))
                - betainc(b, a, np.clip((uc - y0 - h) / uc, 0.0, 1.0)))
        origin = betainc(a, b, np.minimum(h, u) / u)[:, None, :]
        self.edges = ((_beta_fn(a, b) / h) * up[:, None, :]
                      * np.concatenate([origin, near], axis=1))

    def factor_block(self, l0: int, l1: int):
        """(Fs, w): rows (l - l0) M .. (l - l0 + 1) M of the (m M, l1) stack
        Fs hold window l's factor rows, l0 <= l < l1, exactly zero past
        column l; the u-powers go in with one multiply per block."""
        m = l1 - l0
        Fs = np.zeros((m, self.M, l1))
        # bulk cells 1 .. l-2: lags l-1 .. 2 of the tables
        for l in range(max(l0, 3), l1):
            Fs[l - l0, :, 1:l - 1] = np.einsum(
                "jpk,jk->pk", self.D[:, :, 2 - l:], self.C[:, 1:l - 1])
        Fs *= self.upow[l0:l1, :, None]
        l = np.arange(l0, l1)[:, None]
        Fs[l - l0, :, np.hstack([0 * l, np.maximum(l - 1, 0), l])] = self.edges[l0:l1]
        return Fs.reshape(m * self.M, l1), self.wu


@lru_cache(maxsize=16)
def _window_plan(grid: TimeGrid, spec: HermiteSpec) -> _WindowPlan:
    return _WindowPlan(grid, spec)


def _probe_indices(n: int) -> np.ndarray:
    """Grid indices of the eighths of [0, T], 0 excluded: the probe times of
    the noise-stats and malliavin diagnostics.  The last is n, whose pair
    matrix the calibration keeps; _probe_blocks records the others."""
    return np.unique(np.round(np.linspace(0, n, 9)).astype(int))[1:]


# Windows per block of the rank-2 window engine (_windows, _pair_blocks):
# one GEMM applies a block's stacked factor rows.
_FOLD = 16


def _pair_blocks(plan: _WindowPlan, probes, lam2: np.ndarray,
                 tau: np.ndarray | None = None) -> dict:
    """One window pass; the pair matrices A_k at the probe indices k.

    A_k = sum_{l<k} lam2_l B_l with B_l = Psi_l^T Psi_l and Psi_l = sqrt(w) F_l
    is supported on [:k, :k]; only that block is returned, symmetrized and
    read-only.  Windows are folded into A in blocks of up to _FOLD, and
    every probe closes a block.  A block of m windows stacks m M rows Psi
    and adds to A one GEMM per slab of s = _FOLD M rows of A, so no
    transient is larger than a full block's Psi.  The last probe's block is
    A itself, symmetrized in place by the same slabs; every earlier probe
    costs a symmetrized copy.  With tau given the pass also calibrates (see
    _window_scales), solving lam2_l in place before window l counts, and
    returns the last probe's block only: x = <A_l, B_l> is
    tr(Psi_l A_l0 Psi_l^T) for the part folded at the block start l0 plus
    lam2_j ||Psi_l Psi_j^T||^2 for each window j of the block before l, and
    y = ||B_l||^2 = ||Psi_l Psi_l^T||^2.
    """
    probes = {int(k) for k in probes}
    kmax = max(probes)
    edges = sorted(probes | set(range(0, kmax, _FOLD)))
    A = np.zeros((kmax, kmax))
    M = plan.M
    s = _FOLD * M
    blocks = {}
    for l0, l1 in zip(edges, edges[1:] + [None]):
        if l1 is None:
            # A <- (A + A^T) / 2 by row slabs: slab r reads only entries at
            # or past r in both indices, which no earlier slab has written
            for r in range(0, kmax, s):
                sym = A[r:r + s, r:] + A[r:, r:r + s].T
                sym *= 0.5
                A[r:r + s, r:], A[r:, r:r + s] = sym, sym.T
            A.flags.writeable = False
            blocks[l0] = A
            return blocks
        if l0 in probes and tau is None:
            blk = 0.5 * (A[:l0, :l0] + A[:l0, :l0].T)
            blk.flags.writeable = False
            blocks[l0] = blk
        m = l1 - l0
        Psi, w = plan.factor_block(l0, l1)
        Psi *= np.sqrt(np.tile(w, m))[:, None]
        if tau is not None:
            P0 = Psi[:, :l0]
            x0 = np.einsum("ri,ri->r", P0 @ A[:l0, :l0], P0).reshape(m, M).sum(axis=1)
            Q = Psi @ Psi.T
            Q *= Q
            R = Q.reshape(m, M, m, M).sum(axis=(1, 3))
            del Q  # not held through the fold below
            for a in range(m):
                l = l0 + a
                x = x0[a] + R[a, :a] @ lam2[l0:l]
                y = R[a, a]
                lam2[l] = (-x + np.sqrt(x * x + y * tau[l])) / y
        scale = np.repeat(lam2[l0:l1], M)[:, None]
        for r in range(0, l1, s):
            A[r:min(r + s, l1), :l1] += (scale * Psi[:, r:r + s]).T @ Psi


@lru_cache(maxsize=4)  # an entry holds n^2 doubles: A_n
def _calibration(grid: TimeGrid, spec: HermiteSpec):
    """(lam2, A_n) of one calibration pass; see _window_scales.

    A_n, the pair matrix at k = n, is the pass's own accumulator.  Its
    blocks close at every probe index, as the recording pass's do
    (_probe_blocks), so both passes fold the same windows into the same
    GEMMs.
    """
    tau = np.diff(grid.points ** (2.0 * spec.H)) / (2.0 * spec.d * spec.d * grid.dt * grid.dt)
    lam2 = np.empty(grid.n)
    A = _pair_blocks(_window_plan(grid, spec), _probe_indices(grid.n), lam2, tau)[grid.n]
    lam2.flags.writeable = False
    return lam2, A


@lru_cache(maxsize=4)  # an entry holds about 2.2 n^2 doubles of blocks
def _probe_blocks(grid: TimeGrid, spec: HermiteSpec) -> dict:
    """The pair matrices at the probe indices below n, from one recording
    pass (_pair_blocks without tau) that only callers of those probes pay."""
    return _pair_blocks(_window_plan(grid, spec), _probe_indices(grid.n)[:-1],
                        _calibration(grid, spec)[0])


@lru_cache(maxsize=16)
def _window_scales(grid: TimeGrid, spec: HermiteSpec) -> np.ndarray:
    """Variance-calibration factors lambda_l^2, one per window (rank 2).

    With A_k = sum_{l<k} lambda_l^2 B_l (B_l the window-l Gram matrix of the
    factor rows), the requirement Var Z(t_k) = 2 d^2 dt^2 ||A_k||_F^2
    = t_k^(2H) at every k reduces to one quadratic per window: writing
    x = <A_l, B_l>_F, y = ||B_l||_F^2 and
    tau = (t_{l+1}^(2H) - t_l^(2H)) / (2 d^2 dt^2), solve
    y * lam^4 + 2 x * lam^2 = tau for lam^2.  x, y, tau are all positive, so
    the positive root always exists; each window keeps one deterministic,
    adapted scale and path simulation stays a single incremental pass.  The
    factors absorb the L^2 mass a piecewise-constant-in-y projection cannot
    represent.  lambda is largest on the first window and smallest on the
    last; at n = 1024 it runs over [1.03, 1.25] at H = 0.6, [1.01, 1.19]
    at H = 0.7, [1.04, 1.28] at H = 0.8 and [1.17, 1.60] at H = 0.9.  The
    solving pass (_pair_blocks) leaves the pair matrix A_n behind.
    """
    return _calibration(grid, spec)[0]


def _windows(grid: TimeGrid, spec: HermiteSpec, lo: int, hi: int):
    """The rank-2 window loop over l in [lo, hi).

    Yields (l0, l1, lam2[l0:l1], Fs, w) per block [l0, l1) of up to _FOLD
    windows: their calibration factors, their stacked factor rows
    (_WindowPlan.factor_block) and the u-weights.  A consumer forms the
    chaos integrand S = dW[c, :l1] @ Fs.T, column a M + p holding window
    l0 + a at u-node p, for a chunk c of _PATH_BLOCK driver rows at a time.
    """
    plan = _window_plan(grid, spec)
    lam2 = _window_scales(grid, spec)
    for l0 in range(lo, hi, _FOLD):
        l1 = min(l0 + _FOLD, hi)
        yield (l0, l1, lam2[l0:l1], *plan.factor_block(l0, l1))


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
    zt[0] = 0.0
    for l0, l1, lam2, Fs, w in _windows(grid, spec, 0, n):
        mean_sq = grid.dt * (np.einsum("ij,ij->i", Fs, Fs).reshape(-1, w.size) @ w)
        for c in range(0, P, _PATH_BLOCK):
            S = dW[c:c + _PATH_BLOCK, :l1] @ Fs.T
            S *= S
            zt[l0 + 1:l1 + 1, c:c + _PATH_BLOCK] = lam2[:, None] * (
                (S.reshape(-1, w.size) @ w).reshape(-1, l1 - l0).T - mean_sq[:, None])
    np.cumsum(zt[1:], axis=0, out=zt[1:])
    zt[1:] *= spec.d
    return zt.T


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
    rank 2 draws the whole (paths, n) driver for its window loop.  With
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


@lru_cache(maxsize=2)  # lattice_covariance reads two k at once
def _pair_matrix_cached(grid: TimeGrid, spec: HermiteSpec, k: int) -> np.ndarray:
    """The k x k support block of the pair matrix at grid index k.

    k = n is the calibration's A_n, the other probe indices come from the
    one recording pass of _probe_blocks, and any other k costs one
    accumulation pass over windows l < k.  Those caches hold the probe
    blocks, so this one only keeps off-probe blocks, at most two of them.
    """
    lam2, A = _calibration(grid, spec)
    if k == grid.n:
        return A
    if k in _probe_indices(grid.n):
        return _probe_blocks(grid, spec)[k]
    return _pair_blocks(_window_plan(grid, spec), (k,), lam2)[k]


def pair_matrix(grid: TimeGrid, spec: HermiteSpec, t: float) -> np.ndarray:
    """Pair-interaction matrix A of the rank-2 noise at time t, n x n.

    Entry (i, j) is the calibrated cell average of the chaos kernel
    L_t(y1, y2) over cell_i x cell_j; symmetric with positive diagonal, zero
    outside the cells before t.  The Wick form d * (dW' A dW - dt * tr A)
    equals the simulated Z(t) for the path driven by dW to roundoff, because
    the same window quadrature and calibration build both.  The result is a
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


def lattice_covariance(grid: TimeGrid, spec: HermiteSpec, s: float,
                       t: float) -> float:
    """Exact covariance E[Z(s) Z(t)] of the *lattice* noise, deterministically.

    Rank 1: dt * <K-row(s), K-row(t)>; rank 2: 2 d^2 dt^2 <A_s, A_t>, the
    Wick covariance of the centered quadratic forms.  Rank-2 variances are
    calibrated to t^(2H) at grid times, so the gap to the continuum value
    (t^2H + s^2H - |t-s|^2H)/2 is confined to s != t and shrinks with
    refinement; rank 1 carries the usual small midpoint bias.  Either way
    this is the exact second moment of what simulate_* samples, so tests
    can separate discretization bias from Monte Carlo error.
    """
    ks = grid.index_of(s)
    kt = grid.index_of(t)
    k = min(ks, kt)
    if k == 0:
        return 0.0
    if spec.q == 1:
        M = _fbm_weights(grid, spec)
        return float(grid.dt * (M[ks - 1] @ M[kt - 1]))
    lam_s = _pair_matrix_cached(grid, spec, ks)[:k, :k]
    lam_t = _pair_matrix_cached(grid, spec, kt)[:k, :k]
    return float(2.0 * spec.d**2 * grid.dt**2 * (lam_s * lam_t).sum())


def lattice_variance(grid: TimeGrid, spec: HermiteSpec, t: float) -> float:
    """Exact variance of the lattice noise at time t (see lattice_covariance)."""
    return lattice_covariance(grid, spec, t, t)
