"""Noise path construction: kernel schemes, pair matrices, circulant oracle."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochtransport import (
    DomainError,
    HermiteSpec,
    NoisePath,
    TimeGrid,
    WienerLattice,
    generate,
    generate_increments,
    simulate_ensemble,
    simulate_fbm,
    simulate_fbm_circulant,
    simulate_hermite,
)
from stochtransport.kernels import _kernel_L_hp
from stochtransport.noise import lattice_covariance, lattice_variance, pair_matrix


def test_rank_one_reduces_to_fbm_exactly():
    # With q = 1 the chaos sum collapses to the plain kernel-weighted sum,
    # so both entry points must produce bit-identical arrays.
    grid = TimeGrid(T=1.0, n=128)
    w = generate(grid, seed=3, path_id=0)
    spec = HermiteSpec.create(1, 0.7)
    a = simulate_hermite(w, spec)
    b = simulate_fbm(w, 0.7)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("q", [1, 2])
@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 96), H=st.floats(0.55, 0.95), k=st.integers(0, 96))
@example(n=64, H=0.65, k=40)
def test_adaptedness(q, n, H, k):
    """Z(t_j), j <= k, depends only on the increments before step k: zeroing
    them from step k on leaves those values bit for bit, path by path
    (simulate_hermite) and in every row of an ensemble (simulate_ensemble,
    against the same procedure on its zeroed driver)."""
    from stochtransport.noise import _from_driver

    k = min(k, n)
    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(q, H)
    w = generate(grid, seed=11, path_id=4)
    inc = w.increments.copy()
    inc[k:] = 0.0
    trunc = simulate_hermite(
        WienerLattice(grid=grid, seed=11, path_id=4, increments=inc), spec)
    assert np.array_equal(simulate_hermite(w, spec).values[:k + 1],
                          trunc.values[:k + 1])
    z, dW = simulate_ensemble(grid, spec, 11, range(5), driver=True)
    dW[:, k:] = 0.0
    assert np.array_equal(_from_driver(grid, spec, dW)[:, :k + 1], z[:, :k + 1])


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("H", [0.6, 0.8])
@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_ensemble_is_self_similar_in_the_horizon(q, H, c):
    """On TimeGrid(T=c) the driver is sqrt(c) times the one at T = 1 and
    the lattice noise c^H times: the kernels are homogeneous and the rank-2
    calibration targets t^(2H).  Bound fixed in advance at 1e-13 of
    max|Z|; measured worst case 1.6e-15 at 20 paths."""
    n, ids = 128, range(20)
    spec = HermiteSpec.create(q, H)
    ref = c**H * simulate_ensemble(TimeGrid(T=1.0, n=n), spec, 5, ids)
    got = simulate_ensemble(TimeGrid(T=c, n=n), spec, 5, ids)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_factor_rows_match_direct_kernel_quadrature():
    # Before calibration, the accumulated pair matrix holds exact cell
    # averages of the chaos kernel L; cross-check bulk cells against a
    # tensor Gauss rule over the pointwise evaluator, a separate code path.
    from stochtransport.noise import _window_plan

    grid = TimeGrid(T=1.0, n=16)
    spec = HermiteSpec.create(2, 0.7)
    plan = _window_plan(grid, spec)
    A = np.zeros((16, 16))
    for l in range(16):
        F, w = plan.factor_block(l, l + 1)
        A[: l + 1, : l + 1] += F.T @ (w[:, None] * F)
    xg, wg = np.polynomial.legendre.leggauss(6)
    h = grid.dt
    # stay away from the last cell: there L(., y2) ~ (t - y2)^(H'-1/2) and a
    # plain Gauss reference loses digits, though the builder itself does not
    for (i, j) in [(2, 9), (7, 12), (3, 13), (10, 14), (5, 11)]:
        y1 = grid.points[i] + h * (xg + 1.0) / 2.0
        y2 = grid.points[j] + h * (xg + 1.0) / 2.0
        vals = np.array([[_kernel_L_hp(1.0, np.array([a, b]), spec.hp)
                          for b in y2] for a in y1])
        ref = float(wg @ vals @ wg) / 4.0  # cell average
        assert abs(A[i, j] - ref) < 1e-6 * max(1.0, abs(ref))
        assert abs(A[i, j] - A[j, i]) < 1e-15


def test_pair_matrix_diagonal_and_calibration():
    # The stored matrix keeps a positive diagonal (the Wick correction is
    # applied at the trace, not by zeroing cells), and its Frobenius norm is
    # calibrated so the lattice variance equals t^(2H) at every grid time.
    grid = TimeGrid(T=1.0, n=32)
    spec = HermiteSpec.create(2, 0.65)
    for t in (grid.points[1], 0.25, 0.5, 1.0):
        k = grid.index_of(t)
        lam = pair_matrix(grid, spec, t)
        assert np.all(np.diag(lam)[:k] > 0.0)
        v = lattice_variance(grid, spec, t)
        target = t ** (2.0 * spec.H)
        assert abs(v - target) < 1e-10 * max(1.0, target)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 96), H=st.floats(0.51, 0.99),
       T=st.sampled_from([0.5, 1.0, 3.0]))
@example(n=96, H=0.99, T=3.0)
@example(n=96, H=0.51, T=0.5)
def test_lattice_variance_is_calibrated_at_every_grid_index(n, H, T):
    """Var Z(t_k) = t_k^(2H) at every grid index k: the diagonal of the
    lattice Gram over range(1, n + 1), whose pair matrices come from one
    _pair_sums sweep, a different route from the calibrating one."""
    from stochtransport.noise import _lattice_gram

    grid = TimeGrid(T=T, n=n)
    spec = HermiteSpec.create(2, H)
    var = np.diag(_lattice_gram(grid, spec, range(1, n + 1)))
    target = grid.points[1:] ** (2.0 * H)
    assert np.max(np.abs(var / target - 1.0)) <= 1e-12


def test_simulated_path_equals_quadratic_form():
    """The streamed window recursion and the pair-matrix Wick form are two
    routes to the same number; they must agree to rounding."""
    grid = TimeGrid(T=1.0, n=64)
    spec = HermiteSpec.create(2, 0.8)
    w = generate(grid, seed=5, path_id=2)
    z = simulate_hermite(w, spec)
    for t in (0.25, 0.5, 1.0):
        lam = pair_matrix(grid, spec, t)
        quad = spec.d * (w.increments @ lam @ w.increments
                         - grid.dt * np.trace(lam))
        assert abs(z.values[grid.index_of(t)] - quad) < 1e-12


def test_adaptedness_of_pair_matrix():
    grid = TimeGrid(T=1.0, n=32)
    spec = HermiteSpec.create(2, 0.7)
    lam = pair_matrix(grid, spec, 0.5)
    k = grid.index_of(0.5)
    assert np.all(lam[k:, :] == 0.0)
    assert np.all(lam[:, k:] == 0.0)


def test_ensemble_matches_per_path_simulation():
    grid = TimeGrid(T=1.0, n=64)
    spec = HermiteSpec.create(2, 0.6)
    ids = [0, 3, 7]
    block = simulate_ensemble(grid, spec, seed=9, path_ids=ids)
    for row, pid in enumerate(ids):
        w = generate(grid, seed=9, path_id=pid)
        z = simulate_hermite(w, spec)
        assert np.allclose(block[row], z.values, rtol=0, atol=1e-14)


def test_rank_one_kernel_built_during_the_draw():
    from stochtransport.noise import _fbm_weights
    grid = TimeGrid(T=1.0, n=96)
    spec = HermiteSpec.create(1, 0.65)
    _fbm_weights.cache_clear()
    cold, dW = simulate_ensemble(grid, spec, seed=4, path_ids=range(40),
                                 driver=True)
    assert _fbm_weights.cache_info().misses == 1
    warm = simulate_ensemble(grid, spec, seed=4, path_ids=range(40))
    assert _fbm_weights.cache_info().misses == 1
    assert np.array_equal(cold, warm)
    # n = 96 is one block, so the product is this single call
    assert np.array_equal(cold[:, 1:], (_fbm_weights(grid, spec) @ dW.T).T)


@pytest.mark.parametrize("cache, q", [("_fbm_weights", 1), ("_window_scales", 2)])
def test_plan_caches_hold_one_entry_per_value(cache, q):
    """A plan cache keys on the grid and the spec by value: an integer
    horizon and its float, each with its own equal spec, are one entry."""
    import stochtransport.noise as noise
    fn = getattr(noise, cache)
    fn.cache_clear()
    first = fn(TimeGrid(T=1, n=24), HermiteSpec.create(q, 0.7))
    again = fn(TimeGrid(T=1.0, n=24), HermiteSpec.create(q, 0.7))
    assert again is first
    assert fn.cache_info()[:2] == (1, 1)  # (hits, misses)


@pytest.mark.parametrize("paths", [1, 300, 1031])
def test_rank_one_blocks_match_the_dense_product(paths):
    """The blocked triangular product against dW @ M.T, over two full
    blocks and a ragged one, and over a full chunk of paths and 7 more
    (1031); the values are stored time-first."""
    from stochtransport.noise import _TRI_BLOCK, _fbm_weights
    grid = TimeGrid(T=1.0, n=2 * _TRI_BLOCK + 64)
    spec = HermiteSpec.create(1, 0.7)
    z, dW = simulate_ensemble(grid, spec, seed=5, path_ids=range(paths),
                              driver=True)
    dense = dW @ _fbm_weights(grid, spec).T
    assert z.shape == (paths, grid.n + 1) and z.flags.f_contiguous
    assert np.all(z[:, 0] == 0.0)
    assert np.all(np.abs(z[:, 1:] - dense) <= 1e-14 * (1.0 + np.abs(dense)))


@pytest.mark.parametrize("blocks", [(0, 1), (1, -1), (1, 1), (2, 3)],
                         ids=["1", "block-1", "block+1", "2block+3"])
def test_rank_one_path_blocks_match_per_path_simulation(blocks):
    """The driver drawn in path blocks is the driver of generate_increments
    to the bit, and every path's noise is its per-path simulation up to the
    product's roundoff, around the block edges.  The helper threads that
    draw the blocks switch as often as the interpreter allows."""
    from stochtransport.noise import _DRAW_BLOCK
    paths = blocks[0] * _DRAW_BLOCK + blocks[1]
    grid = TimeGrid(T=1.0, n=24)
    spec = HermiteSpec.create(1, 0.7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        z, dW = simulate_ensemble(grid, spec, seed=6, path_ids=range(paths),
                                  driver=True)
    finally:
        sys.setswitchinterval(interval)
    assert z.shape == (paths, grid.n + 1) and z.flags.f_contiguous
    assert np.array_equal(dW, generate_increments(grid, 6, range(paths)))
    for p in range(paths):
        ref = simulate_hermite(generate(grid, seed=6, path_id=p), spec).values
        assert np.all(np.abs(z[p] - ref) <= 1e-14 * (1.0 + np.abs(ref))), p


def test_rank_one_kernel_error_surfaces_from_the_helper_thread():
    before = threading.active_count()
    spec = HermiteSpec(q=1, H=1.2, hp=1.2, c=1.0, d=1.0)  # H unchecked
    with pytest.raises(DomainError, match="self-similarity index"):
        simulate_ensemble(TimeGrid(T=1.0, n=16), spec, seed=1, path_ids=[0, 1])
    assert threading.active_count() == before


def test_noise_path_accessors():
    grid = TimeGrid(T=1.0, n=8)
    w = generate(grid, seed=1, path_id=0)
    z = simulate_fbm(w, 0.75)
    assert z.values[0] == 0.0
    assert z.driver is w.increments
    assert not z.values.flags.writeable


def test_noise_path_shape_validation():
    grid = TimeGrid(T=1.0, n=8)
    w = generate(grid, seed=1, path_id=0)
    spec = HermiteSpec.create(1, 0.7)
    with pytest.raises(DomainError):
        NoisePath(grid=grid, spec=spec, values=np.zeros(5), source=w)


def test_pair_matrix_requires_rank_two():
    grid = TimeGrid(T=1.0, n=8)
    with pytest.raises(DomainError):
        pair_matrix(grid, HermiteSpec.create(1, 0.7), 1.0)


# ---------------------------------------------------------------------------
# Law checks against the deterministic lattice second moments.
# ---------------------------------------------------------------------------

def test_sample_mean_is_centered():
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(2, 0.7)
    Z = simulate_ensemble(grid, spec, seed=21, path_ids=range(800))
    last = Z[:, -1]
    se = last.std(ddof=1) / np.sqrt(len(last))
    assert abs(last.mean()) < 3 * se


def test_rank_two_variance_matches_lattice_value():
    # The scheme's own variance (computable exactly from the pair matrix)
    # is what the Monte Carlo sample must reproduce.
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(2, 0.7)
    Z = simulate_ensemble(grid, spec, seed=13, path_ids=range(1500))
    z1 = Z[:, -1]
    target = lattice_variance(grid, spec, 1.0)
    m2 = np.mean(z1**2)
    se = np.std(z1**2, ddof=1) / np.sqrt(len(z1))
    assert abs(m2 - target) < 3 * se


def test_rank_one_covariance_matches_lattice_value():
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(1, 0.8)
    Z = simulate_ensemble(grid, spec, seed=17, path_ids=range(4000))
    s, t = 0.5, 1.0
    ks, kt = grid.index_of(s), grid.index_of(t)
    prod = Z[:, ks] * Z[:, kt]
    target = lattice_covariance(grid, spec, s, t)
    se = prod.std(ddof=1) / np.sqrt(len(prod))
    assert abs(prod.mean() - target) < 3 * se


def test_lattice_variance_from_zero_time():
    grid = TimeGrid(T=1.0, n=64)
    for q in (1, 2):
        spec = HermiteSpec.create(q, 0.7)
        assert lattice_covariance(grid, spec, 0.0, 1.0) == 0.0
        assert lattice_variance(grid, spec, 0.0) == 0.0


def test_rank_two_increment_bias_within_gate():
    # Deterministic increment-law check at desk scale: the exact lattice
    # second moment of increments stays within 7% of |t-s|^(2H) across the
    # calibration range (worst case sits near H = 0.6, about -6% at n = 256,
    # shrinking with refinement; grid variances themselves are exact).
    grid = TimeGrid(T=1.0, n=256)
    for H in (0.6, 0.7, 0.8):
        spec = HermiteSpec.create(2, H)
        for (s, t) in [(0.25, 0.5), (0.5, 1.0), (0.25, 1.0)]:
            m2 = (lattice_variance(grid, spec, t)
                  + lattice_variance(grid, spec, s)
                  - 2.0 * lattice_covariance(grid, spec, s, t))
            th = (t - s) ** (2.0 * H)
            assert abs(m2 - th) < 0.07 * th


def test_rank_one_lattice_variance_close_to_continuum():
    # Midpoint Riemann weights at n = 256 should land within a percent or so
    # of t^(2H) for moderate H; this pins the overall normalization.
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(1, 0.7)
    v = lattice_variance(grid, spec, 1.0)
    assert abs(v - 1.0) < 0.01


def test_increment_scaling_exponent():
    """Log-log slope of E|Z_{s+eps} - Z_s|^2 over dyadic lags recovers 2H
    within +-0.2 at n = 2^12 over 100 paths (rank one)."""
    H = 0.75
    grid = TimeGrid(T=1.0, n=4096)
    spec = HermiteSpec.create(1, H)
    Z = simulate_ensemble(grid, spec, seed=29, path_ids=range(100))
    lags = np.array([2.0**-k for k in range(2, 7)])
    m2 = []
    for eps in lags:
        step = grid.index_of(eps)
        diffs = Z[:, step::step] - Z[:, :-step:step]
        m2.append(np.mean(diffs**2))
    slope = np.polyfit(np.log(lags), np.log(m2), 1)[0]
    assert abs(slope / 2.0 - H) < 0.1


# ---------------------------------------------------------------------------
# Circulant-embedding oracle (validation-only driver).
# ---------------------------------------------------------------------------

def test_circulant_matches_exact_covariance():
    H = 0.7
    grid = TimeGrid(T=1.0, n=256)
    Z = simulate_fbm_circulant(grid, H, seed=41, path_ids=range(4000))

    def cov_exact(s, t):
        return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))

    for (s, t) in [(0.25, 0.25), (0.5, 1.0), (0.25, 0.75), (1.0, 1.0)]:
        ks, kt = grid.index_of(s), grid.index_of(t)
        prod = Z[:, ks] * Z[:, kt]
        se = prod.std(ddof=1) / np.sqrt(len(prod))
        assert abs(prod.mean() - cov_exact(s, t)) < 3 * se


def test_kernel_scheme_agrees_with_circulant_law():
    # Two independent constructions of the same Gaussian law; compare
    # second moments on a coarse grid.  This is the cross-validation route,
    # never the driver for anything downstream.
    H = 0.75
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(1, H)
    Zk = simulate_ensemble(grid, spec, seed=43, path_ids=range(3000))
    Zc = simulate_fbm_circulant(grid, H, seed=44, path_ids=range(3000))
    for t in (0.25, 0.5, 0.75, 1.0):
        k = grid.index_of(t)
        a, b = Zk[:, k], Zc[:, k]
        va, vb = np.mean(a**2), np.mean(b**2)
        se = np.hypot(
            np.std(a**2, ddof=1) / np.sqrt(len(a)),
            np.std(b**2, ddof=1) / np.sqrt(len(b)),
        )
        assert abs(va - vb) < 3 * se


def test_circulant_reproducible():
    grid = TimeGrid(T=1.0, n=64)
    A = simulate_fbm_circulant(grid, 0.8, seed=5, path_ids=[0, 1])
    B = simulate_fbm_circulant(grid, 0.8, seed=5, path_ids=[0, 1])
    C = simulate_fbm_circulant(grid, 0.8, seed=6, path_ids=[0, 1])
    assert np.array_equal(A, B)
    assert not np.array_equal(A, C)
    assert np.all(A[:, 0] == 0.0)


# ---------------------------------------------------------------------------
# Pins of the cold rank-2 plan against direct in-test constructions.
# ---------------------------------------------------------------------------

_PIN_N = 64
_PIN_HS = (0.6, 0.75, 0.9)


def _window_u_nodes(grid, l, nodes=8):
    """The u-nodes of window l: Gauss-Legendre panels graded toward t_l."""
    h = grid.dt
    xg, _ = np.polynomial.legendre.leggauss(nodes)
    grading = (0.0, 1.0 / 64.0, 1.0 / 8.0, 1.0)
    du = np.concatenate([a * h + (b - a) * h / 2.0 * (xg + 1.0)
                         for a, b in zip(grading[:-1], grading[1:])])
    return grid.points[l] + du


def _direct_bulk_rows(grid, spec, l, nodes=8):
    """Bulk cells 1..l-2 of window l by direct powers, one per (p, i, j)."""
    h = grid.dt
    hp = spec.hp
    u = _window_u_nodes(grid, l, nodes)
    xb, wb = np.polynomial.legendre.leggauss(max(2, nodes // 2))
    Y = grid.points[1 : l - 1, None] + (h / 2.0) * (xb + 1.0)
    diff = u[:, None, None] - Y[None]
    rows = ((diff ** (hp - 1.5)) * Y[None] ** (0.5 - hp)) @ (wb / 2.0)
    return rows * (spec.c * u ** (hp - 0.5))[:, None]


def _quad_edge_rows(grid, spec, l):
    """Edge cells 0, l-1 and l of window l by adaptive quadrature in
    v = u - y, with the kernel's singularities at v = 0 (y = u) and v = u
    (y = 0) in QUADPACK's algebraic end-point weights."""
    from scipy.integrate import quad

    h, hp = grid.dt, spec.hp
    u = _window_u_nodes(grid, l)
    cells = (0, max(l - 1, 0), l)
    rows = np.empty((u.size, 3))
    for p, up in enumerate(u):
        for col, i in enumerate(cells):
            y0 = i * h
            v0, v1 = up - min(y0 + h, up), up - y0
            own, origin = v0 == 0.0, y0 == 0.0

            def f(v):
                return ((1.0 if own else v ** (hp - 1.5))
                        * (1.0 if origin else (up - v) ** (0.5 - hp)))

            wvar = (hp - 1.5 if own else 0.0, 0.5 - hp if origin else 0.0)
            rows[p, col] = quad(f, v0, v1, weight="alg", wvar=wvar,
                                epsabs=0.0, epsrel=2e-14, limit=200)[0]
    return rows * (spec.c * u ** (hp - 0.5) / h)[:, None], list(cells)


def _direct_pair_matrix(grid, spec, k, lam2):
    """sum_{l<k} lam2_l F_l^T diag(w) F_l, accumulated window by window."""
    from stochtransport.noise import _window_plan

    plan = _window_plan(grid, spec)
    A = np.zeros((grid.n, grid.n))
    for l in range(k):
        F, w = plan.factor_block(l, l + 1)
        A[: l + 1, : l + 1] += lam2[l] * (F.T @ (w[:, None] * F))
    return A


@pytest.mark.parametrize("H", _PIN_HS)
def test_factor_rows_bulk_cells_match_direct_powers(H):
    """Bulk cells against direct powers, and the three edge cells of every
    window against adaptive quadrature, a route that shares nothing with
    the plan's incomplete Beta function."""
    from stochtransport.noise import _window_plan

    grid = TimeGrid(T=1.0, n=_PIN_N)
    spec = HermiteSpec.create(2, H)
    plan = _window_plan(grid, spec)
    for l in range(grid.n):
        F, w = plan.factor_block(l, l + 1)
        assert F.shape == (24, l + 1) and w.shape == (24,)
        assert np.all(np.isfinite(F)) and np.all(F > 0.0)
        if l >= 3:
            ref = _direct_bulk_rows(grid, spec, l)
            rel = np.abs(F[:, 1 : l - 1] - ref) / np.abs(ref)
            assert rel.max() < 1e-13, (l, rel.max())
        ref, cols = _quad_edge_rows(grid, spec, l)
        rel = np.abs(F[:, cols] - ref) / ref
        assert rel.max() < 1e-12, (l, rel.max())


@pytest.mark.parametrize("H", _PIN_HS)
def test_window_scales_match_reference_recursion(H):
    from stochtransport.noise import _window_plan, _window_scales

    grid = TimeGrid(T=1.0, n=_PIN_N)
    spec = HermiteSpec.create(2, H)
    plan = _window_plan(grid, spec)
    tau_scale = 2.0 * spec.d**2 * grid.dt**2
    A = np.zeros((grid.n, grid.n))
    ref = np.empty(grid.n)
    for l in range(grid.n):
        F, w = plan.factor_block(l, l + 1)
        B = F.T @ (w[:, None] * F)
        x = float((A[: l + 1, : l + 1] * B).sum())
        y = float((B * B).sum())
        tau = (grid.points[l + 1] ** (2 * H) - grid.points[l] ** (2 * H)) / tau_scale
        ref[l] = (-x + np.sqrt(x * x + y * tau)) / y
        A[: l + 1, : l + 1] += ref[l] * B
    lam2 = _window_scales(grid, spec)
    assert lam2.shape == (grid.n,) and not lam2.flags.writeable
    assert np.max(np.abs(lam2 - ref) / ref) < 1e-12


def _gl_tables(grid, spec):
    """The lag-tabulated Gauss-Legendre bulk rule: D[j, p, n-1-k] =
    (k h + du_p - yoff_j)^(hp - 3/2) at lag k >= 2, u-node p and y-node j
    (window l reads a contiguous tail), and C[j, i] = (t_i + yoff_j)^(1/2 - hp)
    times the averaging weight, so a bulk cell of window l is
    sum_j D[j, p, n-1-(l-i)] C[j, i] times the u-power."""
    h, hp = grid.dt, spec.hp
    du = _window_u_nodes(grid, 0)
    xb, wb = np.polynomial.legendre.leggauss(4)
    yoff = (h / 2.0) * (xb + 1.0)
    D = (np.arange(grid.n - 1, 1, -1) * h + du[:, None] - yoff[:, None, None]) ** (hp - 1.5)
    C = (grid.points[:-1] + yoff[:, None]) ** (0.5 - hp) * (wb[:, None] / 2.0)
    return D, C


def _gl_factor_rows(grid, spec, l, tables=None):
    """Window l's factor rows, (M, l + 1), the dense oracle of the window
    pass: bulk cells 1 .. l-2 from the lag tables (_gl_tables), one einsum
    per window, and the plan's edge cells 0, l-1 and l."""
    from stochtransport.noise import _window_plan

    plan = _window_plan(grid, spec)
    D, C = tables or _gl_tables(grid, spec)
    F = np.zeros((plan.M, l + 1))
    if l >= 3:
        F[:, 1:l - 1] = np.einsum("jpk,jk->pk", D[:, :, 2 - l:], C[:, 1:l - 1])
    F *= plan.upow[l][:, None]
    F[:, [0, max(l - 1, 0), l]] = plan.edges[l].T
    return F


def _dense_pair_blocks(plan, ks, lam2, tau=None):
    """The dense window pass: {k: A_k} at the requested indices k, each
    window's Gram matrix Psi_l^T Psi_l folded into one (kmax, kmax)
    accumulator in blocks of _FOLD windows closed at every k, O(M n^3) in
    all.  With tau it calibrates instead, solving lam2_l in place before
    window l counts, from x = tr(Psi_l A_l0 Psi_l^T) for the part folded at
    the block start l0 plus lam2_j ||Psi_l Psi_j^T||^2 for each window j of
    the block before l, and y = ||Psi_l Psi_l^T||^2."""
    from stochtransport.noise import _FOLD

    ks = {int(k) for k in ks}
    kmax, M = max(ks), plan.M
    edges = sorted(ks | set(range(0, kmax, _FOLD)))
    A = np.zeros((kmax, kmax))
    out = {}
    for l0, l1 in zip(edges, edges[1:] + [None]):
        if l0 in ks:
            out[l0] = 0.5 * (A[:l0, :l0] + A[:l0, :l0].T)
        if l1 is None:
            return out
        m = l1 - l0
        Psi, w = plan.factor_block(l0, l1)
        Psi *= np.sqrt(np.tile(w, m))[:, None]
        if tau is not None:
            P0 = Psi[:, :l0]
            x0 = np.einsum("ri,ri->r", P0 @ A[:l0, :l0], P0).reshape(m, M).sum(axis=1)
            R = ((Psi @ Psi.T) ** 2).reshape(m, M, m, M).sum(axis=(1, 3))
            for a in range(m):
                l = l0 + a
                x = x0[a] + R[a, :a] @ lam2[l0:l]
                lam2[l] = (-x + np.sqrt(x * x + R[a, a] * tau[l])) / R[a, a]
        A[:l1, :l1] += (np.repeat(lam2[l0:l1], M)[:, None] * Psi).T @ Psi


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 96), H=st.floats(0.51, 0.99),
       T=st.sampled_from([0.5, 1.0, 3.0]))
@example(n=5, H=0.51, T=3.0)
@example(n=96, H=0.99, T=0.5)
def test_window_scales_match_the_dense_calibrating_pass(n, H, T):
    """The exponential-sum recursion against the dense calibrating pass,
    which solves the same quadratics from the pair matrix itself."""
    from stochtransport.noise import _window_plan, _window_scales

    grid = TimeGrid(T=T, n=n)
    spec = HermiteSpec.create(2, H)
    tau = np.diff(grid.points ** (2 * H)) / (2.0 * spec.d**2 * grid.dt**2)
    ref = np.empty(n)
    _dense_pair_blocks(_window_plan(grid, spec), [n], ref, tau)
    lam2 = _window_scales(grid, spec)
    assert np.max(np.abs(lam2 - ref) / ref) < 1e-12


@pytest.mark.parametrize("H", [0.51, 0.7, 0.99])
@pytest.mark.parametrize("n", [4, 512, 4096])
def test_exp_sum_reproduces_the_bulk_powers(n, H):
    """sum_e weights_e exp(-rates_e x) against every tabulated bulk power
    D = x^(hp - 3/2), x in [h, T], of the Gauss-Legendre oracle, with
    positive rates and weights; factor_block's bulk rows, built from
    E r^(k-2) ct, against the oracle's rows from D and C; and exp_block's
    weighted rows against factor_block's."""
    from stochtransport.noise import _window_plan

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    plan = _window_plan(grid, spec)
    assert np.all(plan.rates > 0.0) and np.all(plan.weights > 0.0)
    h = grid.dt
    du = _window_u_nodes(grid, 0)
    yoff = (h / 2.0) * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    x = np.arange(n - 1, 1, -1) * h + du[:, None] - yoff[:, None, None]
    tables = _gl_tables(grid, spec)
    assert x.shape == tables[0].shape
    assert x.min() >= h and x.max() <= grid.T
    approx = np.exp(-x[..., None] * plan.rates) @ plan.weights
    assert np.max(np.abs(approx / tables[0] - 1.0)) <= 1e-14
    if n > 3:
        l = n - 1
        F, w = plan.factor_block(l, l + 1)
        ref = _gl_factor_rows(grid, spec, l, tables)
        assert np.max(np.abs(F[:, 1:l - 1] / ref[:, 1:l - 1] - 1.0)) <= 1e-13
        Eh, P = plan.exp_block(l, l + 1)
        powers = plan.r ** np.arange(l - 3, -1, -1)[:, None]  # cells 1 .. l-2
        rows = Eh[0] @ (powers * plan.ct[1:l - 1]).T
        ref = np.sqrt(w)[:, None] * F
        assert np.max(np.abs(rows / ref[:, 1:l - 1] - 1.0)) <= 1e-13
        assert np.array_equal(P[0], ref[:, [0, l - 1, l]].T)


@pytest.mark.parametrize("H", _PIN_HS)
def test_pair_matrix_matches_direct_accumulation(H):
    from stochtransport.noise import _window_scales

    grid = TimeGrid(T=1.0, n=_PIN_N)
    spec = HermiteSpec.create(2, H)
    lam2 = _window_scales(grid, spec)
    eighths = np.unique(np.round(np.linspace(0, grid.n, 9)).astype(int))[1:]
    for k in list(eighths) + [37]:
        lam = pair_matrix(grid, spec, grid.points[k])
        ref = _direct_pair_matrix(grid, spec, k, lam2)
        ref = 0.5 * (ref + ref.T)
        assert lam.shape == (grid.n, grid.n)
        assert not lam.flags.writeable
        assert np.array_equal(lam, lam.T)
        assert np.all(lam[k:, :] == 0.0) and np.all(lam[:, k:] == 0.0)
        assert np.max(np.abs(lam - ref)) < 1e-13 * np.max(np.abs(ref))
        assert lattice_variance(grid, spec, grid.points[k]) == pytest.approx(
            grid.points[k] ** (2 * H), rel=1e-10)


@pytest.mark.parametrize("H", [0.51, 0.7, 0.99])
@pytest.mark.parametrize("n", [7, 40, 100])
def test_pair_sums_match_the_dense_accumulating_pass(n, H):
    """A_k from the exponential sum against the dense accumulating pass,
    for k = 0 .. 6 (the windows whose edge cells coincide or leave one bulk
    cell), every probe index and n, from one sweep and one at a time."""
    from stochtransport.noise import _pair_sums, _probe_indices, _window_plan, _window_scales

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    plan, lam2 = _window_plan(grid, spec), _window_scales(grid, spec)
    ks = sorted({*range(1, 7), *(int(k) for k in _probe_indices(n)), n})
    ref = _dense_pair_blocks(plan, ks, lam2)
    together = _pair_sums(plan, lam2, ks)
    assert sorted(together) == ks
    for k in ks:
        for A in (together[k], _pair_sums(plan, lam2, [k])[k]):
            assert A.shape == (k, k) and not A.flags.writeable
            assert np.array_equal(A, A.T)
            assert np.max(np.abs(A - ref[k])) <= 1e-13 * np.max(np.abs(ref[k])), k
    assert _pair_sums(plan, lam2, [0])[0].shape == (0, 0)


def _record_pair_passes(monkeypatch):
    """Wrap noise._pair_sums; returns the list it appends, per call, the
    sorted requested indices and the blocks it returned."""
    import stochtransport.noise as noise

    passes = []
    real = noise._pair_sums

    def recorded(plan, lam2, ks):
        out = real(plan, lam2, ks)
        passes.append((tuple(sorted(int(k) for k in ks)), out))
        return out

    monkeypatch.setattr(noise, "_pair_sums", recorded)
    return passes


@pytest.mark.parametrize("n", [100, 512])
def test_probe_pair_matrices_come_from_one_recording_pass(n, monkeypatch):
    """The lattice Gram at the probe indices builds every probe block, A_n
    included, in one sweep over exactly those indices and reads no cache;
    each block is the dense accumulation to 1e-13 of its largest entry,
    and every Gram entry is, bit for bit, the Wick covariance of the
    blocks the sweep returned.  n = 512 takes several row blocks."""
    import stochtransport.noise as noise

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.77)  # an H no other test uses: cold caches
    passes = _record_pair_passes(monkeypatch)
    cached = noise._pair_matrix_cached.cache_info()
    probes = [int(k) for k in noise._probe_indices(n)]
    gram = noise._lattice_gram(grid, spec, probes)
    assert [p[0] for p in passes] == [tuple(probes)]
    assert noise._pair_matrix_cached.cache_info() == cached

    blocks = passes[0][1]
    ref = _dense_pair_blocks(noise._window_plan(grid, spec), probes,
                             noise._window_scales(grid, spec))
    for k in probes:
        assert blocks[k].shape == (k, k) and not blocks[k].flags.writeable
        assert np.max(np.abs(blocks[k] - ref[k])) <= 1e-13 * np.max(np.abs(ref[k])), k
    c = 2.0 * spec.d**2 * grid.dt**2
    for i, a in enumerate(probes):
        for j, b in enumerate(probes):
            k = min(a, b)
            assert gram[i, j] == c * (blocks[a][:k, :k] * blocks[b][:k, :k]).sum()


def test_a_pair_matrix_below_n_makes_one_pass_to_its_index(monkeypatch, tmp_path):
    """A cold pair_matrix or dz_norm_ensemble at T/2 makes one calibration
    and one sweep over {n/2}, not over all eight probes; a cold noise-stats
    makes one calibration and one sweep over the eight."""
    import stochtransport.noise as noise
    from stochtransport.experiments import ExperimentConfig, run
    from stochtransport.malliavin import dz_norm_ensemble

    n = 64
    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.7)
    probes = tuple(int(k) for k in noise._probe_indices(n))
    passes = _record_pair_passes(monkeypatch)
    dW = generate_increments(grid, 3, range(4))
    for call in (lambda: pair_matrix(grid, spec, 0.5),
                 lambda: dz_norm_ensemble(grid, spec, dW, 0.5)):
        noise._window_scales.cache_clear()
        noise._pair_matrix_cached.cache_clear()
        passes.clear()
        call()
        assert [p[0] for p in passes] == [(n // 2,)]
        assert noise._window_scales.cache_info().misses == 1

    noise._window_scales.cache_clear()
    noise._pair_matrix_cached.cache_clear()
    passes.clear()
    run(ExperimentConfig(kind="noise-stats", q=2, n=n, paths=50, seed=7,
                         out_dir=str(tmp_path)))
    assert [p[0] for p in passes] == [probes]
    assert noise._window_scales.cache_info().misses == 1


def test_a_sine_drift_density_builds_no_pair_matrix(monkeypatch, tmp_path):
    """A rank-2 density with the sine drift reads its derivative norm off
    the window adjoint: a cold run calibrates once and builds no pair
    matrix, so it holds no k x k array."""
    import stochtransport.noise as noise
    from stochtransport.experiments import ExperimentConfig, run

    passes = _record_pair_passes(monkeypatch)
    noise._window_scales.cache_clear()
    noise._pair_matrix_cached.cache_clear()
    run(ExperimentConfig(kind="density", q=2, n=64, paths=1000, drift="sine",
                         out_dir=str(tmp_path)))
    assert passes == []
    assert noise._window_scales.cache_info().misses == 1
    assert noise._pair_matrix_cached.cache_info().currsize == 0


def test_calibration_keeps_only_the_scales():
    """A cold calibration leaves lam2 alone in its lru entry: n doubles,
    and no (n, n) array on the way.  With the plan warm, its traced peak is
    one block's (N, N) tables, _FOLD of each of K, H H^T and Phi and their
    temporaries: 5.7 _FOLD N^2 doubles measured at n = 2048, 0.05 n^2, where
    the dense pass peaked above its A_n."""
    import tracemalloc

    from stochtransport.noise import _FOLD, _window_plan, _window_scales

    n = 2048
    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.66)  # an H no other test uses: cold caches
    N = _window_plan(grid, spec).r.size
    tracemalloc.start()
    try:
        lam2 = _window_scales(grid, spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lam2.shape == (n,) and lam2.base is None
    assert held <= 8 * n + 1024
    assert peak <= 6.5 * 8 * _FOLD * N * N
    assert peak <= 0.1 * 8 * n * n


def test_off_probe_pair_matrices_hold_two_blocks():
    """Eight pair_matrix calls at off-probe times, with the plan and the
    calibration warm, leave at most the last two k x k blocks cached: 1.76
    n^2 doubles measured at n = 512 (k = 482 and 479), where a cache of
    eight blocks held 7.32 n^2."""
    import tracemalloc

    from stochtransport.noise import _window_scales

    n = 512
    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.73)  # an H no other test uses: cold caches
    _window_scales(grid, spec)
    tracemalloc.start()
    try:
        for k in range(500, 478, -3):
            pair_matrix(grid, spec, grid.points[k])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.1 * 8 * n * n


def test_lattice_gram_keeps_no_block_below_n():
    """With the calibration warm, the lattice Gram at the probe indices
    builds the eight probe blocks, A_n included (about 3.2 n^2 doubles;
    traced peak 6.3 n^2 at n = 256 with the sweep's column factors, k rows
    for each A_k), and holds none of them afterwards (0.012 n^2 measured:
    the Gram and interpreter small change)."""
    import tracemalloc

    import stochtransport.noise as noise

    n = 256
    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.71)  # an H no other test uses: cold caches
    noise._window_scales(grid, spec)
    before = noise._pair_matrix_cached.cache_info()
    tracemalloc.start()
    try:
        gram = noise._lattice_gram(grid, spec, noise._probe_indices(n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gram.shape == (8, 8)
    assert peak >= 2.0 * 8 * n * n  # the blocks were built ...
    assert held <= 0.05 * 8 * n * n  # ... and dropped
    assert noise._pair_matrix_cached.cache_info() == before


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 48), H=st.floats(0.55, 0.95), data=st.data())
def test_wick_form_equals_simulated_values(n, H, data):
    """d (dW' A_k dW - dt tr A_k) reproduces the window recursion for any
    driver, grid size, Hurst index and grid time."""
    from stochtransport.noise import _from_driver

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    k = data.draw(st.integers(1, n), label="k")
    dW = np.sqrt(grid.dt) * data.draw(
        arrays(np.float64, n, elements=st.floats(-4.0, 4.0)), label="dW")
    z = _from_driver(grid, spec, dW[None, :])[0, k]
    lam = pair_matrix(grid, spec, grid.points[k])
    wick = spec.d * (dW @ lam @ dW - grid.dt * np.trace(lam))
    assert abs(wick - z) <= 1e-12 * (1.0 + abs(z))


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([1, 2]), data=st.data())
def test_ensemble_rows_do_not_depend_on_the_batch(q, data):
    """Row p of simulate_ensemble is the path of path_ids[p] whatever else is
    in the batch and in whatever order; only the roundoff of the batch-shaped
    products may differ."""
    grid = TimeGrid(T=1.0, n=48)
    spec = HermiteSpec.create(q, 0.7)
    full = simulate_ensemble(grid, spec, 11, range(24))
    order = data.draw(st.permutations(range(24)), label="order")
    ids = order[: data.draw(st.integers(1, 24), label="size")]
    z = simulate_ensemble(grid, spec, 11, ids)
    ref = full[ids]
    assert z.shape == ref.shape and z.flags.f_contiguous
    assert np.all(np.abs(z - ref) <= 1e-14 * (1.0 + np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 70), data=st.data())
def test_window_blocks_cover_the_range_once_with_the_plan_rows(n, data):
    """_window_blocks visits every window of [lo, hi) once, in blocks of at
    most _FOLD: windows l < 4 first, then recursion block b from
    4 + b _FOLD.  Driven by the identity, whose row i is the unit increment
    of step i, a block's S holds its windows' sqrt(w)-weighted factor rows:
    the edge cells bit for bit the plan's, exactly zero past column l, and
    the bulk cells, read through the block tables and the state, the
    oracle's rows (_gl_factor_rows) to 1e-13."""
    from stochtransport.noise import _FOLD, _BlockTables, _window_blocks, _window_plan

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.7)
    hi = data.draw(st.integers(1, n), label="hi")
    lo = data.draw(st.integers(0, hi - 1), label="lo")
    plan = _window_plan(grid, spec)
    tables = _gl_tables(grid, spec)
    seen = []
    for b, l0, l1, S, W in _window_blocks(plan, _BlockTables(plan), np.eye(n), lo, hi):
        assert 0 < l1 - l0 <= _FOLD and S.shape == (n, (l1 - l0) * plan.M)
        assert l0 == (0 if b < 0 else 4 + b * _FOLD) and (b < 0) == (l1 <= 4)
        for a, l in enumerate(range(l0, l1)):
            rows = S[:, a * plan.M:(a + 1) * plan.M].T
            ref = _gl_factor_rows(grid, spec, l, tables) * np.sqrt(plan.wu)[:, None]
            edge = [0, max(l - 1, 0), l]
            assert np.array_equal(rows[:, edge], ref[:, edge])
            assert not rows[:, l + 1:].any()
            if l >= 3:
                bulk = rows[:, 1:l - 1] / ref[:, 1:l - 1]
                assert np.max(np.abs(bulk - 1.0)) <= 1e-13
        seen.extend(range(l0, l1))
    start = 0 if lo < 4 else lo - (lo - 4) % _FOLD  # the start of lo's block
    assert seen == list(range(start, hi))


@pytest.mark.parametrize("n", [37, 48])
def test_rank2_blocks_equal_the_window_by_window_wick_sum(n):
    """The blocked simulator against the per-window recursion
    Z(t_{l+1}) - Z(t_l) = d lam2_l ((S_l * S_l) @ w - dt (F_l * F_l) @ w)
    with S_l = dW[:, :l+1] @ F_l.T, over more than one path chunk."""
    from stochtransport.noise import _PATH_BLOCK, _from_driver, _window_plan, _window_scales

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, 0.7)
    dW = generate_increments(grid, 5, range(_PATH_BLOCK + 5))
    plan = _window_plan(grid, spec)
    lam2 = _window_scales(grid, spec)
    ref = np.zeros((dW.shape[0], n + 1))
    for l in range(n):
        F, w = plan.factor_block(l, l + 1)
        S = dW[:, :l + 1] @ F.T
        term = (S * S) @ w - grid.dt * ((F * F).sum(axis=1) @ w)
        ref[:, l + 1] = ref[:, l] + spec.d * lam2[l] * term
    z = _from_driver(grid, spec, dW)
    assert np.all(np.abs(z - ref) <= 1e-13 * (1.0 + np.abs(ref)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 96), H=st.floats(0.55, 0.95), data=st.data())
def test_forward_pass_equals_the_oracle_wick_sum(n, H, data):
    """The state recursion against the window-by-window Wick sum of the
    dense Gauss-Legendre rows (_gl_factor_rows),
    Z(t_{l+1}) - Z(t_l) = d lam2_l ((S_l * S_l) @ w - dt (F_l * F_l) @ w)
    with S_l = dW[:, :l+1] @ F_l.T, over more than one path chunk."""
    from stochtransport.noise import _PATH_BLOCK, _from_driver

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    paths = data.draw(st.integers(_PATH_BLOCK + 1, _PATH_BLOCK + 40), label="paths")
    dW = generate_increments(grid, 17, range(paths))
    ref = _oracle_wick_sum(grid, spec, dW)
    z = _from_driver(grid, spec, dW)
    assert np.all(np.abs(z - ref) <= 1e-13 * (1.0 + np.abs(ref)))


def _oracle_wick_sum(grid, spec, dW):
    """Z on the grid for the driver rows dW, window by window from the dense
    Gauss-Legendre rows (_gl_factor_rows):
    Z(t_{l+1}) - Z(t_l) = d lam2_l ((S_l * S_l) @ w - dt (F_l * F_l) @ w)
    with S_l = dW[:, :l+1] @ F_l.T."""
    from stochtransport.noise import _window_plan, _window_scales

    w, lam2 = _window_plan(grid, spec).wu, _window_scales(grid, spec)
    tables = _gl_tables(grid, spec)
    ref = np.zeros((len(dW), grid.n + 1))
    for l in range(grid.n):
        F = _gl_factor_rows(grid, spec, l, tables)
        S = dW[:, :l + 1] @ F.T
        term = (S * S) @ w - grid.dt * ((F * F).sum(axis=1) @ w)
        ref[:, l + 1] = ref[:, l] + spec.d * lam2[l] * term
    return ref


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 96), H=st.floats(0.55, 0.95))
def test_wick_means_equal_the_oracle_rows(n, H):
    """The Wick means the calibration sweep leaves in the plan, dt times the
    trace of each window's Gram, against dt sum_p w_p sum_i F_l[p, i]^2 from
    the dense oracle rows (_gl_factor_rows)."""
    from stochtransport.noise import _wick_means, _window_plan

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    wick = _wick_means(grid, spec)
    w, tables = _window_plan(grid, spec).wu, _gl_tables(grid, spec)
    ref = np.array([grid.dt * (w @ (_gl_factor_rows(grid, spec, l, tables) ** 2).sum(axis=1))
                    for l in range(n)])
    assert np.max(np.abs(wick / ref - 1.0)) <= 1e-13


def test_wick_means_survive_a_plan_evicted_under_cached_scales():
    """Seventeen other plans evict this grid's plan from _window_plan (16
    entries) while its lam2 stays in _window_scales.  Only a calibration
    sweep fills a plan's Wick means, so the rebuilt plan must get them
    without a cache miss of lam2: the forward pass against the oracle Wick
    sum."""
    import stochtransport.noise as noise

    grid = TimeGrid(T=1.0, n=48)
    spec = HermiteSpec.create(2, 0.64)
    dW = generate_increments(grid, 23, range(9))
    noise._window_scales(grid, spec)
    plan = noise._window_plan(grid, spec)
    for H in np.linspace(0.561, 0.941, 17):  # plans no other test builds
        noise._window_plan(TimeGrid(T=0.37, n=8), HermiteSpec.create(2, H))
    misses = noise._window_scales.cache_info().misses
    z = noise._from_driver(grid, spec, dW)
    assert noise._window_plan(grid, spec) is not plan
    assert noise._window_scales.cache_info().misses == misses
    ref = _oracle_wick_sum(grid, spec, dW)
    assert np.all(np.abs(z - ref) <= 1e-13 * (1.0 + np.abs(ref)))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 96), H=st.floats(0.55, 0.95), data=st.data())
def test_window_adjoint_equals_the_derivative_table(n, H, data):
    """The adjoint pass, _dz_norm with zero-sum weights w at ks < kt,
    against ||sum_r w[r] G[ks+r]||^2 dt from each path's derivative table
    (_dz_rows), on paths of both sides of a path-chunk boundary."""
    from stochtransport.noise import _PATH_BLOCK, _dz_norm, _dz_rows

    grid = TimeGrid(T=1.0, n=n)
    spec = HermiteSpec.create(2, H)
    kt = data.draw(st.integers(1, n), label="kt")
    ks = data.draw(st.integers(0, kt - 1), label="ks")
    paths = _PATH_BLOCK + 3
    dW = generate_increments(grid, 19, range(paths))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    w = rng.standard_normal((kt - ks + 1, paths))
    w -= w.mean(axis=0)
    got = _dz_norm(grid, spec, dW, paths, ks, kt, w)
    for p in (0, 1, _PATH_BLOCK - 1, _PATH_BLOCK, paths - 1):
        v = w[:, p] @ _dz_rows(grid, spec, dW[p])[ks:kt + 1]
        assert got[p] == pytest.approx(v @ v * grid.dt, rel=1e-12)
