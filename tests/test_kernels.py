"""Kernel-level checks.

Each frozen constant below was produced by an independent route — adaptive
quadrature (scipy.integrate.quad) applied to the defining integrals, or the
beta-function formula for the normalizations — before the quadrature code in
the package existed.  The live quad comparisons repeat that route at test
time on fresh argument combinations.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from stochtransport import DomainError, TimeGrid, UnsupportedOrderError
from stochtransport.kernels import (
    HermiteSpec,
    c_H,
    d_H,
    hurst_prime,
    kernel_KH,
    kernel_KH_matrix,
    kernel_L,
    _dkh_profile,
    _kh,
)
from stochtransport.noise import _fbm_weights


def test_c_H_frozen_values():
    assert c_H(0.6) == pytest.approx(0.107600518413181, abs=1e-12)
    assert c_H(0.75) == pytest.approx(0.267411158757998, abs=1e-12)
    assert c_H(0.9) == pytest.approx(0.324488259257341, abs=1e-12)


def test_hurst_prime_values():
    assert hurst_prime(1, 0.8) == pytest.approx(0.8)
    assert hurst_prime(2, 0.8) == pytest.approx(0.9)
    assert hurst_prime(4, 0.6) == pytest.approx(0.9)


@pytest.mark.parametrize(
    "t,s,H,expected",
    [
        (1.0, 0.5, 0.75, 0.937591963626826),
        (1.0, 0.25, 0.6, 1.064307993027831),
        (2.0, 0.3, 0.9, 1.408122425028324),
    ],
)
def test_kernel_KH_frozen(t, s, H, expected):
    assert kernel_KH(t, s, H) == pytest.approx(expected, rel=1e-7)


def test_kernel_KH_live_quad():
    t, s, H = 1.3, 0.41, 0.68
    val, _ = quad(lambda u: (u - s) ** (H - 1.5) * u ** (H - 0.5), s, t, points=[s])
    oracle = c_H(H) * s ** (0.5 - H) * val
    assert kernel_KH(t, s, H) == pytest.approx(oracle, rel=1e-8)


def test_kernel_KH_scaling():
    """Self-similarity: K(lam t, lam s) = lam^(H-1/2) K(t, s)."""
    H, lam = 0.7, 3.7
    base = kernel_KH(1.0, 0.4, H)
    assert kernel_KH(lam, 0.4 * lam, H) == pytest.approx(lam ** (H - 0.5) * base, rel=1e-10)


def test_kernel_KH_vanishes_at_or_past_diagonal():
    assert kernel_KH(0.5, 0.5, 0.75) == 0.0
    assert kernel_KH(0.4, 0.5, 0.75) == 0.0


def test_kernel_variance_identity():
    """int_0^1 K_H(1,s)^2 ds = 1, expressed through the normalization constant."""
    for H in (0.55, 0.7, 0.85, 0.95):
        assert d_H(1, H) == pytest.approx(1.0, abs=1e-10)


def test_kernel_KH_matrix_agrees_with_scalar():
    H = 0.8
    t = np.array([0.2, 0.5, 1.0])
    s = np.array([0.1, 0.2, 0.45, 0.99])
    mat = kernel_KH_matrix(t, s, H)
    for i, ti in enumerate(t):
        for j, sj in enumerate(s):
            assert mat[i, j] == pytest.approx(kernel_KH(float(ti), float(sj), H), abs=1e-10)
    assert mat[0, 2] == 0.0  # t=0.2 <= s=0.45


def test_kernel_KH_matrix_rows_at_nonpositive_t_are_zero():
    """A row with t <= 0 shares its block with later rows but stays zero."""
    mat = kernel_KH_matrix(np.array([-0.5, 0.0, 0.5]), np.array([0.1, 0.7]), 0.7)
    assert np.array_equal(mat[:2], np.zeros((2, 2)))
    assert mat[2, 0] == pytest.approx(kernel_KH(0.5, 0.1, 0.7), rel=1e-15)


@pytest.mark.parametrize("shuffle_t, shuffle_s",
                         [(True, False), (False, True), (True, True)])
def test_kernel_KH_matrix_on_shuffled_arguments(shuffle_t, shuffle_s):
    """Shuffled t or s: every entry against the sorted build, sampled
    entries against the scalar kernel."""
    H, n = 0.7, 1000
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, n + 1)[1:]
    s = (np.arange(n) + 0.5) / n
    sorted_mat = kernel_KH_matrix(t, s, H)
    pt = rng.permutation(n) if shuffle_t else np.arange(n)
    ps = rng.permutation(n) if shuffle_s else np.arange(n)
    t, s = t[pt], s[ps]
    mat = kernel_KH_matrix(t, s, H)
    assert np.array_equal(mat == 0, t[:, None] <= s[None, :])
    np.testing.assert_allclose(mat, sorted_mat[pt][:, ps], rtol=1e-15, atol=0.0)
    for i, j in rng.integers(0, n, size=(300, 2)):
        assert mat[i, j] == pytest.approx(kernel_KH(t[i], s[j], H),
                                          rel=1e-10, abs=1e-12)


def test_fbm_weights_match_a_full_square_build():
    """The blocked triangular build against the closed form evaluated on
    every pair at once and masked afterwards, at n = 1024."""
    H, n = 0.7, 1024
    grid = TimeGrid(T=1.0, n=n)
    t, s = grid.points[1:, None], grid.midpoints[None, :]
    below = s < t
    full = np.where(below, _kh(t, s, H), 0.0)
    M = _fbm_weights(grid.key(), H)
    assert np.array_equal(M == 0, ~below)
    assert np.array_equal(M, full)


@pytest.mark.parametrize("H", [0.55, 0.7, 0.95])
def test_fbm_weights_match_adaptive_quadrature(H):
    """Lattice kernel entries against quad with the algebraic weight
    (u-s)^(H-3/2) of the defining integral, at n = 1024.  Columns 0, 1 and
    10 come first: there s = dt/2, 3dt/2, 21dt/2 lies closest to u = 0,
    where the factor u^(H-1/2) is not smooth."""
    n = 1024
    grid = TimeGrid(T=1.0, n=n)
    t, s = grid.points[1:], grid.midpoints
    M = _fbm_weights(grid.key(), H)
    rng = np.random.default_rng(13)
    pairs = [(n - 1, 0), (n - 1, 1), (n - 1, 10), (0, 0), (1, 0), (10, 1)]
    pairs += [tuple(sorted(p, reverse=True)) for p in rng.integers(0, n, (24, 2))]
    for k, i in pairs:  # k >= i, so t[k] > s[i]
        val, _ = quad(lambda u: u ** (H - 0.5), s[i], t[k], weight="alg",
                      wvar=(H - 1.5, 0.0), epsabs=0.0, epsrel=1e-13)
        assert M[k, i] == pytest.approx(c_H(H) * s[i] ** (0.5 - H) * val,
                                        rel=1e-12)


@pytest.mark.parametrize("hp", [0.75, 0.85, 0.95])
@pytest.mark.parametrize("r", [1.01, 1.3, 2.0, 5.0])
def test_kernel_derivative_cross_moment(hp, r):
    """int_0^1 dK(r, y) dK(1, y) dy = H'(2H'-1) (r-1)^(2H'-2) for r > 1, the
    identity behind the closed form of d_H, by quad over _dkh_profile.  The
    panel edge 2 - r isolates the layer of width r - 1 at y = 1."""
    c = c_H(hp)
    edge = max(0.5, 2.0 - r)
    val = sum(quad(lambda y: np.prod(_dkh_profile(np.array([r, 1.0]), y, hp, c)),
                   lo, hi, limit=200)[0]
              for lo, hi in ((0.0, 0.5), (0.5, edge), (edge, 1.0)) if hi > lo)
    assert val == pytest.approx(hp * (2.0 * hp - 1.0) * (r - 1.0) ** (2.0 * hp - 2.0),
                                rel=1e-8)  # 3.6e-10 seen


def test_kernel_dKH_matches_finite_difference():
    t, s, H = 0.9, 0.3, 0.65
    h = 1e-6
    fd = (kernel_KH(t + h, s, H) - kernel_KH(t - h, s, H)) / (2 * h)
    got = _dkh_profile(np.array([t]), s, H, c_H(H))[0]
    assert got == pytest.approx(fd, rel=1e-6)


def test_kernel_L_rank1_reduces_to_KH():
    for (t, y, H) in [(1.0, 0.3, 0.6), (0.8, 0.75, 0.9)]:
        spec = HermiteSpec.create(1, H)
        assert kernel_L(t, [y], spec) == pytest.approx(kernel_KH(t, y, H), rel=1e-9)


@pytest.mark.parametrize(
    "t,y1,y2,H,expected",
    [
        (1.0, 0.3, 0.6, 0.7, 0.585986512512313),
        (1.0, 0.55, 0.6, 0.8, 0.776137413832017),
        (0.9, 0.1, 0.85, 0.6, 0.295383112489961),
    ],
)
def test_kernel_L_rank2_frozen(t, y1, y2, H, expected):
    assert kernel_L(t, (y1, y2), HermiteSpec.create(2, H)) == pytest.approx(expected, rel=1e-7)


def test_kernel_L_rank2_live_quad():
    t, y1, y2, H = 1.2, 0.17, 0.94, 0.72
    hp = hurst_prime(2, H)
    c = c_H(hp)

    def f(u):
        a = c * (y1 / u) ** (0.5 - hp) * (u - y1) ** (hp - 1.5)
        b = c * (y2 / u) ** (0.5 - hp) * (u - y2) ** (hp - 1.5)
        return a * b

    oracle, _ = quad(f, y2, t, points=[y2], limit=400)
    assert kernel_L(t, (y1, y2), HermiteSpec.create(2, H)) == pytest.approx(oracle, rel=1e-7)


def test_kernel_L_symmetric_and_causal():
    spec = HermiteSpec.create(2, 0.7)
    assert kernel_L(1.0, (0.2, 0.7), spec) == pytest.approx(
        kernel_L(1.0, (0.7, 0.2), spec), rel=1e-12
    )
    assert kernel_L(0.5, (0.2, 0.7), spec) == 0.0


def test_kernel_L_coincident_arguments_rejected():
    spec = HermiteSpec.create(2, 0.7)
    with pytest.raises(DomainError):
        kernel_L(1.0, (0.4, 0.4), spec)
    with pytest.raises(DomainError):
        kernel_L(1.0, (0.4,), spec)  # wrong argument count


def test_d_H_closed_form_oracle():
    """Normalization vs the chi-type closed form sqrt(H(2H-1)/(q! (H'(2H'-1))^q))."""
    for q, H in [(1, 0.7), (2, 0.6), (2, 0.75), (2, 0.9)]:
        hp = hurst_prime(q, H)
        oracle = math.sqrt(H * (2 * H - 1) / (math.factorial(q) * (hp * (2 * hp - 1)) ** q))
        assert d_H(q, H) == pytest.approx(oracle, rel=1e-9)


def test_d_H_frozen():
    assert d_H(2, 0.6) == pytest.approx(0.510310363079829, rel=1e-9)
    assert d_H(2, 0.75) == pytest.approx(0.659828879073858, rel=1e-9)


def test_unsupported_rank():
    with pytest.raises(UnsupportedOrderError):
        d_H(3, 0.7)
    with pytest.raises(UnsupportedOrderError):
        HermiteSpec.create(5, 0.7)


def test_hurst_domain():
    for H in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(DomainError):
            c_H(H)
    with pytest.raises(DomainError):
        kernel_KH(1.0, -0.5, 0.75)


def test_hermite_spec():
    spec = HermiteSpec.create(2, 0.7)
    assert spec.hp == pytest.approx(0.85)
    assert spec.d == pytest.approx(d_H(2, 0.7))
