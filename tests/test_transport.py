"""Tests for the transport solver and the weak-form residual check."""

import numpy as np
import pytest

from stochtransport import TimeGrid, generate, simulate_fbm, transport
from stochtransport.errors import DomainError, NumericError
from stochtransport.flow import DriftField, backward_ensemble, backward_flow
from stochtransport.noise import HermiteSpec, simulate_ensemble, simulate_hermite
from stochtransport.transport import (
    InitialDatum,
    TestFunction,
    solution_field,
    weak_form_residual,
)

TANH = InitialDatum(
    u0=lambda x: 1.5 + np.tanh(x),
    u0_prime=lambda x: 1.0 / np.cosh(x) ** 2,
)

SINE = DriftField(
    b=lambda t, x: 0.5 * np.sin(x),
    b_prime=lambda t, x: 0.5 * np.cos(x),
    sup_norm_b=0.5,
    sup_norm_bprime=0.5,
)

ZERO = DriftField(
    b=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
    b_prime=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
    sup_norm_b=0.0,
    sup_norm_bprime=0.0,
)


def fbm_path(n=512, H=0.75, seed=7, path_id=0):
    grid = TimeGrid(T=1.0, n=n)
    return simulate_fbm(generate(grid, seed=seed, path_id=path_id), H)


class TestSolveTransport:
    """u(t, x) = u0(Y_{0,t}(x)), the README quick-start composition."""

    def test_time_zero_is_initial_datum(self):
        z = fbm_path()
        for x in (-1.3, 0.0, 0.8):
            assert TANH.u0(backward_flow(SINE, z, x, 0.0, 0.0)) == TANH.u0(x)

    def test_zero_drift_is_translation(self):
        """With b = 0 the solution is exactly u0(x - Z_t)."""
        z = fbm_path(seed=11)
        for t in (0.25, 0.5, 1.0):
            k = z.grid.index_of(t)
            for x in (-0.7, 0.4, 2.1):
                got = TANH.u0(backward_flow(ZERO, z, x, 0.0, t))
                assert got == TANH.u0(x - z.values[k])

    def test_constant_datum_is_preserved(self):
        const = InitialDatum(u0=lambda x: 2.7 + 0.0 * np.asarray(x, float),
                             u0_prime=lambda x: 0.0 * np.asarray(x, float))
        z = fbm_path(seed=3)
        for t in (0.5, 1.0):
            u = const.u0(backward_flow(SINE, z, 0.3, 0.0, t))
            assert u == pytest.approx(2.7, abs=1e-13)

    def test_range_is_preserved(self):
        # u0 maps into (0.5, 2.5); the composition cannot leave that band.
        z = fbm_path(seed=5)
        vals = [TANH.u0(backward_flow(SINE, z, x, 0.0, t))
                for t in (0.25, 1.0) for x in np.linspace(-3, 3, 13)]
        assert min(vals) > 0.5 and max(vals) < 2.5


class TestSolutionField:
    def test_first_row_is_initial_datum(self):
        z = fbm_path(seed=9)
        nodes = np.linspace(-2.0, 2.0, 257)  # mesh spacing 2^-6
        field = solution_field(TANH, SINE, z, 1.0, nodes)[:, ::32]
        assert np.allclose(field[0], TANH.u0(nodes[::32]), atol=1e-12)

    def test_zero_drift_rows_translate(self):
        z = fbm_path(seed=13)
        nodes = np.linspace(-1.5, 1.5, 7)
        field = solution_field(TANH, ZERO, z, 0.5, nodes)
        k = z.grid.index_of(0.5)
        for j in (0, k // 2, k):
            expect = TANH.u0(nodes - (z.values[j] - z.values[0]))
            assert np.allclose(field[j], expect, atol=1e-10)

    def test_matches_pointwise_solver(self):
        """Each row of the field agrees with per-point backward solves."""
        z = fbm_path(n=512, seed=21)
        nodes = np.linspace(-2.0, 2.0, 513)  # mesh spacing 2^-7
        field = solution_field(TANH, SINE, z, 1.0, nodes)[:, ::64]
        nodes = nodes[::64]
        for s in (0.25, 0.625, 1.0):
            j = z.grid.index_of(s)
            direct = [TANH.u0(backward_flow(SINE, z, x, 0.0, s)) for x in nodes]
            assert np.allclose(field[j], direct, atol=1e-3)

    def test_shape_and_node_validation(self):
        z = fbm_path(seed=2)
        field = solution_field(TANH, SINE, z, 0.5, np.linspace(-1, 1, 5))
        assert field.shape == (z.grid.index_of(0.5) + 1, 5)
        with pytest.raises(DomainError):
            solution_field(TANH, SINE, z, 0.5, np.array([0.0, 0.0, 1.0]))

    def test_traced_peak_is_the_field_and_a_few_mesh_rows(self):
        """Each mesh row is interpolated as the march solves it, so the
        traced peak is the output plus O(mesh): measured output + 9.5 mesh
        rows at n = 256 and dx = 2^-6 (the march state, its two-row right
        side and step temporaries, the monotonicity check and the
        interpolation), bounded here by 16.  Holding the (kt+1) x mesh
        trajectory, as the field once did, cost 259 mesh rows."""
        import tracemalloc

        grid = TimeGrid(T=1.0, n=256)
        z = simulate_fbm(generate(grid, seed=3, path_id=0), 0.9)
        dx = 2**-6
        x = np.arange(-1.5 - 2 * dx, 1.5 + 3 * dx, dx)
        pad = float(np.max(np.abs(z.values))) + SINE.sup_norm_b + 0.5
        mesh = np.arange(x[0] - pad, x[-1] + pad + dx, dx).size
        solution_field(TANH, SINE, z, 1.0, x[:5])  # warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            field = solution_field(TANH, SINE, z, 1.0, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= field.nbytes + 16 * 8 * mesh

    def test_insufficient_pad_is_reported(self, monkeypatch):
        """A mesh whose characteristics miss the nodes is refused: every
        row the visitor is handed is shifted past the nodes."""
        march = transport._march

        def shifted(*args, visit):
            return march(*args, visit=lambda j, row: visit(j, row + 100.0))
        monkeypatch.setattr(transport, "_march", shifted)
        z = fbm_path(seed=2)
        with pytest.raises(NumericError):
            solution_field(TANH, SINE, z, 1.0, np.linspace(-2, 2, 9))


class TestWeakForm:
    def test_residual_small_on_fbm(self):
        """Both sides of the weak identity agree to well under a percent."""
        grid = TimeGrid(T=1.0, n=1024)
        dx = 2**-8
        x = np.arange(-1.5 - 2 * dx, 1.5 + 3 * dx, dx)
        phi = TestFunction.bump(0.0, 1.5)
        for pid in range(3):
            z = simulate_fbm(generate(grid, seed=20260818, path_id=pid), 0.9)
            rep = weak_form_residual(TANH, SINE, z, phi, 1.0, 2**-6, x)
            assert rep.relative_residual < 1e-2

    def test_residual_small_rank_two(self):
        grid = TimeGrid(T=1.0, n=1024)
        dx = 2**-8
        x = np.arange(-1.5 - 2 * dx, 1.5 + 3 * dx, dx)
        phi = TestFunction.bump(0.0, 1.5)
        spec = HermiteSpec.create(2, 0.8)
        z = simulate_hermite(generate(grid, seed=4, path_id=0), spec)
        rep = weak_form_residual(TANH, SINE, z, phi, 1.0, 2**-6, x)
        assert rep.relative_residual < 1e-2

    def test_time_zero_residual_vanishes(self):
        # At t = 0 both sides reduce to the same spatial quadrature.
        z = fbm_path(seed=6, n=256)
        dx = 2**-6
        x = np.arange(-1.5 - 2 * dx, 1.5 + 3 * dx, dx)
        rep = weak_form_residual(TANH, SINE, z, TestFunction.bump(0.0, 1.5),
                                 0.0, 2**-5, x)
        assert rep.residual == 0.0

    def test_quadrature_must_cover_support(self):
        z = fbm_path(seed=8, n=256)
        with pytest.raises(DomainError):
            weak_form_residual(TANH, SINE, z, TestFunction.bump(0.0, 1.5),
                               1.0, 2**-5, np.linspace(-1.0, 1.0, 129))


class TestSampleSolution:
    """Samples of u(t, x) from backward_ensemble, one per path id."""

    def test_reproducible(self):
        grid = TimeGrid(T=1.0, n=256)
        spec = HermiteSpec.create(1, 0.7)
        a, b = (TANH.u0(backward_ensemble(
                    SINE, grid, simulate_ensemble(grid, spec, 42, range(16)),
                    0.3, 0.0, 1.0))
                for _ in range(2))
        assert np.array_equal(a, b)
        assert a.shape == (16,)

    def test_identity_zero_drift_statistics(self):
        """u(1, 0) = -Z_1 for identity datum, so Var is close to 1."""
        ident = InitialDatum(u0=lambda x: np.asarray(x, float),
                             u0_prime=lambda x: np.ones_like(np.asarray(x, float)))
        grid = TimeGrid(T=1.0, n=256)
        spec = HermiteSpec.create(1, 0.7)
        z = simulate_ensemble(grid, spec, seed=1, path_ids=range(500))
        s = ident.u0(backward_ensemble(ZERO, grid, z, 0.0, 0.0, 1.0))
        assert abs(np.mean(s)) < 3 * np.std(s) / np.sqrt(500)
        assert abs(np.var(s) - 1.0) < 0.2


class TestDataValidation:
    def test_bump_vanishes_off_support(self):
        phi = TestFunction.bump(0.5, 2.0)
        assert phi.support == (-1.5, 2.5)
        assert np.all(phi.phi(np.array([-1.5, 2.5, -3.0, 4.0])) == 0.0)
        assert phi.phi(np.array([0.5]))[0] == pytest.approx(np.e**-1)

    def test_bump_derivative_consistent(self):
        phi = TestFunction.bump(0.0, 1.5)
        xs = np.linspace(-1.4, 1.4, 31)
        fd = (phi.phi(xs + 1e-6) - phi.phi(xs - 1e-6)) / 2e-6
        assert np.max(np.abs(phi.phi_prime(xs) - fd)) < 1e-6

    def test_nonvanishing_phi_rejected(self):
        with pytest.raises(DomainError):
            TestFunction(phi=np.cos, phi_prime=lambda x: -np.sin(x),
                         support=(-1.0, 1.0))

    def test_empty_support_rejected(self):
        with pytest.raises(DomainError):
            TestFunction(phi=lambda x: 0.0 * np.asarray(x, float),
                         phi_prime=lambda x: 0.0 * np.asarray(x, float),
                         support=(1.0, 1.0))

    def test_non_finite_data_rejected(self):
        """A nan or an overflow on the sample is refused, never warned of."""
        with pytest.raises(DomainError, match="not finite"):
            InitialDatum(u0=lambda x: 1e308 * np.asarray(x, float),
                         u0_prime=lambda x: np.full_like(x, 1e308))
        with pytest.raises(DomainError, match="not finite"):
            InitialDatum(u0=lambda x: np.asarray(x, float) + np.nan,
                         u0_prime=np.ones_like)
        for center, radius in [(np.nan, 1.0), (0.0, np.inf), (0.0, np.nan)]:
            with pytest.raises(DomainError, match="finite interval"):
                TestFunction.bump(center, radius)

    def test_wrong_derivative_rejected(self):
        with pytest.raises(DomainError):
            InitialDatum(u0=np.tanh, u0_prime=np.cosh)
