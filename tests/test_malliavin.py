"""Tests for first-variation derivatives and the density diagnostics."""

import dataclasses
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from stochtransport import TimeGrid, generate, malliavin, noise, simulate_fbm
from stochtransport.errors import (
    DomainError,
    GridError,
    ResolutionError,
    SampleSizeError,
    UnsupportedOrderError,
)
from stochtransport.flow import (
    DriftField,
    _step_plan,
    backward_ensemble,
    backward_ensemble_trajectory,
    backward_flow,
)
from stochtransport.kernels import HermiteSpec, kernel_KH
from stochtransport.malliavin import (
    MalliavinPath,
    _cn_weights,
    dY_closed_form,
    dY_integral_eq,
    dY_profile,
    density_bound_check,
    density_report,
    dy_norm_ensemble,
    dz_hermite,
    dz_norm_ensemble,
    dz_table,
    increment_derivative,
    mt_diagnostic,
)
from stochtransport.noise import (
    _TRI_BLOCK,
    _TRI_CHUNK,
    _fbm_weights,
    lattice_variance,
    pair_matrix,
    simulate_ensemble,
    simulate_hermite,
)
from stochtransport.presets import DRIFT_PRESETS, drift_preset
from stochtransport.wiener import Perturbation, WienerLattice, generate_increments

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


def rank2_path(n=256, H=0.7, seed=5, path_id=0):
    grid = TimeGrid(T=1.0, n=n)
    w = generate(grid, seed=seed, path_id=path_id)
    return w, simulate_hermite(w, HermiteSpec.create(2, H))


def _row_weights(b, grid, rows, ks):
    """The flow weights of recorded flow rows Y_{r,t}(x), r = t_ks, ...:
    the slopes of all rows at once, turned into weights by _cn_weights."""
    times = grid.points[ks:ks + len(rows)].reshape((-1,) + (1,) * (rows.ndim - 1))
    return _cn_weights(np.array(np.broadcast_to(b.b_prime(times, rows),
                                                rows.shape)), grid.dt)


class TestMalliavinPath:
    def test_rows_and_validation(self):
        grid = TimeGrid(T=1.0, n=16)
        for size in (1, 16, 17):
            mp = MalliavinPath(grid=grid, values=np.ones(size))
            assert mp.values.shape == (size,) and not mp.values.flags.writeable
        for bad in (np.ones(0), np.ones(18), np.ones((4, 4))):
            with pytest.raises(DomainError):
                MalliavinPath(grid=grid, values=bad)


class TestDzFbm:
    """The continuum rank-1 derivative D_alpha Z_t = kernel_KH(t, alpha, H)."""

    def test_zero_beyond_t(self):
        assert kernel_KH(0.5, 0.5, 0.7) == 0.0
        assert kernel_KH(0.5, 0.9, 0.7) == 0.0

    def test_singularity_rejected(self):
        with pytest.raises(DomainError):
            kernel_KH(0.5, 0.0, 0.7)
        with pytest.raises(DomainError):
            kernel_KH(0.5, -0.1, 0.7)

    def test_value_is_the_kernel(self):
        """The lattice derivative is the kernel at alpha's step midpoint."""
        grid = TimeGrid(T=1.0, n=64)
        w = generate(grid, seed=2, path_id=0)
        a = int(0.3 // grid.dt)
        assert dz_hermite(w, 0.8125, 0.3, HermiteSpec.create(1, 0.65)) == \
            pytest.approx(kernel_KH(0.8125, grid.midpoints[a], 0.65), rel=1e-15)

    def test_squared_integral_is_variance(self):
        """The L^2 norm of the derivative must reproduce Var = t^{2H}."""
        val, _ = quad(lambda a: kernel_KH(1.0, a, 0.7) ** 2, 1e-9, 1.0, limit=200)
        assert abs(val - 1.0) < 5e-9  # 7.9e-10 seen, mostly the (0, 1e-9) cut

    def test_perturbation_oracle(self):
        grid = TimeGrid(T=1.0, n=512)
        w = generate(grid, seed=21, path_id=0)
        H, t, delta = 0.7, 1.0, 1e-4
        z = simulate_fbm(w, H)
        p = Perturbation(a=0.3, b=0.5, delta=delta)
        zp = simulate_fbm(p.perturb(w), H)
        k = grid.index_of(t)
        quot = (zp.values[k] - z.values[k]) / delta
        integral, _ = quad(lambda a: kernel_KH(t, a, H), 0.3, 0.5, limit=100)
        assert abs(quot - integral) / abs(integral) < 1e-2


class TestDzHermite:
    def test_zero_beyond_t(self):
        w, _ = rank2_path(n=64)
        assert dz_hermite(w, 0.5, 0.75, HermiteSpec.create(2, 0.7)) == 0.0

    @pytest.mark.parametrize("t", [1.7, 0.5 + 1e-3], ids=["past-T", "off-lattice"])
    def test_time_off_the_grid_is_refused(self, t):
        """t is checked before the alpha >= t shortcut can answer 0."""
        w, _ = rank2_path(n=64)
        with pytest.raises(GridError):
            dz_hermite(w, t, t + 0.1, HermiteSpec.create(2, 0.7))

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedOrderError):
            HermiteSpec(q=3, H=0.7, hp=0.9, c=1.0, d=1.0)

    @pytest.mark.parametrize("q", [1, 2])
    def test_matches_table(self, q):
        """The derivative is the table entry of alpha's step, off midpoints too."""
        grid = TimeGrid(T=1.0, n=256)
        w = generate(grid, seed=5, path_id=0)
        Z = simulate_hermite(w, HermiteSpec.create(q, 0.7))
        G = dz_table(Z)
        for t, a in [(0.5, 30), (1.0, 99), (0.75, 7)]:
            alpha = grid.points[a] + 0.25 * grid.dt
            assert dz_hermite(w, t, alpha, Z.spec) == pytest.approx(
                G[grid.index_of(t), a], rel=1e-12)


class TestDzTable:
    # n < 4 and windows l < 4 alone, one partial block of 16 windows, and
    # several blocks with a partial last one
    NS = (2, 3, 5, 17, 100)

    def test_rank2_matches_pair_matrix(self):
        """The window pass must rebuild 2 d Lambda dW at every grid index."""
        for n in self.NS:
            w, Z = rank2_path(n=n)
            G = dz_table(Z)
            grid = Z.grid
            for k, t in enumerate(grid.points):
                lam = pair_matrix(grid, Z.spec, t)
                direct = 2.0 * Z.spec.d * (lam @ w.increments)
                assert np.allclose(G[k], direct, atol=1e-12), (n, k)

    def test_adaptedness_exact(self):
        for n in self.NS:
            _, Z = rank2_path(n=n)
            G = dz_table(Z)
            for k in range(n + 1):
                assert np.all(G[k, k:] == 0.0), (n, k)

    def test_rank1_rows_are_kernel_values(self):
        grid = TimeGrid(T=1.0, n=128)
        w = generate(grid, seed=2, path_id=0)
        Z = simulate_fbm(w, 0.7)
        G = dz_table(Z)
        k = grid.index_of(0.5)
        for a in (3, 20, 60):
            assert G[k, a] == pytest.approx(kernel_KH(0.5, grid.midpoints[a], 0.7),
                                            rel=1e-15)


class TestCameronMartin:
    def test_rank1_quotient_closes_exactly(self):
        """Linear functional: the quotient is independent of delta."""
        grid = TimeGrid(T=1.0, n=256)
        w = generate(grid, seed=9, path_id=0)
        Z = simulate_fbm(w, 0.7)
        G = dz_table(Z)
        kt = grid.index_of(1.0)
        p = Perturbation(a=0.25, b=0.75, delta=1e-3)
        zp = simulate_fbm(p.perturb(w), 0.7)
        quot = (zp.values[kt] - Z.values[kt]) / p.delta
        integral = float(np.sum(G[kt, p.step_mask(grid)]) * grid.dt)
        assert abs(quot - integral) < 1e-9

    def test_rank2_quotient_is_first_order(self):
        """Quadratic functional: the remainder is exactly linear in delta."""
        w, Z = rank2_path()
        G = dz_table(Z)
        kt = Z.grid.index_of(1.0)
        errs = []
        for delta in (1e-3, 1e-4):
            p = Perturbation(a=0.25, b=0.5, delta=delta)
            zp = simulate_hermite(p.perturb(w), Z.spec)
            quot = (zp.values[kt] - Z.values[kt]) / delta
            integral = float(np.sum(G[kt, p.step_mask(Z.grid)]) * Z.grid.dt)
            errs.append(abs(quot - integral))
        assert 5.0 < errs[0] / errs[1] < 20.0

    def test_flow_derivative_end_to_end(self):
        w, Z = rank2_path()
        s, t, x, delta = 0.25, 1.0, 0.3, 1e-4
        prof = dY_profile(SINE, Z, s, t, x)
        p = Perturbation(a=0.4, b=0.6, delta=delta)
        zp = simulate_hermite(p.perturb(w), Z.spec)
        quot = (backward_flow(SINE, zp, x, s, t)
                - backward_flow(SINE, Z, x, s, t)) / delta
        integral = float(np.sum(prof.values[p.step_mask(Z.grid)]) * Z.grid.dt)
        assert abs(quot - integral) / abs(integral) < 3e-2


class TestIsometry:
    def test_rank1_deterministic(self):
        grid = TimeGrid(T=1.0, n=1024)
        spec = HermiteSpec.create(1, 0.7)
        for t in (0.5, 1.0):
            val = float(dz_norm_ensemble(grid, spec, np.zeros((1, 1024)), t)[0])
            assert val == pytest.approx(lattice_variance(grid, spec, t), rel=1e-12)
            assert abs(val - t**1.4) < 0.01

    def test_rank2_matches_lattice_identity(self):
        """E ||DZ_t||^2 = 2 Var of the lattice process, exactly in law."""
        grid = TimeGrid(T=1.0, n=256)
        spec = HermiteSpec.create(2, 0.7)
        dW = generate_increments(grid, 77, range(400))
        nsq = dz_norm_ensemble(grid, spec, dW, 1.0)
        target = 2.0 * lattice_variance(grid, spec, 1.0)
        se = float(np.std(nsq)) / np.sqrt(nsq.size)
        assert abs(float(np.mean(nsq)) - target) < 3 * se

    def test_table_route_agrees_with_gemm_route(self):
        w, Z = rank2_path(n=128)
        G = dz_table(Z)
        kt = Z.grid.index_of(1.0)
        direct = dz_norm_ensemble(Z.grid, Z.spec, w.increments[None, :], 1.0)[0]
        assert float(np.sum(G[kt] ** 2) * Z.grid.dt) == pytest.approx(direct, rel=1e-10)


class TestDyRoutes:
    def test_zero_drift_is_noise_increment(self):
        """Two special cases of the one derivative formula, which every
        route reaches through its general flow weights, exactly: a zero
        drift gives D Y_{s,t} = DZ(s) = -(G[kt] - G[ks]), and an empty
        window s = t gives D Y_{t,t} = 0 for every drift (== does not tell
        the signed zeros apart)."""
        grid = TimeGrid(T=1.0, n=256)
        w = generate(grid, seed=5, path_id=0)
        alpha = grid.midpoints[100]
        for q in (1, 2):
            Z = simulate_hermite(w, HermiteSpec.create(q, 0.7))
            DZ = increment_derivative(Z)
            G = dz_table(Z)
            for s, t in [(0.25, 1.0), (0.0, 0.5), (0.375, 0.4375)]:
                ks, kt = grid.index_of(s), grid.index_of(t)
                prof = dY_profile(ZERO, Z, s, t, 0.3)
                assert np.array_equal(prof.values, -(G[kt] - G[ks]))
                assert dY_closed_form(ZERO, Z, DZ, s, t, alpha, 0.3) == \
                    float(DZ(s, t, alpha))
                ie = dY_integral_eq(ZERO, Z, DZ, t, alpha, 0.3)
                assert np.array_equal(ie.values,
                                      DZ(grid.points[kt::-1], t, alpha))
            for name in DRIFT_PRESETS:
                b = drift_preset(name)
                for t in (0.0, 0.5, 1.0):
                    prof = dY_profile(b, Z, t, t, 0.3)
                    assert np.array_equal(prof.values, np.zeros(grid.n))
                    assert dY_closed_form(b, Z, DZ, t, t, alpha, 0.3) == 0.0
                ie = dY_integral_eq(b, Z, DZ, 0.0, alpha, 0.3)
                assert np.array_equal(ie.values, [0.0])

    def test_alpha_beyond_t_is_zero(self):
        _, Z = rank2_path()
        DZ = increment_derivative(Z)
        assert dY_closed_form(SINE, Z, DZ, 0.25, 0.5, 0.75, 0.3) == 0.0
        prof = dY_profile(SINE, Z, 0.25, 0.5, 0.3)
        k = Z.grid.index_of(0.5)
        assert np.all(prof.values[k:] == 0.0)

    def test_closed_form_equals_volterra(self):
        """Both routes solve one discrete system: agreement to roundoff."""
        _, Z = rank2_path()
        DZ = increment_derivative(Z)
        grid = Z.grid
        rng = np.random.default_rng(3)
        for _ in range(6):
            ks = int(rng.integers(0, 128))
            kt = int(rng.integers(ks + 8, 256))
            s, t = grid.points[ks], grid.points[kt]
            alpha = float(rng.uniform(0.0, t))
            x = float(rng.uniform(-1.0, 1.0))
            cf = dY_closed_form(SINE, Z, DZ, s, t, alpha, x)
            ie = dY_integral_eq(SINE, Z, DZ, t, alpha, x)
            assert abs(cf - ie.values[kt - ks]) < 5e-9 * (1.0 + abs(cf))

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("s", [0.0, 0.25])
    def test_profile_equals_closed_form(self, q, s):
        """One set of flow weights behind both: agreement to roundoff."""
        grid = TimeGrid(T=1.0, n=128)
        w = generate(grid, seed=5, path_id=0)
        Z = simulate_hermite(w, HermiteSpec.create(q, 0.7))
        DZ = increment_derivative(Z)
        t = 1.0
        prof = dY_profile(SINE, Z, s, t, 0.3)
        for a in range(grid.index_of(t)):
            cf = dY_closed_form(SINE, Z, DZ, s, t, grid.midpoints[a], 0.3)
            v = prof.values[a]
            assert abs(v - cf) <= 1e-12 * (1.0 + abs(v)), a

    def test_time_order_enforced(self):
        _, Z = rank2_path()
        DZ = increment_derivative(Z)
        with pytest.raises(DomainError):
            dY_closed_form(SINE, Z, DZ, 1.0, 0.5, 0.3, 0.3)

    def test_lattice_times_follow_index_of(self):
        """DZ takes a window start u as a lattice time exactly when
        TimeGrid.index_of does: within 1e-9 max(1, T) of a grid point."""
        grid = TimeGrid(T=2.0, n=1024)
        DZ = increment_derivative(simulate_fbm(generate(grid, seed=3), 0.7))
        near, off = 0.5 + 1.5e-9, 0.5 + 3e-9  # tolerance 2e-9 here
        assert grid.index_of(near) == 256
        assert DZ(near, 1.0, 0.1) == DZ(0.5, 1.0, 0.1)
        assert np.array_equal(DZ(np.array([near, 0.25]), 1.0, 0.1),
                              DZ(np.array([0.5, 0.25]), 1.0, 0.1))
        with pytest.raises(GridError):
            grid.index_of(off)
        with pytest.raises(DomainError):
            DZ(off, 1.0, 0.1)


class TestDyNormEnsemble:
    """The ensemble norms against the per-path routes and dense formulas."""

    @pytest.mark.parametrize("drift, s, t", [
        (SINE, 0.0, 1.0),
        (SINE, 0.25, 0.75),
        (ZERO, 0.25, 0.75),
        (SINE, 0.5, 0.5),
        # window range [19, 57): not a multiple of the window block
        (SINE, 0.296875, 0.890625),
        (ZERO, 0.296875, 0.890625),
        (drift_preset("constant"), 0.25, 0.75),
    ])
    def test_rank2_matches_profile_route(self, drift, s, t):
        grid = TimeGrid(T=1.0, n=64)
        spec = HermiteSpec.create(2, 0.7)
        seed, paths, x = 13, 6, 0.3
        dW = generate_increments(grid, seed, range(paths))
        z = simulate_ensemble(grid, spec, seed, range(paths))
        got = dy_norm_ensemble(drift, grid, spec, z, s, t, x, dW=dW)
        for p in range(paths):
            w = WienerLattice(grid=grid, seed=seed, path_id=p, increments=dW[p])
            Z = simulate_hermite(w, spec)
            v = dY_profile(drift, Z, s, t, x).values
            want = np.sum(v * v) * grid.dt
            if s == t:
                assert got[p] == want == 0.0
            else:
                assert got[p] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_zero_drift_at_s_zero_is_dz_norm_to_the_bit(self, q, t):
        """D Y_{0,t} = -D Z_t for a zero drift, and both norms take the
        one noise-increment route, so they agree bit for bit."""
        grid = TimeGrid(T=1.0, n=64)
        spec = HermiteSpec.create(q, 0.7)
        z, dW = simulate_ensemble(grid, spec, 13, range(9), driver=True)
        for drift in (ZERO, drift_preset("constant")):
            assert np.array_equal(
                dy_norm_ensemble(drift, grid, spec, z, 0.0, t, 0.3, dW=dW),
                dz_norm_ensemble(grid, spec, dW, t))

    @pytest.mark.parametrize("s, t", [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5)])
    def test_rank2_zero_slope_makes_no_window_pass(self, monkeypatch, s, t):
        """A drift declaring sup|b'| = 0, or an empty window s = t for any
        drift, reads the pair matrices, never the window loop; the zero
        and constant drifts share that route to the bit."""
        grid = TimeGrid(T=1.0, n=64)
        spec = HermiteSpec.create(2, 0.7)
        z, dW = simulate_ensemble(grid, spec, 13, range(6), driver=True)

        def refuse(*args):
            raise AssertionError("window pass")
        monkeypatch.setattr(noise, "_window_blocks", refuse)
        zero, const = (dy_norm_ensemble(b, grid, spec, z, s, t, 0.3, dW=dW)
                       for b in (ZERO, drift_preset("constant")))
        assert np.array_equal(zero, const)
        if s == t:
            assert np.array_equal(zero, np.zeros(6))
            assert np.array_equal(
                dy_norm_ensemble(SINE, grid, spec, z, s, t, 0.3, dW=dW), zero)
        else:
            assert np.all(zero > 0.0)

    @pytest.mark.parametrize("q", [1, 2])
    def test_precomputed_flow_is_used_and_validated(self, q):
        grid = TimeGrid(T=1.0, n=64)
        spec = HermiteSpec.create(q, 0.7)
        seed, paths, s, t, x = 13, 6, 0.25, 0.75, 0.3
        ks, kt = grid.index_of(s), grid.index_of(t)
        dW = generate_increments(grid, seed, range(paths)) if q == 2 else None
        z = simulate_ensemble(grid, spec, seed, range(paths))
        traj = backward_ensemble_trajectory(SINE, grid, z, x, 0.0, t)

        def norms(rows):
            cw = None if rows is None else \
                _row_weights(SINE, grid, rows[ks:kt + 1], ks)
            return dy_norm_ensemble(SINE, grid, spec, z, s, t, x, dW=dW,
                                    flow_weights=cw)

        assert np.array_equal(norms(traj), norms(None))
        # built slice by slice, the weights give the same norms to the bit
        halves = np.hstack([_row_weights(SINE, grid, traj[ks:kt + 1, sl], ks)
                            for sl in (slice(0, 2), slice(2, paths))])
        assert np.array_equal(
            dy_norm_ensemble(SINE, grid, spec, z, s, t, x, dW=dW,
                             flow_weights=halves), norms(None))
        moved = traj.copy()
        moved[:-1] += 0.5
        assert not np.allclose(norms(moved), norms(traj))
        with pytest.raises(DomainError):
            norms(traj[:, :3])  # not one column per path
        with pytest.raises(DomainError):  # rows of [0, t], not [s, t]
            dy_norm_ensemble(SINE, grid, spec, z, s, t, x, dW=dW,
                             flow_weights=_row_weights(SINE, grid, traj, 0))

    def test_weight_march_covers_only_its_window(self):
        """At s > 0 the flow weights evaluate the drift on the steps of
        [s, t] alone, and their omega are rows index(s)..index(t) of the
        weights of the [0, t] march, to the bit."""
        grid = TimeGrid(T=1.0, n=128)
        spec = HermiteSpec.create(1, 0.7)
        s, t, x = 0.25, 0.75, 0.3
        ks, kt = grid.index_of(s), grid.index_of(t)
        z = simulate_ensemble(grid, spec, 13, range(9))
        times = []

        def counted(u, y):
            times.append(u)
            return SINE.b(u, y)
        drift = dataclasses.replace(SINE, b=counted)
        times.clear()  # drop the DriftField's validation calls
        got = dy_norm_ensemble(drift, grid, spec, z, s, t, x)
        iterations = _step_plan(SINE, -grid.dt)[0]
        assert len(times) == (kt - ks) * (1 + iterations)
        assert s <= min(times) and max(times) <= t
        traj = backward_ensemble_trajectory(SINE, grid, z, x, 0.0, t)
        w = _row_weights(SINE, grid, traj[ks:kt + 1], ks)
        y, omega = malliavin._ensemble_weights(drift, grid, z, x, s, t)
        assert np.array_equal(omega, w)
        assert np.array_equal(y, traj[ks])
        assert np.array_equal(got, dy_norm_ensemble(SINE, grid, spec, z, s, t,
                                                    x, flow_weights=w))

    @pytest.mark.parametrize("paths", [1, 255, 256, 257, 515, 1031])
    @pytest.mark.parametrize("drift", [SINE, ZERO], ids=["sine", "zero"])
    @pytest.mark.parametrize("s", [0.0, 0.25])
    def test_rank1_blocks_equal_the_dense_formula(self, paths, drift, s):
        # n = 320: two full blocks of 128 steps and a ragged one, and 1031
        # paths a full chunk and 7 more; the blocked products round
        # differently from the dense ones
        grid = TimeGrid(T=1.0, n=2 * _TRI_BLOCK + 64)
        spec = HermiteSpec.create(1, 0.7)
        t, x = 0.75, 0.3
        ks, kt = grid.index_of(s), grid.index_of(t)
        z = simulate_ensemble(grid, spec, 13, range(paths))
        traj = backward_ensemble_trajectory(drift, grid, z, x, 0.0, t)
        w = _row_weights(drift, grid, traj[ks:kt + 1], ks)
        G = np.zeros((grid.n + 1, grid.n))
        G[1:] = _fbm_weights(grid, spec)
        V = w.T @ G[ks:kt + 1]
        want = np.sum(V * V, axis=1) * grid.dt
        got = dy_norm_ensemble(drift, grid, spec, z, s, t, x)
        assert got.shape == (paths,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @settings(max_examples=10, deadline=None)
    @given(chunks=st.integers(1, 2), tails=st.lists(
        st.builds(lambda j, r: 8 * j + r,
                  st.integers(0, _TRI_CHUNK // 8 - 1), st.sampled_from([0, 1, 7])),
        min_size=2, max_size=2, unique=True))
    @example(chunks=1, tails=[0, 7])  # nothing, or fewer than 8 paths, follow
    @example(chunks=1, tails=[1, 1023])  # 1025 and 2047 paths
    def test_rank1_complete_chunks_do_not_depend_on_what_follows(self, chunks,
                                                                  tails):
        """The paths of complete _TRI_CHUNK chunks get the same bits from
        simulate_ensemble and dy_norm_ensemble whichever partial chunk
        follows them: none, fewer than 8 paths, or a count = 1 or 7 mod 8.
        Chunked runs are compared with each other, never with one product
        over all paths, whose rounding depends on the BLAS."""
        grid = TimeGrid(T=1.0, n=_TRI_BLOCK + 32)  # a full block and a ragged one
        spec = HermiteSpec.create(1, 0.7)
        head = chunks * _TRI_CHUNK
        runs = []
        for tail in tails:
            z = simulate_ensemble(grid, spec, 21, range(head + tail))
            norms = dy_norm_ensemble(SINE, grid, spec, z, 0.25, 1.0, 0.3)
            runs.append((z[:head].copy(), norms[:head]))
        (z0, n0), (z1, n1) = runs
        assert np.array_equal(z0, z1)
        assert np.array_equal(n0, n1)


def _cw_reference(a):
    """The unsigned weights cw[r] = a[r] (P[r] [r < m] + P[r-1] [r >= 1])
    of the form D = h[0] - cw @ h, a = dt gam / 2, by the recursion of
    that form: run = 2 P[r-1], f = a / (1 + a), d / c = 1 - 2 f."""
    m, run = a.size - 1, 1.0
    cw = np.empty(m + 1)
    for r in range(m + 1):
        f = a[r] / (a[r] + 1.0)
        cw[r] = run * (f if r < m else 0.5 * a[r])
        run = run * (1.0 - 2.0 * f) if r else 2.0 - 2.0 * f
    return cw


class TestCnDuhamelWeights:
    """The signed calendar-order weights against the Volterra recursion."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 200), bound=st.floats(0.0, 0.99),
           seed=st.integers(0, 2**32 - 1))
    def test_reproduce_forward_substitution(self, m, bound, seed):
        rng = np.random.default_rng(seed)
        dt = 1.0 / m
        gam = rng.uniform(-bound, bound, m + 1) / dt  # dt |gam| < 1
        h = rng.normal(size=m + 1)
        # h[m] = DZ(t) = 0: the window increment of every caller vanishes
        # at its anchor t (adaptedness), the D[0] = h[0] = 0 of
        # dY_integral_eq; the signed weights assume it and never read gam[m]
        h[m] = 0.0
        # forward substitution of D_j = h_j - dt * trap(gam * D)_j on the
        # reversed clock j = m - r, from t (r = m) back to s (r = 0)
        g, f = gam[::-1], h[::-1]
        D = np.empty(m + 1)
        D[0] = f[0]
        running = 0.5 * g[0] * D[0]
        for j in range(1, m + 1):
            D[j] = (f[j] - dt * running) / (1.0 + 0.5 * dt * g[j])
            running += g[j] * D[j]
        w = _cn_weights(gam.copy(), dt)
        # roundoff of the sum is relative to the size of its terms, which
        # the Crank-Nicolson factors amplify where gam < 0
        scale = abs(h[0]) + float(np.abs(w) @ np.abs(h))
        assert abs(w @ h - D[m]) <= 1e-12 * scale

    @pytest.mark.parametrize("gamma, m", [(0.5, 1), (0.5, 64), (3.0, 256)])
    def test_constant_rate_weights_are_positive_and_grow(self, gamma, m):
        """The end weights are P[0] > 0 and -P[m-1] < 0; the interior
        weights are negative, and their sizes grow toward the anchor s."""
        dt = 1.0 / m
        w = _cn_weights(np.full(m + 1, gamma), dt)
        # interior weights -dt gamma r^(i-1) / c^2 with c = 1 + dt gamma / 2
        # and r = (1 - dt gamma / 2) / c < 1
        c = 1.0 + 0.5 * dt * gamma
        r = (1.0 - 0.5 * dt * gamma) / c
        interior = dt * gamma * r ** (np.arange(1, m) - 1) / c**2
        assert w[0] == pytest.approx(1.0 / c, rel=1e-12)
        assert w[m] == pytest.approx(-r ** (m - 1) / c, rel=1e-12)
        assert np.all(w[1:m] < 0.0)
        assert np.allclose(-w[1:m], interior, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(w[1:m]) > 0.0)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 1024), frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(m=1, frac=1.0, seed=0)
    @example(m=1024, frac=1.0, seed=1)
    def test_bracket_is_the_last_weight(self, m, frac, seed):
        """2 + (1 - a[m]) omega[m] equals the bracket 1 + sum(cw) of the
        unsigned weights, and the signed weights sum to zero, for
        |a| = |dt gam / 2| <= min(0.5, 8 / m), where the factor is finite."""
        dt = 1.0 / m
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, m + 1) \
            * frac * min(0.5, 8.0 / m)
        w = _cn_weights(2.0 * a / dt, dt)
        cw = _cw_reference(a)
        bracket = 2.0 + (1.0 - a[m]) * w[m]
        assert abs(bracket - (1.0 + cw.sum())) <= 1e-13 * (1.0 + np.abs(cw).sum())
        assert abs(w.sum()) <= 1e-13 * np.abs(w).sum()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 40), paths=st.integers(1, 6),
           block=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_row_blocks_do_not_move_a_bit(self, m, paths, block, seed):
        """The recursion gives the same bits for any number of rows per
        block."""
        dt = 1.0 / m
        gam = np.random.default_rng(seed).uniform(-1.9, 1.9, (m + 1, paths)) / dt
        want = _cn_weights(gam.copy(), dt)
        with mock.patch.object(malliavin, "_CN_BLOCK", block):
            got = _cn_weights(gam.copy(), dt)
        assert np.array_equal(got, want)

    def test_refused_only_where_the_factor_is_undefined(self):
        dt = 0.01
        gam = np.full((9, 2), 1.0)
        gam[4, 1] = -1.9 / dt  # 1 + dt gam / 2 = 0.05 > 0: defined
        assert np.all(np.isfinite(_cn_weights(gam.copy(), dt)))
        gam[4, 1] = -2.0 / dt  # 1 + dt gam / 2 = 0
        with pytest.raises(ResolutionError):
            _cn_weights(gam, dt)


class TestMtDiagnostic:
    def test_rank1_dominated_by_full_window(self):
        grid = TimeGrid(T=1.0, n=256)
        spec = HermiteSpec.create(1, 0.7)
        val = mt_diagnostic(grid, spec)
        assert val == pytest.approx(lattice_variance(grid, spec, 1.0), rel=1e-12)

    def test_rank2_dominated_by_full_window(self):
        grid = TimeGrid(T=1.0, n=128)
        spec = HermiteSpec.create(2, 0.8)
        val = mt_diagnostic(grid, spec)
        assert val == pytest.approx(2.0 * lattice_variance(grid, spec, 1.0),
                                    rel=1e-12)


class TestBoundCheck:
    def test_zero_drift_bracket_is_one(self):
        grid = TimeGrid(T=1.0, n=128)
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=9,
                              path_ids=range(120))
        rep = density_bound_check(ZERO, grid, z, 0.0, 1.0, 0.3)
        assert np.all(rep.brackets == 1.0) and rep.passed

    @pytest.mark.parametrize("m", [0.5, -0.5])
    def test_constant_slope_closed_form(self, m):
        """b' = m constant gives bracket 2 - e^{-m(t-s)} on every path."""
        grid = TimeGrid(T=1.0, n=256)
        bm = DriftField(
            b=lambda t, x, m=m: m * np.asarray(x, dtype=float),
            b_prime=lambda t, x, m=m: m + 0.0 * np.asarray(x, dtype=float),
            sup_norm_b=5.0, sup_norm_bprime=abs(m))
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=9,
                              path_ids=range(110))
        rep = density_bound_check(bm, grid, z, 0.0, 1.0, 0.3)
        oracle = 2.0 - np.exp(-m)
        assert np.max(np.abs(rep.brackets - oracle)) < 1e-6
        assert rep.passed == (m > 0)

    @pytest.mark.parametrize("lam", [0.15, 0.5])
    def test_linear_drift_bracket_is_the_discrete_factor(self, lam):
        """b' = -lam: the bracket telescopes to 2 - ((1 + h)/(1 - h))^m,
        h = dt lam / 2, evaluated here in exact rational arithmetic."""
        grid = TimeGrid(T=1.0, n=256)
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=9,
                              path_ids=range(110))
        rep = density_bound_check(drift_preset("linear", lam=lam), grid, z,
                                  0.0, 1.0, 0.3)
        h = Fraction(grid.dt * lam / 2)
        oracle = float(2 - ((1 + h) / (1 - h)) ** grid.n)
        assert np.max(np.abs(rep.brackets - oracle)) <= 1e-14

    def test_sine_drift_clears_floor(self):
        grid = TimeGrid(T=1.0, n=256)
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=13,
                              path_ids=range(150))
        rep = density_bound_check(SINE, grid, z, 0.0, 1.0, 0.0)
        assert rep.passed
        assert rep.min_bracket > rep.floor_universal
        assert rep.min_bracket > rep.floor_condition

    def test_traced_peak_is_a_few_path_vectors(self):
        """The check keeps one running factor per path and marches only
        [s, t]: its traced peak above its input is a few (paths,) vectors,
        not a trajectory.  Measured 0.044 noise arrays at n = 256 and 1,000
        paths (11 such vectors: the factor, the march state, its two-row
        right side, increment, carry and step temporaries); the bound is
        16 vectors, 0.062 arrays.  Recording the trajectory and its
        weights, as the check once did, peaked at 1.09 arrays here."""
        import tracemalloc

        grid = TimeGrid(T=1.0, n=256)
        paths = 1000
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=17,
                              path_ids=range(paths))
        density_bound_check(SINE, grid, z[:100], 0.0, 1.0, 0.0)  # warm
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = density_bound_check(SINE, grid, z, 0.0, 1.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rep.brackets.shape == (paths,)
        assert peak <= 16 * 8 * paths

    def test_sample_size_and_shape(self):
        grid = TimeGrid(T=1.0, n=64)
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=1,
                              path_ids=range(10))
        with pytest.raises(SampleSizeError):
            density_bound_check(ZERO, grid, z, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            density_bound_check(ZERO, grid, z[:, :10], 0.0, 1.0, 0.0)


def _density_gates(rep) -> bool:
    """The density runner's three gates: KDE mass, atoms, positive norms."""
    return (rep.mass_ok and rep.max_cdf_jump <= rep.atom_bound
            and rep.min_norm_sq > 0.0)


class TestDensityReport:
    def test_gaussian_control(self):
        """Drift-free identity datum: u(1, x) - x is exactly -Z_1."""
        grid = TimeGrid(T=1.0, n=256)
        spec = HermiteSpec.create(1, 0.7)
        z = simulate_ensemble(grid, spec, seed=31, path_ids=range(1200))
        y = backward_ensemble(ZERO, grid, z, 0.0, 0.0, 1.0)
        norms = dy_norm_ensemble(ZERO, grid, spec, z, 0.0, 1.0, 0.0)
        rep = density_report(y, norms)
        assert _density_gates(rep) and 0.99 <= rep.mass <= 1.01
        assert rep.max_cdf_jump <= 3.0 / np.sqrt(1200)
        assert rep.min_norm_sq > 0
        sd = np.sqrt(lattice_variance(grid, spec, 1.0))
        assert kstest(y, "norm", args=(0.0, sd)).pvalue > 0.01

    def test_atoms_are_flagged(self):
        rng = np.random.default_rng(4)
        samples = np.round(rng.standard_normal(1500))  # heavy ties
        rep = density_report(samples, np.ones(1500))
        assert rep.max_cdf_jump > 3.0 / np.sqrt(1500)
        assert not _density_gates(rep)

    @pytest.mark.parametrize("samples", [
        np.zeros(1000),
        np.r_[np.zeros(999), 1e-200],  # its variance underflows to zero
    ], ids=["constant", "underflow"])
    def test_sample_without_spread_fails_its_gates(self, samples):
        """The purest atom has no KDE bandwidth: the report carries no
        density table and zero mass, so the atom and mass gates fail."""
        rep = density_report(samples, np.ones(1000))
        assert rep.max_cdf_jump > rep.atom_bound
        assert rep.mass == 0.0 and not rep.mass_ok and not _density_gates(rep)
        assert rep.x_grid.size == rep.density.size == 0

    def test_mass_outside_range_fails(self):
        rng = np.random.default_rng(8)
        rep = density_report(rng.standard_normal(1200), np.ones(1200))
        assert rep.mass_ok and _density_gates(rep)
        lost = dataclasses.replace(rep, mass=0.95)
        assert not lost.mass_ok and not _density_gates(lost)

    def test_vanishing_norm_fails(self):
        rng = np.random.default_rng(5)
        norms = np.ones(1200)
        norms[7] = 0.0
        rep = density_report(rng.standard_normal(1200), norms)
        assert rep.min_norm_sq == 0.0 and not _density_gates(rep)

    def test_input_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(SampleSizeError):
            density_report(rng.standard_normal(50), np.ones(50))
        with pytest.raises(DomainError):
            density_report(rng.standard_normal(1200), np.ones(7))
        with pytest.raises(DomainError):
            density_report(rng.standard_normal(1200), -np.ones(1200))
