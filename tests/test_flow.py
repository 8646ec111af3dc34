"""Forward/backward characteristics, the Picard route, and field solutions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochtransport import (
    ConvergenceError,
    DomainError,
    ResolutionError,
    TimeGrid,
    drift_preset,
    generate,
    simulate_ensemble,
    simulate_fbm,
    simulate_hermite,
    HermiteSpec,
    flow,
)
from stochtransport.flow import (
    DriftField,
    backward_ensemble,
    backward_ensemble_trajectory,
    backward_flow,
    forward_ensemble,
    forward_flow,
    picard_solve,
)


def _zero():
    return DriftField(b=lambda t, x: 0.0 * np.asarray(x),
                      b_prime=lambda t, x: 0.0 * np.asarray(x),
                      sup_norm_b=0.0, sup_norm_bprime=0.0)


def _sine(amp=0.5):
    return DriftField(b=lambda t, x: amp * np.sin(x),
                      b_prime=lambda t, x: amp * np.cos(x),
                      sup_norm_b=amp, sup_norm_bprime=amp)


def _linear(c=-1.0):
    return DriftField(b=lambda t, x: c * np.asarray(x, dtype=float),
                      b_prime=lambda t, x: c + 0.0 * np.asarray(x),
                      sup_norm_b=abs(c) * 8.0, sup_norm_bprime=abs(c))


def _const(lam=0.8):
    return DriftField(b=lambda t, x: lam + 0.0 * np.asarray(x),
                      b_prime=lambda t, x: 0.0 * np.asarray(x),
                      sup_norm_b=abs(lam), sup_norm_bprime=0.0)


def _noise(n=1024, seed=7, path_id=3, H=0.7):
    grid = TimeGrid(T=1.0, n=n)
    return simulate_fbm(generate(grid, seed=seed, path_id=path_id), H)


def test_drift_field_validates_derivative():
    with pytest.raises(DomainError):
        DriftField(b=lambda t, x: np.sin(x),
                   b_prime=lambda t, x: np.sin(x),  # wrong on purpose
                   sup_norm_b=1.0, sup_norm_bprime=1.0)


def test_drift_field_validates_bounds():
    with pytest.raises(DomainError):
        DriftField(b=lambda t, x: np.sin(x), b_prime=lambda t, x: np.cos(x),
                   sup_norm_b=0.5, sup_norm_bprime=1.0)
    with pytest.raises(DomainError):
        DriftField(b=lambda t, x: np.sin(x), b_prime=lambda t, x: np.cos(x),
                   sup_norm_b=1.0, sup_norm_bprime=0.5)


@pytest.mark.parametrize("b, norms, why", [
    (np.sin, (float("nan"), 1.0), "sup norms"),
    (np.sin, (1.0, float("inf")), "sup norms"),
    (np.sin, (-1.0, 1.0), "sup norms"),
    (lambda x: np.sin(x) / (x - x), (1.0, 1.0), "not finite"),  # nan, inf
    (lambda x: 1e308 * np.exp(x), (1.0, 1.0), "not finite"),  # overflows
], ids=["nan-norm", "inf-norm", "negative-norm", "nan-b", "overflow"])
def test_drift_field_refuses_non_finite(b, norms, why):
    """Every construction check refuses a nan: a nan or infinite sup norm,
    or a drift that is nan or overflows on the sample."""
    with pytest.raises(DomainError, match=why):
        DriftField(b=lambda t, x: b(x), b_prime=lambda t, x: np.cos(x),
                   sup_norm_b=norms[0], sup_norm_bprime=norms[1])


def test_zero_drift_is_exact_translation():
    z = _noise()
    b = _zero()
    x = 0.7
    assert forward_flow(b, z, x, 0.0, 1.0) == x + (z.values[-1] - z.values[0])
    assert backward_flow(b, z, x, 0.25, 0.75) == x - (z.values[z.grid.index_of(0.75)] - z.values[z.grid.index_of(0.25)])


def test_identity_at_coincident_times():
    z = _noise()
    for b in (_zero(), _sine()):
        assert forward_flow(b, z, 1.3, 0.5, 0.5) == 1.3
        assert backward_flow(b, z, 1.3, 0.5, 0.5) == 1.3


def test_constant_drift_integrates_exactly():
    z = _noise()
    b = _const(0.8)
    x = 0.7
    got = forward_flow(b, z, x, 0.25, 1.0)
    want = x + 0.8 * 0.75 + (z.values[-1] - z.values[z.grid.index_of(0.25)])
    assert abs(got - want) < 1e-12


def test_linear_drift_against_variation_of_constants():
    """b = -x has the explicit solution x e^{-(t-s)} + int e^{-(t-u)} dZ_u;
    the rough integral is evaluated by summation by parts + trapezoid."""
    z = _noise()
    pts = z.grid.points
    x = 0.7
    integrand = z.values * np.exp(-(1.0 - pts))
    rough = z.values[-1] - np.exp(-1.0) * z.values[0] - np.trapezoid(integrand, pts)
    oracle = x * np.exp(-1.0) + rough
    got = forward_flow(_linear(-1.0), z, x, 0.0, 1.0)
    assert abs(got - oracle) < 20.0 * z.grid.dt**2


def test_forward_inverts_backward():
    z = _noise()
    for b in (_sine(), _linear(-1.0), _const(1.0)):
        for x in (-1.2, 0.0, 0.8):
            y = backward_flow(b, z, x, 0.0, 1.0)
            assert abs(forward_flow(b, z, y, 0.0, 1.0) - x) < 1e-10


def test_forward_cocycle():
    z = _noise()
    b = _sine()
    x = 0.4
    direct = forward_flow(b, z, x, 0.0, 1.0)
    via = forward_flow(b, z, forward_flow(b, z, x, 0.0, 0.5), 0.5, 1.0)
    assert abs(direct - via) < 1e-10


def test_rejects_reversed_time_order():
    z = _noise()
    with pytest.raises(DomainError):
        forward_flow(_zero(), z, 0.0, 0.75, 0.25)


@settings(max_examples=100, deadline=None)
@given(drift=st.sampled_from(["sine", "linear"]), slope=st.floats(-3.0, 3.0),
       n=st.integers(8, 256), q=st.sampled_from([1, 2]), data=st.data())
def test_forward_inverts_backward_property(drift, slope, n, q, data):
    """X_{s,t}(Y_{s,t}(x)) = x to solver tolerance for any on-grid s < t.

    sup|b'| (t - s) stays at most 3: the forward flow amplifies errors by up
    to e^{sup|b'| (t - s)}, so steeper drifts lose the round trip to that
    conditioning, not to the scheme.
    """
    b = drift_preset("sine", a=slope) if drift == "sine" \
        else drift_preset("linear", lam=abs(slope))
    grid = TimeGrid(T=1.0, n=n)
    ks = data.draw(st.integers(0, n - 1), label="ks")
    kt = data.draw(st.integers(ks + 1, n), label="kt")
    x = data.draw(st.floats(-3.0, 3.0), label="x")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    z = simulate_hermite(generate(grid, seed=seed, path_id=0),
                         HermiteSpec.create(q, 0.7))
    s, t = grid.points[ks], grid.points[kt]
    y = backward_flow(b, z, x, s, t)
    assert abs(forward_flow(b, z, y, s, t) - x) <= 1e-11 * (1.0 + abs(x))


def test_step_solver_reports_its_last_gap():
    """A step with no a-priori iteration count is refused before it runs."""
    grid = TimeGrid(T=1.0, n=2)
    z = simulate_fbm(generate(grid, seed=1, path_id=0), 0.7)
    # kappa = h/2 sup|b'| = 25 does not contract; kappa = 0.9 would need
    # about 300 iterations, above _STEP_MAX_ITER.
    for amp in (100.0, 3.6):
        with pytest.raises(ResolutionError, match="refine the grid"):
            forward_flow(_sine(amp), z, 0.3, 0.0, 1.0)
        with pytest.raises(ResolutionError):
            backward_ensemble(_sine(amp), grid, z.values[None, :], 0.3, 0.0, 1.0)


def _last_change(err) -> float:
    """The last change a ConvergenceError message reports."""
    return float(re.search(r"(?:changed by|last change) (\S+?)[ )]",
                           str(err.value)).group(1))


def test_declared_norms_wrong_off_the_sample_trip_the_step_guard():
    # b vanishes on the validation sample |x| <= 3 but reaches 8 at x = 6,
    # where the declared norms promise a contraction it does not have.
    def excess(x):
        return np.maximum(np.asarray(x) - 4.0, 0.0)

    bump = DriftField(b=lambda t, x: excess(x) ** 3,
                      b_prime=lambda t, x: 3.0 * excess(x) ** 2,
                      sup_norm_b=0.5, sup_norm_bprime=0.5)
    z = _noise(n=64)
    assert np.isfinite(forward_flow(bump, z, 0.0, 0.0, 1.0))  # stays where b = 0
    with pytest.raises(ConvergenceError) as err:
        forward_flow(bump, z, 6.0, 0.0, 1.0)
    assert 0.0 < _last_change(err) < np.inf


@settings(max_examples=40, deadline=None)
@given(drift=st.sampled_from(["sine", "linear"]), slope=st.floats(0.05, 3.0),
       n=st.integers(8, 128), q=st.sampled_from([1, 2]), data=st.data())
def test_ensemble_elements_do_not_depend_on_the_batch(drift, slope, n, q, data):
    """Each path's flow is the same to the bit alone, in any sub-batch and
    in any order: the step solver runs a fixed number of iterations."""
    b = drift_preset("sine", a=slope) if drift == "sine" \
        else drift_preset("linear", lam=slope)
    grid = TimeGrid(T=1.0, n=n)
    paths = 12
    seed = data.draw(st.integers(0, 2**32), label="seed")
    z = simulate_ensemble(grid, HermiteSpec.create(q, 0.7), seed, range(paths))
    ks = data.draw(st.integers(0, n - 1), label="ks")
    kt = data.draw(st.integers(ks + 1, n), label="kt")
    s, t = grid.points[ks], grid.points[kt]
    x = data.draw(st.floats(-3.0, 3.0), label="x")
    ids = np.array(data.draw(st.permutations(range(paths)), label="order"))
    sub = ids[:data.draw(st.integers(1, paths), label="size")]
    flows = {
        "backward": lambda zz: backward_ensemble(b, grid, zz, x, s, t),
        "forward": lambda zz: forward_ensemble(b, grid, zz, x, s, t),
        "trajectory":
            lambda zz: backward_ensemble_trajectory(b, grid, zz, x, s, t).T,
    }
    for name, flow in flows.items():
        full = flow(z)
        assert np.array_equal(flow(z[sub]), full[sub]), name
        for p in sub[:3]:
            assert np.array_equal(flow(z[p:p + 1])[0], full[p]), (name, p)


def test_trajectories_cover_grid():
    z = _noise(n=256)
    b = _sine()
    back = backward_ensemble_trajectory(b, z.grid, z.values[None], 0.3, 0.0,
                                        1.0)[:, 0]
    assert back.shape == (257,)
    assert back[-1] == 0.3
    assert back[0] == backward_flow(b, z, 0.3, 0.0, 1.0)


def test_zero_drift_trajectory_is_translated_noise():
    z = _noise(n=128)
    traj = backward_ensemble_trajectory(_zero(), z.grid, z.values[None], 0.5,
                                        0.0, 1.0)[:, 0]
    assert np.array_equal(traj, 0.5 - (z.values[-1] - z.values))


def test_picard_zero_drift_immediate():
    z = _noise(n=256)
    val, iters = picard_solve(_zero(), z, 0.4, 1.0, 0.75)
    want = 0.4 - (z.values[-1] - z.values[z.grid.index_of(0.25)])
    assert val == pytest.approx(want, abs=1e-14)
    assert iters <= 2


def test_picard_matches_backward_flow():
    z = _noise()
    x = 0.4
    for b in (_sine(), _linear(-1.0), _const(0.8)):
        for (s, t) in [(0.0, 1.0), (0.25, 0.75)]:
            val, _ = picard_solve(b, z, x, t, t - s, tol=1e-10)
            assert abs(val - backward_flow(b, z, x, s, t)) < 5e-9


def test_picard_iteration_count_in_contraction_regime():
    z = _noise()
    b = _sine(0.5)
    u = 0.75
    tol = 1e-10
    _, iters = picard_solve(b, z, 0.4, 1.0, u, tol=tol)
    bound = int(np.ceil(np.log(tol) / np.log(b.sup_norm_bprime * u))) + 1
    assert iters <= bound


def test_picard_argument_and_convergence_errors(monkeypatch):
    z = _noise(n=256)
    with pytest.raises(DomainError):
        picard_solve(_zero(), z, 0.0, 0.5, 0.75)
    monkeypatch.setattr(flow, "_PICARD_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(_sine(), z, 0.0, 1.0, 1.0, tol=1e-14)
    assert 1e-14 <= _last_change(err) < np.inf


def test_backward_trajectory_over_nodes_is_monotone_and_invertible():
    grid = TimeGrid(T=1.0, n=1024)
    b = _sine()
    nodes = np.linspace(-2.0, 2.0, 32)
    for pid in range(5):
        z = simulate_fbm(generate(grid, seed=11, path_id=pid), 0.7)
        traj = backward_ensemble_trajectory(b, grid, z.values[None], nodes,
                                            0.0, 1.0)
        assert traj.shape == (grid.n + 1, nodes.size)
        assert np.all(np.diff(traj, axis=1) > 0)
        assert np.array_equal(traj[-1], nodes)
        back = traj[0]  # Y_{0,1}(nodes)
        forward_again = np.array([forward_flow(b, z, y, 0.0, 1.0) for y in back])
        assert np.max(np.abs(forward_again - nodes)) < 10 * grid.dt


def test_ensemble_matches_pointwise_flows():
    grid = TimeGrid(T=1.0, n=256)
    spec = HermiteSpec.create(1, 0.7)
    Z = simulate_ensemble(grid, spec, seed=23, path_ids=range(6))
    b = _sine()
    x = 0.3
    fw = forward_ensemble(b, grid, Z, x, 0.0, 1.0)
    bw = backward_ensemble(b, grid, Z, x, 0.25, 1.0)
    for i in range(6):
        z = simulate_fbm(generate(grid, seed=23, path_id=i), 0.7)
        assert abs(fw[i] - forward_flow(b, z, x, 0.0, 1.0)) < 1e-12
        assert abs(bw[i] - backward_flow(b, z, x, 0.25, 1.0)) < 1e-12


def test_ensemble_trajectory_shape_and_anchor():
    grid = TimeGrid(T=1.0, n=128)
    spec = HermiteSpec.create(1, 0.8)
    Z = simulate_ensemble(grid, spec, seed=2, path_ids=range(4))
    traj = backward_ensemble_trajectory(_sine(), grid, Z, 0.1, 0.0, 1.0)
    assert traj.shape == (129, 4)
    assert np.all(traj[-1] == 0.1)
    # [s, t] holds rows index(s)..index(t) of the [0, t] march, to the bit
    window = backward_ensemble_trajectory(_sine(), grid, Z, 0.1, 0.25, 1.0)
    assert window.shape == (97, 4)
    assert np.array_equal(window, traj[32:])
    seen = []
    end = backward_ensemble_trajectory(
        _sine(), grid, Z, 0.1, 0.25, 1.0,
        visit=lambda i, y: seen.append((i, y.copy())))
    assert [i for i, _ in seen] == list(range(96, -1, -1))
    assert all(np.array_equal(y, window[i]) for i, y in seen)
    assert np.array_equal(end, window[0])
