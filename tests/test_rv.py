"""Mollified integrals, brackets, and the vanishing-QV certificate."""

import numpy as np
import pytest

from stochtransport import (
    DomainError,
    HermiteSpec,
    ResolutionError,
    SampleSizeError,
    TimeGrid,
    generate,
    simulate_ensemble,
    simulate_fbm,
)
from stochtransport.rv import (
    EpsilonSchedule,
    _eps_steps,
    covariation_eps,
    qv_certificate,
    symmetric_integral_eps,
)


def _wiener_matrix(grid, seed, paths):
    out = np.zeros((paths, grid.n + 1))
    for i in range(paths):
        out[i, 1:] = np.cumsum(generate(grid, seed=seed, path_id=i).increments)
    return out


def test_schedule_dyadic_defaults():
    grid = TimeGrid(T=1.0, n=1024)
    sched = EpsilonSchedule.dyadic(grid)
    assert len(sched) == 6
    assert sched.values[0] == 0.125
    assert sched.values[-1] == 2.0**-8
    assert np.all(np.diff(sched.values) < 0)


def test_schedule_rejects_bad_ladders():
    grid = TimeGrid(T=1.0, n=16)
    with pytest.raises(ResolutionError):
        EpsilonSchedule.dyadic(grid, 3, 4)  # T/16 = dt < 2*dt
    with pytest.raises(DomainError):
        EpsilonSchedule(values=np.array([0.1, 0.2]))
    with pytest.raises(DomainError):
        EpsilonSchedule(values=np.array([0.1, -0.05]))


@pytest.mark.parametrize("values", [[np.nan], [np.inf, 0.25], [0.5, np.nan],
                                    [0.5, -np.inf], [np.nan, 0.25]])
def test_schedule_refuses_non_finite_widths(values):
    with pytest.raises(DomainError):
        EpsilonSchedule(values=np.array(values))


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_eps_steps_refuses_non_finite_widths(eps):
    with pytest.raises(DomainError):
        _eps_steps(TimeGrid(T=1.0, n=16), eps)


def test_constant_integrator_gives_zero():
    grid = TimeGrid(T=1.0, n=256)
    const = np.full(grid.n + 1, 2.5)
    y = np.sin(grid.points)
    assert symmetric_integral_eps(y, const, grid, 2**-4, 1.0) == 0.0


def test_smooth_integral_oracle():
    # Y = s against X = s: the limit is int_0^1 s ds = 1/2, and the frozen
    # boundary layer contributes -eps/4 + O(eps^2) (computable by hand).
    grid = TimeGrid(T=1.0, n=4096)
    s = grid.points
    errs = []
    for eps in (2**-4, 2**-5, 2**-6):
        val = symmetric_integral_eps(s, s, grid, eps, 1.0)
        predicted = -eps / 4.0 - eps**2 / 6.0
        # allow the next-order eps^3 term plus the Riemann-sum step error
        assert abs((val - 0.5) - predicted) < 0.2 * eps**2 + 2 * grid.dt
        errs.append(abs(val - 0.5))
    assert errs[2] < errs[1] < errs[0]


def test_telescoping_recovers_terminal_value():
    """Integrating 1 dX approximates X_t - X_0 up to the mollification layer."""
    grid = TimeGrid(T=1.0, n=1024)
    z = simulate_fbm(generate(grid, seed=2, path_id=5), 0.7)
    ones = np.ones(grid.n + 1)
    vals = [symmetric_integral_eps(ones, z.values, grid, eps, 1.0)
            for eps in (2**-5, 2**-6, 2**-7)]
    for v in vals:
        assert abs(v - z.values[-1]) < 0.05


def test_wiener_bracket_is_time():
    grid = TimeGrid(T=1.0, n=1024)
    W = _wiener_matrix(grid, seed=3, paths=300)
    vals = [covariation_eps(W[i], W[i], grid, 2**-5, 1.0) for i in range(300)]
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_smooth_path_bracket_vanishes_at_rate_eps():
    grid = TimeGrid(T=1.0, n=1024)
    x2 = grid.points**2
    vals = [covariation_eps(x2, x2, grid, eps, 1.0) for eps in (2**-3, 2**-4, 2**-5)]
    assert vals[0] > vals[1] > vals[2]
    # halving eps should roughly halve the bracket
    assert 1.7 < vals[0] / vals[1] < 2.3
    assert 1.7 < vals[1] / vals[2] < 2.3


def test_bracket_bilinearity_and_polarization():
    grid = TimeGrid(T=1.0, n=256)
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.standard_normal(grid.n + 1)) * 0.03
    y = np.cumsum(rng.standard_normal(grid.n + 1)) * 0.03
    eps, t = 2**-4, 1.0
    a, b = 2.0, -3.0
    lhs = covariation_eps(a * x, b * y, grid, eps, t)
    rhs = a * b * covariation_eps(x, y, grid, eps, t)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    pol = 0.25 * (
        covariation_eps(x + y, x + y, grid, eps, t)
        - covariation_eps(x - y, x - y, grid, eps, t)
    )
    direct = covariation_eps(x, y, grid, eps, t)
    assert abs(pol - direct) < 1e-12


def test_symmetric_integral_stability_across_small_eps():
    # For zero-QV X and Y = g(X), the estimator should be Cauchy across the
    # two smallest widths at the ensemble level.
    grid = TimeGrid(T=1.0, n=1024)
    spec = HermiteSpec.create(1, 0.8)
    Z = simulate_ensemble(grid, spec, seed=19, path_ids=range(100))
    d1, d2 = [], []
    for row in Z:
        y = np.sin(row)
        a = symmetric_integral_eps(y, row, grid, 2**-6, 1.0)
        b = symmetric_integral_eps(y, row, grid, 2**-7, 1.0)
        d1.append(a)
        d2.append(b)
    diff = np.array(d1) - np.array(d2)
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) < max(3 * se, 0.01)


def test_eps_validation():
    grid = TimeGrid(T=1.0, n=64)
    z = simulate_fbm(generate(grid, seed=1, path_id=0), 0.7).values
    ones = np.ones(grid.n + 1)
    with pytest.raises(ResolutionError):
        symmetric_integral_eps(ones, z, grid, grid.dt, 1.0)  # below 2*dt
    with pytest.raises(ResolutionError):
        symmetric_integral_eps(ones, z, grid, 0.1, 1.0)  # not a multiple of dt
    with pytest.raises(ResolutionError):
        covariation_eps(z, z, grid, grid.dt, 1.0)
    with pytest.raises(DomainError):
        symmetric_integral_eps(ones[:-1], z, grid, 2 * grid.dt, 1.0)  # short


def test_qv_certificate_fbm():
    grid = TimeGrid(T=1.0, n=1024)
    sched = EpsilonSchedule.dyadic(grid, 3, 7)
    Z = simulate_ensemble(grid, HermiteSpec.create(1, 0.75), seed=31, path_ids=range(300))
    rep = qv_certificate(Z, grid, 0.75, sched)
    assert rep.passed
    assert abs(rep.slope - 0.5) <= 0.1
    assert np.all(np.diff(rep.means) < 0)


def test_qv_certificate_wiener_control_fails():
    grid = TimeGrid(T=1.0, n=1024)
    sched = EpsilonSchedule.dyadic(grid, 3, 7)
    W = _wiener_matrix(grid, seed=5, paths=300)
    rep = qv_certificate(W, grid, 0.5, sched)
    assert not rep.passed
    assert abs(rep.slope) < 0.05


def test_qv_certificate_input_validation():
    grid = TimeGrid(T=1.0, n=256)
    sched = EpsilonSchedule.dyadic(grid, 3, 6)
    Z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=1, path_ids=range(50))
    with pytest.raises(SampleSizeError):
        qv_certificate(Z, grid, 0.7, sched)
    Zok = np.zeros((120, grid.n + 1))
    with pytest.raises(DomainError):
        qv_certificate(Zok, grid, 0.7, EpsilonSchedule(values=np.array([0.25, 0.125])))


def test_report_serialization_shapes():
    grid = TimeGrid(T=1.0, n=512)
    sched = EpsilonSchedule.dyadic(grid, 3, 6)
    Z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), seed=8, path_ids=range(120))
    rep = qv_certificate(Z, grid, 0.7, sched)
    rows = rep.rows()
    assert len(rows) == len(sched)
