import numpy as np
import pytest

from stochtransport import DomainError, Perturbation, TimeGrid
from stochtransport.wiener import WienerLattice, generate, generate_increments


def test_reproducible_and_independent():
    g = TimeGrid(T=1.0, n=128)
    w1 = generate(g, seed=7, path_id=0)
    w2 = generate(g, seed=7, path_id=0)
    np.testing.assert_array_equal(w1.increments, w2.increments)
    w3 = generate(g, seed=7, path_id=1)
    assert not np.array_equal(w1.increments, w3.increments)
    w4 = generate(g, seed=8, path_id=0)
    assert not np.array_equal(w1.increments, w4.increments)


def test_perturbed_lattice_differs_from_its_source():
    """Lattices compare by identity, so a shift of the increments is never
    mistaken for its source, in == or in a set."""
    w = generate(TimeGrid(T=1.0, n=8), seed=1, path_id=0)
    p = Perturbation(0, 0.5, 1).perturb(w)
    assert not np.array_equal(p.increments, w.increments)
    assert p != w and w == w and len({w, p}) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_driver_is_refused(bad):
    """A non-finite increment or shift would turn every noise value built on
    the lattice into nan; the lattice and the shift refuse it."""
    g = TimeGrid(T=1.0, n=8)
    inc = generate(g, seed=1).increments.copy()
    inc[3] = bad
    with pytest.raises(DomainError):
        WienerLattice(grid=g, seed=1, path_id=0, increments=inc)
    with pytest.raises(DomainError):
        WienerLattice(grid=g, seed=1, path_id=0, increments=np.full(8, bad))
    with pytest.raises(DomainError):
        Perturbation(0.0, 0.5, bad)


def test_matrix_matches_single_paths():
    """The ensemble generator must agree with per-path generation row by row."""
    g = TimeGrid(T=1.0, n=16)
    mat = generate_increments(g, seed=11, path_ids=range(5))
    for pid in range(5):
        np.testing.assert_array_equal(mat[pid], generate(g, seed=11, path_id=pid).increments)


def test_increment_moments():
    g = TimeGrid(T=2.0, n=64)
    mat = generate_increments(g, seed=3, path_ids=range(4000))
    m, v = mat.mean(), mat.var()
    assert abs(m) < 4.0 / np.sqrt(mat.size) * np.sqrt(g.dt)
    assert v == pytest.approx(g.dt, rel=0.02)


def test_negative_ids_rejected():
    g = TimeGrid(T=1.0, n=4)
    with pytest.raises(DomainError):
        generate(g, seed=-1, path_id=0)
    with pytest.raises(DomainError):
        generate(g, seed=0, path_id=-2)


def test_ids_past_one_key_word_are_refused():
    """seed and path_id fill one 64-bit Philox key word each; a larger value
    would spill into the other word and repeat another pair's stream."""
    g = TimeGrid(T=1.0, n=8)
    for seed, pid in ((0, 2**64), (2**64, 0)):
        with pytest.raises(DomainError):
            generate(g, seed=seed, path_id=pid)
        with pytest.raises(DomainError):
            generate_increments(g, seed, [0, pid])
    # ids up to the top of the word are valid in both entry points
    top = 2**64 - 1
    mat = generate_increments(g, 1, [top, 2**63])
    np.testing.assert_array_equal(mat[0], generate(g, 1, top).increments)
    np.testing.assert_array_equal(mat[1], generate(g, 1, 2**63).increments)


def test_perturbation_mask_covers_interior_steps():
    g = TimeGrid(T=1.0, n=10)
    p = Perturbation(a=0.2, b=0.5, delta=1.0)
    mask = p.step_mask(g)
    # steps [2,3), [3,4), [4,5) lie fully inside [0.2, 0.5]
    assert list(np.nonzero(mask)[0]) == [2, 3, 4]


def test_perturb_shifts_increments_only_inside_window():
    g = TimeGrid(T=1.0, n=10)
    w = generate(g, seed=5, path_id=0)
    p = Perturbation(a=0.2, b=0.5, delta=2.0)
    wp = p.perturb(w)
    delta = wp.increments - w.increments
    np.testing.assert_allclose(delta[2:5], 2.0 * g.dt)
    np.testing.assert_allclose(delta[:2], 0.0)
    np.testing.assert_allclose(delta[5:], 0.0)
    # original is untouched
    assert wp is not w


def test_perturbation_outside_horizon_rejected():
    g = TimeGrid(T=1.0, n=10)
    with pytest.raises(DomainError):
        Perturbation(a=0.5, b=1.5, delta=1.0).step_mask(g)
    with pytest.raises(DomainError):
        Perturbation(a=0.5, b=0.2, delta=1.0)
