import numpy as np
import pytest

from stochtransport import GridError, TimeGrid


def test_points_and_spacing():
    g = TimeGrid(T=1.0, n=8)
    assert g.dt == pytest.approx(0.125)
    np.testing.assert_allclose(g.points, np.linspace(0.0, 1.0, 9))
    np.testing.assert_allclose(g.midpoints, g.points[:-1] + 0.0625)
    assert g.points.flags.writeable is False


def test_index_of_roundtrip():
    g = TimeGrid(T=2.0, n=16)
    for k, t in enumerate(g.points):
        assert g.index_of(t) == k
    # slight float noise still resolves
    assert g.index_of(g.points[5] + 1e-12) == 5


def test_index_of_off_lattice():
    g = TimeGrid(T=1.0, n=10)
    with pytest.raises(GridError):
        g.index_of(0.55 * g.dt)


@pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 1), (np.inf, 4)])
def test_invalid_construction(T, n):
    with pytest.raises(GridError):
        TimeGrid(T=T, n=n)


def test_key_is_hashable_identity():
    """The grid itself is the cache key: equal and equally hashed by value,
    with an integer horizon the same grid as its float."""
    a = TimeGrid(T=1.0, n=64)
    for b in (TimeGrid(T=1.0, n=64), TimeGrid(T=1, n=64)):
        assert a == b and hash(a) == hash(b)
        assert np.array_equal(a.points, b.points) and a.dt == b.dt
    assert TimeGrid(T=2.0, n=64) != a
    assert TimeGrid(T=1.0, n=32) != a
