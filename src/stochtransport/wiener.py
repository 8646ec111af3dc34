"""Discrete Wiener noise on the time lattice.

Every stochastic object in the package is a deterministic function of one or
more of these lattices, so reproducibility reduces to the RNG contract here:
a counter-based Philox stream keyed by (seed, path_id). Streams for distinct
(seed, path_id) pairs are independent and do not depend on how many other
paths are drawn, which makes path-parallel Monte Carlo order-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .grid import TimeGrid

__all__ = ["WienerLattice", "Perturbation", "generate", "generate_increments"]


_KEY_WORD = 2**64  # seed and path_id each fill one 64-bit key word


def _check_key(seed: int, path_id: int) -> None:
    # a value past one word would spill into the other and collide with
    # another (seed, path_id) pair's stream
    if not (0 <= seed < _KEY_WORD and 0 <= path_id < _KEY_WORD):
        raise DomainError("seed and path_id must be integers in [0, 2^64)")


def _rng(seed: int, path_id: int) -> np.random.Generator:
    seed, path_id = int(seed), int(path_id)
    _check_key(seed, path_id)
    # Philox takes a 128-bit key; splice the pair into disjoint 64-bit words.
    return np.random.Generator(np.random.Philox(key=(seed << 64) | path_id))


@dataclass(frozen=True, eq=False)
class WienerLattice:
    """Increments of a Brownian path over one TimeGrid.

    increments[i] ~ N(0, dt) covers the step [t_i, t_{i+1}]. The seed and
    path_id record how the base draw was produced; objects derived by
    perturbation keep them for provenance even though they no longer
    reproduce the (shifted) increments.  Lattices compare and hash by
    identity: compare their increments to compare draws.
    """

    grid: TimeGrid
    seed: int
    path_id: int
    increments: np.ndarray = field(repr=False)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.n,):
            raise DomainError(
                f"increments shape {inc.shape} does not match grid with n={self.grid.n}"
            )
        if not np.isfinite(inc).all():  # nan and inf fail
            raise DomainError("increments must be finite")
        inc = inc.copy()
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)


def generate(grid: TimeGrid, seed: int, path_id: int = 0) -> WienerLattice:
    """Draw one Wiener lattice for (seed, path_id)."""
    inc = _rng(seed, path_id).standard_normal(grid.n) * np.sqrt(grid.dt)
    return WienerLattice(grid=grid, seed=seed, path_id=path_id, increments=inc)


def generate_increments(grid: TimeGrid, seed: int, path_ids) -> np.ndarray:
    """Increment matrix of shape (len(path_ids), n), one independent row per id.

    Row p depends only on (seed, path_ids[p]), never on the other rows, so any
    subset of paths can be regenerated in isolation.
    """
    path_ids = [int(pid) for pid in path_ids]
    out = np.empty((len(path_ids), grid.n))
    if not path_ids:
        return out
    # Re-keying one Philox generator with _rng's key words [pid, seed] and a
    # zero counter gives the stream of _rng(seed, pid) at a tenth of the
    # cost of building a new generator per path.
    rng = _rng(seed, path_ids[0])
    bitgen = rng.bit_generator
    state = bitgen.state
    for row, pid in enumerate(path_ids):
        _check_key(seed, pid)
        state.update(state={"counter": np.zeros(4, dtype=np.uint64),
                            "key": np.array([pid, seed], dtype=np.uint64)},
                     buffer_pos=4, has_uint32=0, uinteger=0)
        bitgen.state = state
        rng.standard_normal(out=out[row])
    out *= np.sqrt(grid.dt)
    return out


@dataclass(frozen=True)
class Perturbation:
    """Cameron–Martin style shift: add delta to the increment density on [a, b].

    The shift direction is h(t) = delta * measure([0, t] ∩ [a, b]), realized on
    the lattice by adding delta * dt to every increment whose step lies inside
    [a, b]. A step [t_i, t_{i+1}] counts as inside when both endpoints are
    (up to 1e-12 * T slack), which matches integrating the indicator 1_[a,b]
    against the step midpoints used everywhere else.
    """

    a: float
    b: float
    delta: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise DomainError(f"need a < b, got [{self.a}, {self.b}]")
        if not abs(self.delta) < np.inf:  # nan fails
            raise DomainError(f"delta must be finite, got {self.delta}")

    def step_mask(self, grid: TimeGrid) -> np.ndarray:
        tol = 1e-12 * max(1.0, grid.T)
        if self.a < -tol or self.b > grid.T + tol:
            raise DomainError(f"[{self.a}, {self.b}] not inside [0, {grid.T}]")
        left = grid.points[:-1]
        right = grid.points[1:]
        return (left >= self.a - tol) & (right <= self.b + tol)

    def perturb(self, w: WienerLattice) -> WienerLattice:
        """Return a new lattice with the shifted increments; w is untouched."""
        mask = self.step_mask(w.grid)
        inc = w.increments.copy()
        inc[mask] += self.delta * w.grid.dt
        return replace(w, increments=inc)
