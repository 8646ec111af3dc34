"""Uniform time lattice on [0, T]."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

__all__ = ["TimeGrid"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T.

    Parameters
    ----------
    T : float
        Horizon, must be positive.
    n : int
        Number of steps (so there are n + 1 grid points). Powers of two
        interact cleanly with the dyadic epsilon schedules used elsewhere,
        but any n >= 2 is accepted.

    A grid compares and hashes by (T, n) alone, so TimeGrid(T=1, n=8) and
    TimeGrid(T=1.0, n=8) are one grid; the plan caches in noise key on it.
    """

    T: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.T) or self.T <= 0:
            raise GridError(f"horizon must be positive and finite, got {self.T}")
        if self.n < 2:
            raise GridError(f"need at least 2 steps, got {self.n}")
        pts = np.linspace(0.0, self.T, self.n + 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def midpoints(self) -> np.ndarray:
        """Midpoints of the n steps; used as kernel evaluation points."""
        return (self.points[:-1] + self.points[1:]) / 2.0

    @property
    def _time_tol(self) -> float:
        """How far a time may sit from a grid point and still name it."""
        return 1e-9 * max(1.0, self.T)

    def index_of(self, t: float) -> int:
        """Index of a grid point, or GridError if t is not on the lattice."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n or abs(k * self.dt - t) > self._time_tol:
            raise GridError(f"time {t} is not a grid point of [0, {self.T}] with dt={self.dt}")
        return k
