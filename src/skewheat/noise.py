"""Discretized space-time white noise on the simulation grid.

Cell increments are i.i.d. N(0, dt*dx), generated by a counter-based scheme:
the increment of cell (k, l) is a fixed function of (seed, replicate, cell
index k*m + l) and of nothing else, so the matrix is bit-identical however
generation is scheduled or parallelized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Philox

#: Identifier of the uniform-to-Gaussian transform, recorded in run metadata.
GAUSS_TRANSFORM_ID = "philox4x64-boxmuller-v1"

# Stream kinds occupy counter word 2, keeping independent uses of a
# (seed, replicate) key on disjoint counter ranges.  Word 3 holds a
# per-stream subkey (zero for field noise, the position bits for exact paths).
STREAM_FIELD_NOISE = 1
STREAM_EXACT_PATHS = 2


def position_subkey(x: float) -> int:
    """Bit pattern of the float64 position, used to key per-point streams."""
    return int(np.float64(x).view(np.uint64))


@dataclass(frozen=True)
class GridSpec:
    """Space-time discretization: horizon T with n steps, domain [-L, L] with m cells."""

    T: float
    n: int
    L: float
    m: int

    def __post_init__(self):
        if not (isinstance(self.T, (int, float)) and math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be finite and > 0, got {self.T!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"time step count n must be an integer >= 1, got {self.n!r}")
        if not (isinstance(self.L, (int, float)) and math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"half-width L must be finite and > 0, got {self.L!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"cell count m must be an integer >= 1, got {self.m!r}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "L", float(self.L))

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.m

    @cached_property
    def cell_centers(self) -> np.ndarray:
        """Centers y_l = -L + (l + 1/2) dx, strictly inside (-L, L)."""
        return -self.L + (np.arange(self.m) + 0.5) * self.dx

    @cached_property
    def time_nodes(self) -> np.ndarray:
        """Nodes s_k = k*dt for k = 0..n, with s_n == T exactly."""
        return np.linspace(0.0, self.T, self.n + 1)

    def snap(self, x: float) -> tuple[int, float]:
        """Index and value of the cell center nearest to x (ties go left)."""
        j = int(np.argmin(np.abs(self.cell_centers - x)))
        return j, float(self.cell_centers[j])


def _check_stream_key(seed: int, replicate: int) -> None:
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if not (isinstance(replicate, int) and 0 <= replicate < 2**64):
        raise ValueError(f"replicate must be a nonnegative integer, got {replicate!r}")


def standard_normals(
    seed: int, replicate: int, count: int, kind: int, subkey: int = 0
) -> np.ndarray:
    """`count` i.i.d. N(0,1) draws from the stream keyed by (seed, replicate, kind, subkey).

    Draw i consumes exactly the Philox4x64 block at counter (i, 0, kind, subkey)
    under key (seed, replicate): the first two 64-bit words become uniforms
    u1 in (0,1], u2 in [0,1) and the Box-Muller cosine branch maps them to one
    normal.  The value of draw i never depends on which other draws are made.
    """
    _check_stream_key(seed, replicate)
    if count == 0:
        return np.zeros(0)
    bg = Philox(
        key=np.array([seed, replicate], dtype=np.uint64),
        counter=np.array([0, 0, kind, subkey], dtype=np.uint64),
    )
    words = bg.random_raw(4 * count).reshape(count, 4)
    u1 = ((words[:, 0] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    u2 = (words[:, 1] >> np.uint64(11)) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def sample_noise(grid: GridSpec, seed: int, replicate: int) -> np.ndarray:
    """The (n, m) white-noise increments of one replicate.

    Entry [k, l] is the noise mass of [s_k, s_{k+1}) x [y_l - dx/2, y_l + dx/2),
    distributed N(0, dt*dx).
    """
    z = standard_normals(seed, replicate, grid.n * grid.m, kind=STREAM_FIELD_NOISE)
    return math.sqrt(grid.dt * grid.dx) * z.reshape(grid.n, grid.m)
