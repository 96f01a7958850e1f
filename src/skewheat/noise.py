"""Discretized space-time white noise on the simulation grid.

Cell increments are i.i.d. N(0, dt*dx), drawn from counter-based streams:
the increment of cell (k, l) is draw k*m + l of the stream keyed by (seed,
replicate), a fixed function of (seed, replicate, k*m + l) and of nothing
else, so the matrix is bit-identical however replicates are chunked,
scheduled or parallelized.  A stream is read in order, so its draws carry the
same bits whether they are taken in one call or in blocks of rows:
NoiseRows reads a chunk's replicates NOISE_ROWS time rows at a time and
matches sample_noise bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

#: Identifier of the uniform-to-Gaussian transform, recorded in run metadata.
GAUSS_TRANSFORM_ID = "philox4x64-ziggurat-v2"

# Stream kinds occupy counter word 2, keeping independent uses of a
# (seed, replicate) key on disjoint counter ranges.  Word 3 holds a
# per-stream subkey (zero for field noise, the position bits for exact paths).
STREAM_FIELD_NOISE = 1
STREAM_EXACT_PATHS = 2

# Time rows per replicate that NoiseRows draws at once.
NOISE_ROWS = 16


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


def _stream(seed: int, replicate: int, kind: int, subkey: int = 0) -> Generator:
    """The generator of the stream keyed by (seed, replicate, kind, subkey), at draw 0."""
    _check_stream_key(seed, replicate)
    bg = Philox(
        key=np.array([seed, replicate], dtype=np.uint64),
        counter=np.array([0, 0, kind, subkey], dtype=np.uint64),
    )
    return Generator(bg)


def standard_normals(
    seed: int, replicate: int, count: int, kind: int, subkey: int = 0
) -> np.ndarray:
    """`count` i.i.d. N(0,1) draws from the stream keyed by (seed, replicate, kind, subkey).

    The stream is numpy's ziggurat (`Generator.standard_normal`, Marsaglia &
    Tsang 2000) over the Philox4x64 generator with key (seed, replicate) and
    counter (0, 0, kind, subkey).  Draw j is a function of (seed, replicate,
    kind, subkey, j) only: a shorter request returns a prefix of a longer
    one.  The ziggurat consumes a variable number of words per draw, so draw
    j is reached only through the draws before it; its bits are those of
    numpy's `Generator.standard_normal`.
    """
    return _stream(seed, replicate, kind, subkey).standard_normal(count)


def sample_noise(grid: GridSpec, seed: int, replicate: int) -> np.ndarray:
    """The (n, m) white-noise increments of one replicate.

    Entry [k, l] is the noise mass of [s_k, s_{k+1}) x [y_l - dx/2, y_l + dx/2),
    distributed N(0, dt*dx).
    """
    z = standard_normals(seed, replicate, grid.n * grid.m, kind=STREAM_FIELD_NOISE)
    z *= math.sqrt(grid.dt * grid.dx)
    return z.reshape(grid.n, grid.m)


class NoiseRows:
    """The (n, m, count) increments of replicates first..first+count-1, read one time row at a time.

    Iterating yields the n rows k = 0..n-1 in order, each an (m, count)
    array whose column j is sample_noise(grid, seed, first + j)[k], bit for
    bit.  Each replicate's stream is drawn `rows` = min(NOISE_ROWS, n) time
    rows at a time into one (count, rows, m) buffer, so the increments held
    at once are `nbytes`, not 8*n*m*count bytes.  A row is a view of that
    buffer and holds until the stream draws its next block: copy a row to
    keep it.  Iterating again starts again from row 0.
    """

    def __init__(self, grid: GridSpec, seed: int, first: int, count: int):
        self.grid, self.seed, self.first, self.count = grid, seed, first, count
        self.shape = (grid.n, grid.m, count)
        self.rows = min(NOISE_ROWS, grid.n)
        self.nbytes = 8 * count * self.rows * grid.m

    def __iter__(self):
        n, scale = self.grid.n, math.sqrt(self.grid.dt * self.grid.dx)
        streams = [_stream(self.seed, self.first + j, STREAM_FIELD_NOISE)
                   for j in range(self.count)]
        block = np.empty((self.count, self.rows, self.grid.m))
        for k0 in range(0, n, self.rows):
            rows = min(self.rows, n - k0)
            for j, stream in enumerate(streams):
                stream.standard_normal(out=block[j, :rows])
            block[:, :rows] *= scale
            for k in range(rows):
                yield block[:, k].T
