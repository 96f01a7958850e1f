"""Discretized space-time white noise on the simulation grid.

Cell increments are i.i.d. N(0, dt*dx), drawn from counter-based streams:
the increment of cell (k, l) is draw k*m + l of the stream keyed by (seed,
replicate), a fixed function of (seed, replicate, k*m + l) and of nothing
else, so the matrix is bit-identical however replicates are chunked,
scheduled or parallelized.  rekey says how a stream is keyed.  A stream is
read in order, so its draws carry the same bits whether they are taken in
one call or in blocks of rows: a NoiseChunk reads its replicates either
NOISE_ROWS time rows at a time, matching sample_noise bit for bit, or one
whole replicate at a time.
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

# Time rows per replicate that NoiseChunk.rows draws at once.
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


def rekey(generator: Generator, seed: int, replicate: int, kind: int,
          subkey: int = 0) -> Generator:
    """Set generator's Philox to draw 0 of the stream keyed by (seed, replicate, kind, subkey).

    A stream is numpy's ziggurat (`Generator.standard_normal`, Marsaglia &
    Tsang 2000) over Philox4x64 with key (seed, replicate) and counter
    (0, 0, kind, subkey).  The whole state is set, buffer emptied, so a
    re-keyed generator draws the bits of a new one: a caller reading many
    streams in turn re-keys one it owns.  Returns the generator.
    """
    _check_stream_key(seed, replicate)
    state = {"counter": (0, 0, kind, subkey), "key": (seed, replicate)}
    generator.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": (0,) * 4,
                                     "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def new_generator() -> Generator:
    """A Philox Generator for rekey to key; its own seed (0) is never drawn from."""
    return Generator(Philox(0))


def standard_normals(
    seed: int, replicate: int, count: int, kind: int, subkey: int = 0
) -> np.ndarray:
    """`count` i.i.d. N(0,1) draws from the stream keyed by (seed, replicate, kind, subkey).

    rekey on a new generator.  Draw j is a function of (seed, replicate,
    kind, subkey, j) only: a shorter request returns a prefix of a longer
    one.  The ziggurat consumes a variable number of words per draw, so draw
    j is reached only through the draws before it; its bits are those of
    numpy's `Generator.standard_normal`.
    """
    return rekey(new_generator(), seed, replicate, kind, subkey).standard_normal(count)


def sample_noise(grid: GridSpec, seed: int, replicate: int) -> np.ndarray:
    """The (n, m) white-noise increments of one replicate.

    Entry [k, l] is the noise mass of [s_k, s_{k+1}) x [y_l - dx/2, y_l + dx/2),
    distributed N(0, dt*dx).
    """
    z = standard_normals(seed, replicate, grid.n * grid.m, kind=STREAM_FIELD_NOISE)
    z *= math.sqrt(grid.dt * grid.dx)
    return z.reshape(grid.n, grid.m)


class NoiseChunk:
    """The (n, m, count) increments of replicates first..first+count-1, drawn as a scheme reads them.

    Neither iteration holds them whole, and each call starts again from row 0
    or replicate first.

    - rows() yields the n rows k = 0..n-1 in order, each an (m, width) view
      whose column j < count is sample_noise(grid, seed, first + j)[k], bit
      for bit, and whose columns past count are 0.0.  width is at least
      count, and count by default.  Each replicate's stream is drawn `block` = min(NOISE_ROWS, n)
      time rows at a time into one (width, block, m) buffer of
      `rows_nbytes`; a row holds until its stream draws the next block over
      it: copy a row to keep it.
    - replicates() yields draw(grid, seed, first + j) for j = 0..count-1,
      each an (n, m) array drawn only when it is asked for.  draw defaults
      to sample_noise; the harness passes its own name for it, which
      perfbench's tracer wraps to time the draws.
    """

    def __init__(self, grid: GridSpec, seed: int, first: int, count: int,
                 width: int | None = None, draw=sample_noise):
        self.grid, self.seed, self.first, self.count, self.draw = grid, seed, first, count, draw
        self.width = count if width is None else width
        self.shape = (grid.n, grid.m, count)
        self.block = min(NOISE_ROWS, grid.n)
        self.rows_nbytes = 8 * self.width * self.block * grid.m

    def rows(self):
        n, scale = self.grid.n, math.sqrt(self.grid.dt * self.grid.dx)
        streams = [rekey(new_generator(), self.seed, self.first + j, STREAM_FIELD_NOISE)
                   for j in range(self.count)]
        block = np.zeros((self.width, self.block, self.grid.m))
        for k0 in range(0, n, self.block):
            rows = min(self.block, n - k0)
            for j, stream in enumerate(streams):
                stream.standard_normal(out=block[j, :rows])
            block[:self.count, :rows] *= scale
            for k in range(rows):
                yield block[:, k].T

    def replicates(self):
        for j in range(self.count):
            yield self.draw(self.grid, self.seed, self.first + j)
