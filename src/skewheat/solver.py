"""Mild-solution solver: discretized stochastic convolution and exact linear paths.

The field scheme is a single causal pass: the increment of u over one time
cell is the kernel (evaluated at a within-cell lag) times sigma of the field
at the cell's left endpoint times the white-noise increment, summed over all
past cells.  When sigma is constant the noise term does not depend on u, so
the field at an observation cell is a fixed linear map of the noise: a
causal convolution in time of the requested cells' kernel rows with the
noise, formed by FFT, the kernel rows' transforms built once and the
replicates taken one at a time.  A nonlinear
sigma needs every cell of the previous row; there the lag sum is carried
forward one step at a time by the heat semigroup, with a cell-integrated
one-step kernel on a padded grid, every operator held only within the
heat kernel's reach.  For sigma identically one
the solution is Gaussian and its time covariance at a fixed point has an
exact quadrature representation (covariance_linear, a dyadic-panel
Gauss-Legendre rule); the exact-linear backend samples such paths from a
factorized covariance matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .medium import MediumParams, position_map
from .kernel import GreenKernel
from .noise import GridSpec, NoiseChunk, standard_normals, position_subkey, STREAM_EXACT_PATHS

# Source cells per FFT block of the constant-sigma product.
FFT_BLOCK = 32

# The newest cell's kernel lag in units of dt (see _cell_lags).
NEWEST_LAG = 0.25

# Rows per block of the semigroup operators, the direct Gaussian factor
# exp(-(f(x) - f(y))**2 / 2t) below which a column lies outside a row's band,
# and the most bytes the three operators' blocks may hold together.
BAND_BLOCK = 64
BAND_FLOOR = 1e-17
BAND_MAX_BYTES = 2**30

# Replicates per exact-path gemm block; block b holds replicates 64*b .. 64*b + 63.
PATH_BLOCK = 64

# covariance_matrix's smooth cells: tolerance at T = min(a1, a2), nodes per cell at start and at most.
COV_CELL_TOL = 1e-9
COV_CELL_NODES = 2
COV_CELL_MAX_NODES = 1024

# covariance_matrix's lag diagonals per assembly block.
COV_DIAGONALS = 32

# covariance_linear's rule: dyadic panels in v at most, and nodes per panel at start and at most.
COV_PANELS = 30
COV_NODES = 16
COV_MAX_NODES = 256


class SolverError(RuntimeError):
    """A solver stage failed numerically; the CLI reports it and exits 1."""


class NonFiniteFieldError(SolverError):
    """Raised when the field scheme produces a non-finite value."""


class CovarianceError(SolverError):
    """Raised when the covariance quadrature or its factorization fails."""


# ---------------------------------------------------------------------------
# sigma coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient sigma(u), held as its coefficients.

    sigma(u) is 1 + amp*sin(u) when amp is nonzero, else h1*u + h2.
    constant is the value c of a sigma that does not depend on u, and None
    otherwise; every choice that turns on sigma reads it.  For a constant
    sigma the solution is c times the sigma = 1 solution.
    """

    h1: float = 0.0
    h2: float = 1.0
    amp: float = 0.0

    @property
    def constant(self) -> float | None:
        return None if self.h1 or self.amp else self.h2

    def evaluate(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.amp:
            return 1.0 + self.amp * np.sin(u)
        if self.h1:
            return self.h1 * u + self.h2
        return np.full_like(u, self.h2)


def sigma_one() -> SigmaSpec:
    """sigma identically one (the linear, exactly Gaussian case)."""
    return SigmaSpec()


def sigma_affine(h1: float, h2: float) -> SigmaSpec:
    """sigma(u) = h1*u + h2, Lipschitz bound |h1|."""
    return SigmaSpec(h1=float(h1), h2=float(h2))


def sigma_sin(amp: float) -> SigmaSpec:
    """sigma(u) = 1 + amp*sin(u), Lipschitz bound |amp|."""
    return SigmaSpec(amp=float(amp))


def parse_sigma(spec: str) -> SigmaSpec:
    """Parse a sigma preset string: "one", "affine:h1,h2" or "sin1:amp"."""
    spec = spec.strip()
    if spec == "one":
        return sigma_one()
    if ":" in spec:
        name, _, args = spec.partition(":")
        try:
            values = [float(v) for v in args.split(",")] if args else []
        except ValueError:
            raise ValueError(f"bad numeric arguments in sigma spec {spec!r}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite numeric arguments in sigma spec {spec!r}")
        if name == "affine" and len(values) == 2:
            return sigma_affine(*values)
        if name == "sin1" and len(values) == 1:
            return sigma_sin(values[0])
    raise ValueError(f"unknown sigma spec {spec!r}; expected 'one', 'affine:h1,h2' or 'sin1:amp'")


def format_sigma(sigma: SigmaSpec) -> str:
    """The preset string that parse_sigma reads back as sigma."""
    if sigma.amp:
        return f"sin1:{sigma.amp!r}"
    return "one" if sigma == sigma_one() else f"affine:{sigma.h1!r},{sigma.h2!r}"


# ---------------------------------------------------------------------------
# field scheme
# ---------------------------------------------------------------------------


def _cell_lags(dt: float, count: int) -> np.ndarray:
    """Kernel time lag for each past-cell distance d = 1..count.

    Older cells use the midpoint lag (d - 1/2)*dt.  The newest cell (d = 1)
    uses NEWEST_LAG*dt; at dt/4 it reproduces the exact cell average of the
    leading r**-1/2 profile of the squared-kernel mass, where the midpoint
    would understate the cell's variance contribution by a factor sqrt(2)/2.
    Both field schemes and harness.dx_bound take their lags from here.
    """
    lags = (np.arange(1, count + 1, dtype=float) - 0.5) * dt
    lags[0] = NEWEST_LAG * dt
    return lags


def _band_spans(t, rows, lo, hi):
    """Row blocks (r0, r1, c0, c1) of an operator at lag t: rows r0..r1-1 reach columns c0..c1-1.

    rows are the rows' images f(x), increasing; column l has the image
    interval [lo[l], hi[l]], increasing in l.  Row j's band is the columns
    whose image comes within sqrt(2 t ln(1/BAND_FLOOR)) of rows[j], where
    the direct Gaussian factor is at least BAND_FLOOR; the reflected one is
    never nearer.  The bands are increasing intervals, so a block of
    BAND_BLOCK rows spans from its first row's first column to its last
    row's last.
    """
    reach = math.sqrt(2.0 * t * math.log(1.0 / BAND_FLOOR))
    first = np.searchsorted(hi, rows - reach, side="left")
    stop = np.searchsorted(lo, rows + reach, side="right")
    spans = []
    for r0 in range(0, len(rows), BAND_BLOCK):
        r1 = min(r0 + BAND_BLOCK, len(rows))
        spans.append((r0, r1, int(first[r0]), int(stop[r1 - 1])))
    return spans


def _band(spans, entries):
    """An operator held as row blocks (r0, c0, c1, block), block = A[r0:r1, c0:c1] per span.

    entries(r0, r1, c0, c1) gives A[r0:r1, c0:c1].
    """
    blocks = []
    for r0, r1, c0, c1 in spans:
        a = entries(r0, r1, c0, c1)
        # Subnormal entries (below 2.2e-308, far under the rounding of any
        # field value) are stored as zero: BLAS runs several times slower on them.
        a[np.abs(a) < np.finfo(float).tiny] = 0.0
        blocks.append((r0, c0, c1, a))
    return blocks


def _band_matmul(blocks, x, out, scratch=None):
    """out = A @ x for A held as _band's blocks, or out += A @ x through scratch (64 x R)."""
    for r0, c0, c1, a in blocks:
        if scratch is None:
            np.matmul(a, x[c0:c1], out=out[r0:r0 + len(a)])
        else:
            part = scratch[: len(a)]
            np.matmul(a, x[c0:c1], out=part)
            out[r0:r0 + len(a)] += part


def _band_rows(blocks, r0, r1):
    """(c0, c1, A[r0:r1, c0:c1]) with [c0, c1) the column hull of the blocks holding rows r0..r1-1."""
    held = [(b0, c0, c1, a) for b0, c0, c1, a in blocks if b0 < r1 and b0 + len(a) > r0]
    lo, hi = min(b[1] for b in held), max(b[2] for b in held)
    out = np.zeros((r1 - r0, hi - lo))
    for b0, c0, c1, a in held:
        top, bottom = max(r0, b0), min(r1, b0 + len(a))
        out[top - r0:bottom - r0, c0 - lo:c1 - lo] = a[top - b0:bottom - b0]
    return lo, hi, out


def _semigroup_operators(kernel: GreenKernel, grid: GridSpec):
    """The three banded operators of the semigroup recursion and its one-step gap.

    The history lives on the padded grid z: the m cells plus m//2 cells of
    the same width on each side, about [-2L, 2L], with z[pad:pad+m] the cell
    centers.  With K_d the kernel at _cell_lags' lag for distance d,
    returns (newest, history, step, gap): newest = K_1 on the m cells,
    history = K_2 from the m cells to the padded cells, step[j, l] = the
    integral of G_dt(z_j, y) over padded cell l, each held as _band's row
    blocks and built on the blocks' column spans only, and gap = the largest
    |step @ K_2 - K_3| over padded rows in [-L/2, L/2], relative to max K_3.
    Raises SolverError, before any entry is evaluated, when the blocks would
    hold more than BAND_MAX_BYTES.
    """
    y = grid.cell_centers
    pad, dx, dt = grid.m // 2, grid.dx, grid.dt
    z = np.concatenate([y[0] - dx * np.arange(pad, 0, -1), y, y[-1] + dx * np.arange(1, pad + 1)])
    edges = z[0] - 0.5 * dx + dx * np.arange(len(z) + 1)
    fy, fz, fe = (position_map(a, kernel.params) for a in (y, z, edges))
    t1, t2, t3 = _cell_lags(dt, 3)
    spans = (_band_spans(t1, fy, fy, fy), _band_spans(t2, fz, fy, fy),
             _band_spans(dt, fz, fe[:-1], fe[1:]))
    need = 8 * sum((r1 - r0) * (c1 - c0) for op in spans for r0, r1, c0, c1 in op)
    if need > BAND_MAX_BYTES:
        raise SolverError(f"the semigroup operators need {need} bytes ({need / 2**30:.1f} GiB) "
                          f"on the grid n = {grid.n}, m = {grid.m}, L = {grid.L!r}, over the "
                          f"limit of {BAND_MAX_BYTES} bytes")
    newest = _band(spans[0], lambda r0, r1, c0, c1: kernel.evaluate(
        t1, y[r0:r1, None], y[None, c0:c1]))
    history = _band(spans[1], lambda r0, r1, c0, c1: kernel.evaluate(
        t2, z[r0:r1, None], y[None, c0:c1]))
    step = _band(spans[2], lambda r0, r1, c0, c1: kernel.cell_mass(
        dt, z[r0:r1, None], edges[None, c0:c1], edges[None, c0 + 1:c1 + 1]))
    # Outside the band both step @ history and K_3 are below rounding.
    h0, h1 = np.flatnonzero(np.abs(z) <= 0.5 * grid.L)[[0, -1]] + [0, 1]
    p0, p1, p_rows = _band_rows(step, h0, h1)
    k0, k1, h_rows = _band_rows(history, p0, p1)
    later = kernel.evaluate(t3, z[h0:h1, None], y[None, k0:k1])
    gap = float(np.max(np.abs(p_rows @ h_rows - later)) / np.max(later))
    return newest, history, step, gap


def _check_finite(u: np.ndarray, i: int, rows: np.ndarray) -> None:
    if not np.isfinite(u).all():
        j = int(rows[np.argwhere(~np.isfinite(u))[0][0]])
        raise NonFiniteFieldError(f"non-finite field value at time row i={i}, cell j={j}")


def solve_field_batch(
    medium: MediumParams,
    grid: GridSpec,
    sigma: SigmaSpec,
    increments: np.ndarray | NoiseChunk,
    columns: list[int] | np.ndarray | None = None,
    report: dict | None = None,
) -> np.ndarray:
    """Run the field scheme for a batch of noise replicates.

    increments is an (n, m) or (n, m, R) array, or a noise.NoiseChunk of
    the (n, m, R) increments, which the semigroup recursion reads through
    rows(), one time row per step, and the FFT product through
    replicates(), one replicate at a time, neither holding them all.  The
    result has shape (n+1, p) or (n+1, p, R) with row 0 identically zero,
    where p is the number of requested cell indices in columns (default:
    all m cells, in grid order).
    The scheme is u_i = sum over d of K_d @ v_{i-d} with
    v_k = sigma(u_k) * dW_k and K_d the kernel at the lag of _cell_lags, so
    row i depends on noise rows < i only.

    When sigma is constant (sigma.constant is set), v does not depend on u, so
    every requested cell is a fixed linear map of the noise, a causal
    convolution in time: only the kernel rows K_d[columns, :] are built, and
    the sum over d is formed by FFT (see _fft_rows_field), one replicate at
    a time, so a replicate's path does not depend on the replicate count.
    The result is the direct lag sum up to rounding, at about p/m of the
    full field's work.  There causality holds to rounding: later noise rows
    move row i by a few ulps of max|u|, never more.

    Otherwise sigma needs the whole previous row, and the lag sum is carried
    by the heat semigroup: the history S_i = sum over d >= 2 of K_d v_{i-d}
    lives on a padded grid about [-2L, 2L] (see _semigroup_operators), and
    each step is u_i = K_1 v_{i-1} + S_i[inner] followed by
    S_{i+1} = P S_i + K_2 v_{i-1}, with P the cell-integrated one-step
    kernel.  P is nonnegative with row sums at most one, so the recursion is
    stable on every grid; its deviation from the direct sum is the
    semigroup gap.  The three are banded operators: each is held as blocks of
    BAND_BLOCK rows with the one column span the rows' heat kernel reaches
    (every left-out entry is below BAND_FLOOR times the Gaussian's peak), so
    a step costs O(m w R) for a block span w, and the whole pass
    O(n m w R) instead of the direct O(n**2 m**2 R).  Only the current row
    and the requested columns are kept.

    If report is given it receives noise_mib (the increments held at once:
    the whole array, or a NoiseChunk's row blocks or one replicate),
    rows_per_step (the distinct requested cells, at least two, or m),
    kernel_stack ("fft" or "semigroup"),
    stack_mib (the kernel and transform arrays held at once: for the FFT
    product, khat and one replicate's transform; for the semigroup path, the
    stored blocks) and, for the semigroup path,
    semigroup_gap and band_fraction (the entries the blocks store over the
    three operators' dense size).
    Raises NonFiniteFieldError naming the first offending (time row, grid
    cell) if the field overflows.
    """
    if isinstance(increments, NoiseChunk):
        dW, squeeze = increments, False
    else:
        dW = np.asarray(increments, dtype=float)
        squeeze = dW.ndim == 2
        if squeeze:
            dW = dW[:, :, None]
    n, m = grid.n, grid.m
    if dW.shape[0] != n or dW.shape[1] != m:
        raise ValueError(
            f"noise shape {dW.shape[:2]} incompatible with grid (n={n}, m={m})"
        )
    cols = np.arange(m) if columns is None else np.asarray(columns, dtype=np.intp)
    if cols.ndim != 1 or np.any((cols < 0) | (cols >= m)):
        raise ValueError(f"columns must be cell indices in [0, {m}), got {columns!r}")
    kernel = GreenKernel(medium)
    if sigma.constant is None:
        out = _semigroup_field(kernel, grid, sigma, dW, cols, report)
    else:
        out = _fft_rows_field(kernel, grid, sigma.constant, dW, cols, report)
    return out[:, :, 0] if squeeze else out


def _semigroup_field(kernel, grid, sigma, dW, cols, report):
    """Nonlinear sigma: the semigroup recursion over all m cells, columns cols kept.

    dW is an (n, m, R) array or a NoiseChunk; step i reads its row i-1
    only, in time order, so a chunk's rows are never held whole.  A chunk's
    rows are its width wide, the columns past its R replicates zero noise,
    so that a replicate is solved in gemms of the same width in every chunk
    and its path does not depend on the replicate count; those columns stay
    exactly zero and are not returned.  Each step applies the three banded
    operators one gemm per row block, into buffers allocated once.
    """
    n, m, count = dW.shape
    if isinstance(dW, np.ndarray):
        rows, r, noise_bytes = dW, count, dW.nbytes
    else:
        rows, r, noise_bytes = dW.rows(), dW.width, dW.rows_nbytes
    newest, history, step, gap = _semigroup_operators(kernel, grid)
    padded = m + 2 * (m // 2)
    if report is not None:
        stored = sum(a.size for op in (newest, history, step) for _, _, _, a in op)
        report.update(noise_mib=noise_bytes / 2**20, rows_per_step=m, kernel_stack="semigroup",
                      stack_mib=8 * stored / 2**20, semigroup_gap=gap,
                      band_fraction=stored / (m * m + padded * m + padded**2))
    inner, cells = slice(m // 2, m // 2 + m), np.arange(m)
    out = np.zeros((n + 1, len(cols), count))
    u, v = np.zeros((m, r)), np.empty((m, r))
    hist, nxt = np.zeros((padded, r)), np.empty((padded, r))
    scratch = np.empty((BAND_BLOCK, r))
    for i, dw in enumerate(rows, 1):
        np.multiply(sigma.evaluate(u), dw, out=v)
        _band_matmul(newest, v, u)
        u += hist[inner]
        _check_finite(u, i, cells)
        out[i] = u[cols, :count]
        if i < n:
            _band_matmul(step, hist, nxt)
            _band_matmul(history, v, nxt, scratch)
            hist, nxt = nxt, hist
    return out


def _fft_rows_field(kernel, grid, c, dW, cols, report):
    """Constant sigma c: u_i = sum over d of K_d v_{i-d} at the requested cells, by FFT in time.

    With a_k = K_{k+1}[rows, :] the sum is u_{i+1} = (a * v)_i, a linear
    convolution over k, i = 0..n-1.  Both sequences are zero-padded to 2n
    before rfft, so the circular product leaves no wrap-around in the first
    n outputs.  The kernel rows' transforms at every lag, khat, (n+1) x p x m
    complex, are built once, source cells FFT_BLOCK at a time (one evaluate
    call per block).  Then the replicates are taken one at a time, from the
    (n, m, R) array or as a NoiseChunk's replicates() draws them: each is
    scaled by its own max|dW|, transformed, multiplied by khat per
    frequency, transformed back, scaled back and checked, so a replicate's
    path does not depend on the others, and a field that overflows does so
    in the rows that overflow in the direct sum and not in the padded
    transforms.  khat
    is allocated before any array of length n, so a grid past memory is
    refused before any page is touched.
    """
    n, m, r = dW.shape
    rows, pick = np.unique(cols, return_inverse=True)
    if len(rows) == 1:
        # A lone cell is solved twice over: numpy runs a one-row product
        # through dot, whose sums round unlike gemv's, so its path would
        # depend on the other cells of the request.
        rows = np.repeat(rows, 2)
    p, nfft = len(rows), 2 * n
    khat = np.empty((n + 1, p, m), dtype=complex)
    y = grid.cell_centers
    lags = _cell_lags(grid.dt, n)
    for lo in range(0, m, FFT_BLOCK):
        block = slice(lo, min(lo + FFT_BLOCK, m))
        k_rows = kernel.evaluate(lags[:, None, None], y[None, rows, None], y[None, None, block])
        khat[:, :, block] = np.fft.rfft(k_rows, nfft, axis=0)
    if isinstance(dW, np.ndarray):
        replicates, noise_bytes = np.moveaxis(dW, 2, 0), dW.nbytes
    else:
        replicates, noise_bytes = dW.replicates(), 8 * n * m
    if report is not None:
        held = khat.nbytes + (n + 1) * m * 16
        report.update(noise_mib=noise_bytes / 2**20, rows_per_step=p, kernel_stack="fft",
                      stack_mib=held / 2**20)
    out = np.zeros((n + 1, len(cols), r))
    # Each replicate's noise is transformed as the rows of an (m, n) copy:
    # pocketfft runs that faster than axis 0 of (n, m), with the same bits.
    v = np.empty((m, n))
    for k, dw in enumerate(replicates):
        scale = float(max(dw.max(), -dw.min())) or 1.0
        np.divide(dw.T, scale, out=v)
        v *= c
        vhat = np.fft.rfft(v, nfft).T
        u = np.fft.irfft(khat @ vhat[:, :, None], nfft, axis=0)[:n, :, 0] * scale
        bad = ~np.isfinite(u).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            _check_finite(u[i], i + 1, rows)
        out[1:, :, k] = u[:, pick]
    return out


def scheme_variance(medium: MediumParams, grid: GridSpec, x: float) -> float:
    """Exact variance of the field scheme's u(T, x) for sigma = 1 at a cell center x.

    With sigma = 1, u(T, x) = sum over lags d and cells l of
    K_d(x, y_l) * dW_l, a sum of independent N(0, dt*dx) terms, so its
    variance is the sum of K_d(x, y_l)**2 * dt * dx over the kernel rows the
    scheme multiplies.  Set against covariance_linear it gives the scheme's
    discretization bias, free of Monte Carlo error.
    """
    y = grid.cell_centers
    rows = GreenKernel(medium).evaluate(_cell_lags(grid.dt, grid.n)[:, None], x, y[None, :])
    return float(np.sum(rows**2) * grid.dt * grid.dx)


# ---------------------------------------------------------------------------
# exact covariance of the linear case
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached by node count."""
    g, w = np.polynomial.legendre.leggauss(nodes)
    g.flags.writeable = w.flags.writeable = False
    return g, w


def covariance_linear(t: float, s: float, x: float, medium: MediumParams) -> float:
    """Time covariance E[u(t,x)u(s,x)] of the linear (sigma = 1) solution.

    Equals the time integral of the two-lag kernel cross products.  The
    substitution r = w(1 - v^2), w = min(t, s), removes the endpoint
    square-root singularity; the lags are then t - w + w*v**2 and
    s - w + w*v**2, positive for every v > 0.  The v-integral is
    Gauss-Legendre on the dyadic panels [0, 2**-P], ..., [1/2, 1].  The
    cross product's erfc onset sits at v ~ |f(x)|/sqrt(w) and the integrand
    is smooth below it, so the smallest edge 2**-P lies within 2**-3 to
    2**-2 of that scale, with P at most COV_PANELS (which x = 0 uses).  The
    nodes per panel climb _ladder from COV_NODES until two levels agree to
    1e-12 relative; raises CovarianceError past COV_MAX_NODES.  The rule
    runs at unit max(t, s), by C(l**2 t, l**2 s; l x) = l C(t, s; x), so no
    lag it forms underflows however small t and s are.
    checks.quad_covariance is the adaptive-quadrature oracle for this function.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    if min(t, s) == 0.0:
        return 0.0
    top = max(t, s)
    root = math.sqrt(top)
    unit = _panel_covariance(GreenKernel(medium), np.array([1.0]), min(t, s) / top, x / root, x)
    return root * float(unit[0])


def _ladder(level, args: tuple, nodes: int, cap: int, agree, rule: str, x) -> tuple[np.ndarray, int]:
    """Values of the entries of the arrays args, and the last node count run, doubling from `nodes`.

    level(*args, nodes) evaluates the open entries; each retires once agree(new, old) holds for
    its last two levels, and one still open past `cap` nodes raises CovarianceError.
    """
    values, left = np.empty(len(args[0])), np.arange(len(args[0]))
    prev = level(*args, nodes)
    while left.size:
        nodes *= 2
        if nodes > cap:
            raise CovarianceError(f"covariance {rule} rule did not converge with {cap} nodes "
                                  f"per {rule} at x = {float(x)!r}")
        cur = level(*args, nodes)
        done = agree(cur, prev)
        values[left[done]] = cur[done]
        left, prev, args = left[~done], cur[~done], [a[~done] for a in args]
    return values, nodes


def _panel_covariance(kernel: GreenKernel, t: np.ndarray, s: float, x: float, at: float) -> np.ndarray:
    """covariance_linear(t_i, s, x) for each t_i >= s > 0; a CovarianceError names the point at."""
    return _ladder(lambda t, nodes: _covariance_rule(kernel, t, s, x, nodes), (t,), COV_NODES,
                   COV_MAX_NODES, lambda new, old: np.abs(new - old) <= 1e-12 * np.abs(new),
                   "panel", at)[0]


def _covariance_rule(kernel: GreenKernel, t, s: float, x: float, nodes: int):
    """covariance_linear's panel rule for t >= s (t may be an array) at the given nodes per panel."""
    fx = abs(position_map(x, kernel.params))
    depth = COV_PANELS if fx == 0.0 else math.ceil(0.5 * math.log2(s) - math.log2(fx)) + 3
    edges = np.concatenate([[0.0], 2.0 ** np.arange(1 - min(max(depth, 1), COV_PANELS), 1)])
    g, gw = _leggauss(nodes)
    half = 0.5 * np.diff(edges)[:, None]
    v = (edges[:-1, None] + half * (g + 1.0)).ravel()
    q = s * v * v
    f = 2.0 * s * v * kernel.cross_integral((np.asarray(t, dtype=float)[..., None] - s) + q, q, x)
    return np.sum(f * (half * gw).ravel(), axis=-1)


def covariance_matrix(times: np.ndarray, x: float, medium: MediumParams) -> tuple[np.ndarray, int]:
    """(C, node_level): C[i, j] = covariance_linear(times[i], times[j], x) and its node level.

    times must be a uniform grid starting at 0 (t_i = i*dt).  For s <= t,
    C(t, s) = integral over q in [0, s] of cross_integral(t - s + q, q), so
    along each lag diagonal t - s = k*dt the entries are cumulative sums of
    the cell integrals over q in [c*dt, (c+1)*dt].  The diagonals are
    assembled COV_DIAGONALS at a time, straight into C, each block from its
    own cells: the first, singular at k = 0 and holding the erfc onset at
    k >= 1, is C((k+1)*dt, dt) by covariance_linear's panel rule,
    and the smooth ones c >= 1 climb _ladder from COV_CELL_NODES = 2
    Gauss-Legendre nodes (most stop at 4) until two levels agree within
    COV_CELL_TOL/n * sqrt(T/min(a1, a2)), the scale of C; past
    COV_CELL_MAX_NODES they raise CovarianceError.  A cell depends on its
    own (k, c) only, so the block width changes no bit; the build holds C
    and one block's cells.  node_level is the top level of a cell c >= 1.
    The build runs at the unit horizon: by C(l**2 t, l**2 s; l x) =
    l C(t, s; x) it is sqrt(T) times the matrix at times/T and x/sqrt(T), so
    no lag it forms underflows however small T is.
    """
    times = np.asarray(times, dtype=float)
    n = len(times) - 1 if times.ndim == 1 else 0
    dt = times[-1] / n if n >= 1 else 0.0
    if not dt > 0.0 or times[0] != 0.0 or np.any(np.abs(np.diff(times) - dt) > 1e-9 * dt):
        raise ValueError("times must be a uniform 1-D grid 0 = t_0 < t_1 < ... < t_n")
    root = math.sqrt(times[-1])
    dt, unit_x = 1.0 / n, x / root
    kernel = GreenKernel(medium)
    tol = COV_CELL_TOL / n * math.sqrt(1.0 / min(medium.a1, medium.a2))
    out = np.zeros((n + 1, n + 1))
    node_level = COV_CELL_NODES
    for k0 in range(0, n, COV_DIAGONALS):
        # cells[k - k0, c] integrates over q in [c*dt, (c+1)*dt] on diagonal k, for c < n - k.
        diagonals = np.arange(k0, min(k0 + COV_DIAGONALS, n))
        row, cell = np.nonzero(np.add.outer(diagonals, np.arange(n - k0)) < n)
        lag, smooth = row + k0, cell > 0
        cells = np.zeros((len(diagonals), n - k0))
        cells[:, 0] = _panel_covariance(kernel, dt * (diagonals + 1), dt, unit_x, x)
        values, nodes = _ladder(lambda k, c, nodes: _cell_rule(kernel, dt, unit_x, k, c, nodes),
                                (lag[smooth], cell[smooth]), COV_CELL_NODES, COV_CELL_MAX_NODES,
                                lambda new, old: np.abs(new - old) <= tol, "cell", x)
        cells[row[smooth], cell[smooth]] = values
        node_level = max(node_level, nodes)
        entries = np.cumsum(cells, axis=1)[row, cell]
        out[lag + cell + 1, cell + 1] = entries
        out[cell + 1, lag + cell + 1] = entries
    out *= root
    return out, node_level


def _cell_rule(kernel: GreenKernel, dt: float, x: float, k, c, nodes: int) -> np.ndarray:
    """The integrals of the cells (k, c), c >= 1, by Gauss-Legendre at the given nodes."""
    xg, wg = _leggauss(nodes)
    acc = np.zeros(len(k))
    for v, w in zip(0.5 * (xg + 1.0), 0.5 * wg):
        q = dt * (c + v)
        acc += dt * w * kernel.cross_integral(k * dt + q, q, x)
    return acc


# ---------------------------------------------------------------------------
# exact sampler for the linear case
# ---------------------------------------------------------------------------


def _cholesky(c: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of c, written over c and returned.

    A left-looking column loop: column j is
    (c[j+1:, j] - L[j+1:, :j] @ L[j, :j]) / L[j, j], one matrix-vector
    product per column, and row j's strict upper part is zeroed after it.
    Its bits were measured equal at 1 and 2 BLAS threads up to n = 1024,
    where threaded LAPACK potrf's were not; from n = 1536 OpenBLAS threads
    these products too, and the bits differ.  Raises CovarianceError naming
    the first pivot that is not positive; there is no diagonal shift.
    """
    for j in range(len(c)):
        row = c[j, :j]
        d = c[j, j] - row @ row
        if not d > 0.0:
            raise CovarianceError(f"covariance is not positive definite: pivot {j} is {d:.6g}")
        pivot = math.sqrt(d)
        c[j, j] = pivot
        c[j + 1:, j] = (c[j + 1:, j] - c[j + 1:, :j] @ row) / pivot
        c[j, j + 1:] = 0.0
    return c


class ExactLinearSampler:
    """Exact Gaussian path sampler at one spatial point for sigma = 1.

    Builds the (n+1)x(n+1) time covariance once on the uniform grid
    t_i = i*T/n with covariance_matrix (lag-diagonal cumulative sums of
    per-cell quadratures), factors its block past t_0 in place, so the
    factor is a view of the one (n+1)x(n+1) array, and maps per-replicate
    standard-normal streams through the factor, PATH_BLOCK replicates per
    gemm (see path_blocks).  Identical (seed, replicate) always yields the
    identical path.  `node_level` is the largest node count the cells past
    each diagonal's first reached, `covariance_s` and `cholesky_s` the wall
    seconds (perf_counter) the two build stages took, and `paths_s` the
    wall seconds spent drawing and mapping path blocks so far, not counting
    what a consumer of path_blocks does between blocks.
    """

    def __init__(self, medium: MediumParams, x: float, T: float, n: int):
        if T <= 0 or n < 1:
            raise ValueError("need T > 0 and n >= 1")
        self.x = float(x)
        self.n = int(n)
        started = time.perf_counter()
        cov, self.node_level = covariance_matrix(np.linspace(0.0, T, n + 1), x, medium)
        factoring = time.perf_counter()
        self._factor = _cholesky(cov[1:, 1:])
        self.covariance_s = factoring - started
        self.cholesky_s = time.perf_counter() - factoring
        self.paths_s = 0.0

    def path_blocks(self, seed: int, replicates: int):
        """Yield (first, rows): the paths of replicates first..first+len(rows)-1, PATH_BLOCK at a time.

        rows is a (count, n+1) view of one buffer that every block reuses, so
        a consumer reads (or scales in place) each block before asking for
        the next; column 0 is zero.  Replicate r at point x always takes the
        first n draws of the stream keyed by (seed, r, exact-path kind, bits
        of x), one standard_normals call per replicate.  They fill row
        r mod PATH_BLOCK of a (PATH_BLOCK, n) buffer for block r // PATH_BLOCK,
        rows past the last replicate are zero, and one gemm maps the block
        through the factor.  A row of the product does not depend on the
        other rows, and replicate r always sits in the same row of the
        same-shape product, so neither the replicate count nor the BLAS
        thread count changes its path.
        """
        subkey = position_subkey(self.x)
        draws = np.empty((PATH_BLOCK, self.n))
        rows = np.empty((PATH_BLOCK, self.n + 1))
        for first in range(0, replicates, PATH_BLOCK):
            started = time.perf_counter()
            count = min(PATH_BLOCK, replicates - first)
            draws[count:] = 0.0
            for k in range(count):
                draws[k] = standard_normals(seed, first + k, self.n, kind=STREAM_EXACT_PATHS,
                                            subkey=subkey)
            rows[:, 0] = 0.0
            np.matmul(draws, self._factor.T, out=rows[:, 1:])
            self.paths_s += time.perf_counter() - started
            yield first, rows[:count]

    def paths_array(self, seed: int, replicates: int) -> np.ndarray:
        """Paths of replicates 0..replicates-1, shape (replicates, n+1): path_blocks gathered."""
        out = np.empty((replicates, self.n + 1))
        for first, rows in self.path_blocks(seed, replicates):
            out[first : first + len(rows)] = rows
        return out
