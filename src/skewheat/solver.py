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
the solution is Gaussian and its time covariance at a fixed point
(covariance_linear) is the closed-form integral of the kernel's diagonal
when the density is the same on both sides of the interface, and a
dyadic-panel Gauss-Legendre quadrature where it jumps; the exact-linear
backend samples such paths from a
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
from .noise import GridSpec, NoiseChunk, new_generator, rekey, position_subkey, STREAM_EXACT_PATHS

# Source cells per FFT block of the constant-sigma product.
FFT_BLOCK = 32

# The newest cell's kernel lag in units of dt (see _cell_lags).
NEWEST_LAG = 0.25

# Rows per block of the semigroup operators, the direct Gaussian factor
# exp(-(f(x) - f(y))**2 / 2t) below which a column lies outside a row's band,
# and the most bytes the semigroup operators' blocks may hold together.
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

    sigma(u) is 1 + amp*sin(u) when amp is nonzero, else h1*u + h2 (SigmaSpec() is 1).
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

    def evaluate(self, u, out: np.ndarray | None = None) -> np.ndarray:
        """sigma(u), into out (u's shape, not u) when given; formed in place, with the same bits."""
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty_like(u)
        if self.amp:
            np.sin(u, out=out)
            out *= self.amp
            out += 1.0
        elif self.h1:
            np.multiply(u, self.h1, out=out)
            out += self.h2
        else:
            out.fill(self.h2)
        return out


def parse_sigma(spec: str) -> SigmaSpec:
    """Parse a sigma preset string: "one", "affine:h1,h2" or "sin1:amp"."""
    spec = spec.strip()
    if spec == "one":
        return SigmaSpec()
    if ":" in spec:
        name, _, args = spec.partition(":")
        try:
            values = [float(v) for v in args.split(",")] if args else []
        except ValueError:
            raise ValueError(f"bad numeric arguments in sigma spec {spec!r}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite numeric arguments in sigma spec {spec!r}")
        if name == "affine" and len(values) == 2:
            return SigmaSpec(h1=values[0], h2=values[1])
        if name == "sin1" and len(values) == 1:
            return SigmaSpec(amp=values[0])
    raise ValueError(f"unknown sigma spec {spec!r}; expected 'one', 'affine:h1,h2' or 'sin1:amp'")


def format_sigma(sigma: SigmaSpec) -> str:
    """The preset string that parse_sigma reads back as sigma."""
    if sigma.amp:
        return f"sin1:{sigma.amp!r}"
    return "one" if sigma == SigmaSpec() else f"affine:{sigma.h1!r},{sigma.h2!r}"


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


def _band_matmul(blocks, x, out):
    """out = A @ x for A held as _band's blocks."""
    for r0, c0, c1, a in blocks:
        np.matmul(a, x[c0:c1], out=out[r0:r0 + len(a)])


def _semigroup_operators(kernel: GreenKernel, grid: GridSpec):
    """The two banded operators of the semigroup recursion.

    The history lives on the padded grid z: the m cells plus m//2 cells of
    the same width on each side, about [-2L, 2L], with z[pad:pad+m] the cell
    centers.  With K_d the kernel at _cell_lags' lag for distance d,
    returns (fresh, step): fresh = [K_1; K_2], the rows of K_1 on the m
    cells over those of K_2 from the m cells to the padded cells, so that
    one product maps the fresh noise to both; step[j, l] = the integral of
    G_dt(z_j, y) over padded cell l.  Each is held as _band's row blocks,
    K_2's shifted down by m, and built on the blocks' column spans only.
    Raises SolverError, before any entry is evaluated, when the blocks would
    hold more than BAND_MAX_BYTES.
    """
    y = grid.cell_centers
    pad, dx, dt = grid.m // 2, grid.dx, grid.dt
    z = np.concatenate([y[0] - dx * np.arange(pad, 0, -1), y, y[-1] + dx * np.arange(1, pad + 1)])
    edges = z[0] - 0.5 * dx + dx * np.arange(len(z) + 1)
    fy, fz, fe = (position_map(a, kernel.params) for a in (y, z, edges))
    t1, t2 = _cell_lags(dt, 2)
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
    return newest + [(r0 + grid.m, c0, c1, a) for r0, c0, c1, a in history], step


def _check_finite(u: np.ndarray, i: int, cells: np.ndarray) -> None:
    """Raise NonFiniteFieldError at u's first non-finite entry; u[k, l] is time row i + k at cells[l]."""
    if not np.isfinite(u).all():
        k, l = np.argwhere(~np.isfinite(u))[0][:2]
        raise NonFiniteFieldError(f"non-finite field value at time row i={i + k}, cell j={cells[l]}")


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
    result is paths, time last, written by the scheme with no transposed
    copy: (p, n+1) or (R, p, n+1), time 0 identically zero, where p is the
    number of requested cell indices in columns (default: all m, in order).
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
    stable on every grid; it is a different scheme from the direct lag sum,
    not a rounding of it.  A step is two products, [K_1; K_2] with the fresh
    noise v_{i-1} and P with S_i, of banded operators held as blocks of
    BAND_BLOCK rows with the one column span the rows' heat kernel reaches
    (every left-out entry is below BAND_FLOOR times the Gaussian's peak), so
    a step costs O(m w R) for a block span w, and the whole pass
    O(n m w R) instead of the direct O(n**2 m**2 R).  Only the current row
    and the requested columns are kept.

    If report is given it receives noise_mib (the increments held at once:
    the whole array, or a NoiseChunk's row blocks or one replicate),
    rows_per_step (the distinct requested cells, at least two, or m),
    kernel_stack ("fft" or "semigroup"), stack_mib (the kernel and transform
    arrays held at once: for the FFT product, khat and one replicate's
    transform; for the semigroup path, the stored blocks) and, for the FFT
    product, disc_variance_u_T (the exact Var u_n at each requested cell, in
    columns order) or, for the semigroup path, band_fraction (the entries
    the blocks store over the dense size of K_1, K_2 and P).
    Raises NonFiniteFieldError naming the first offending (time row, grid
    cell) if the field overflows, on either path with no numpy warning.
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
    return out[0] if squeeze else out


def _semigroup_field(kernel, grid, sigma, dW, cols, report):
    """Nonlinear sigma: the semigroup recursion over all m cells, columns cols kept.

    dW is an (n, m, R) array or a NoiseChunk; step i reads its row i-1
    only, in time order, so a chunk's rows are never held whole.  A chunk's
    rows are its width wide, the columns past its R replicates zero noise,
    so that a replicate is solved in gemms of the same width in every chunk
    and its path does not depend on the replicate count; those columns stay
    exactly zero and are not returned.  A step is two products, a gemm per
    row block into buffers allocated once: w = [K_1; K_2] v (u is w's first
    m rows, the history's new term the rest) and P S_i, under np.errstate,
    so an overflow stops at _check_finite and not at numpy's warnings.
    Step i's kept cells go to out[:, :, i] of the (R, p, n+1) paths.
    """
    n, m, count = dW.shape
    if isinstance(dW, np.ndarray):
        rows, r, noise_bytes = dW, count, dW.nbytes
    else:
        rows, r, noise_bytes = dW.rows(), dW.width, dW.rows_nbytes
    fresh, step = _semigroup_operators(kernel, grid)
    padded = m + 2 * (m // 2)
    if report is not None:
        stored = sum(a.size for op in (fresh, step) for _, _, _, a in op)
        report.update(noise_mib=noise_bytes / 2**20, rows_per_step=m, kernel_stack="semigroup",
                      stack_mib=8 * stored / 2**20,
                      band_fraction=stored / (m * m + padded * m + padded**2))
    inner, cells = slice(m // 2, m // 2 + m), np.arange(m)
    out = np.zeros((count, len(cols), n + 1))
    w, v = np.zeros((m + padded, r)), np.empty((m, r))
    u = w[:m]
    hist, nxt = np.zeros((padded, r)), np.empty((padded, r))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, dw in enumerate(rows, 1):
            sigma.evaluate(u, out=v)
            v *= dw
            _band_matmul(fresh, v, w)
            u += hist[inner]
            _check_finite(u[None], i, cells)
            out[:, :, i] = u[cols, :count].T
            if i < n:
                _band_matmul(step, hist, nxt)
                nxt += w[m:]
                hist, nxt = nxt, hist
    return out


def _fft_rows_field(kernel, grid, c, dW, cols, report):
    """Constant sigma c: u_i = sum over d of K_d v_{i-d} at the requested cells, by FFT in time.

    With a_k = K_{k+1}[rows, :] the sum is u_{i+1} = (a * v)_i, a linear
    convolution over k, i = 0..n-1.  Both sequences are zero-padded to 2n
    before rfft, so the circular product leaves no wrap-around in the first
    n outputs.  The kernel rows' transforms at every lag, khat, (n+1) x p x m
    complex, are built once, source cells FFT_BLOCK at a time (one evaluate
    call per block); the same rows, squared, sum to the scheme's exact
    Var u_n = c**2 dt dx sum over d, l of K_d(x, y_l)**2, as u_n sums them
    times independent N(0, dt dx) increments.  Then the replicates are taken
    one at a time, from the (n, m, R) array or as a NoiseChunk's
    replicates() draws them: each is scaled by its own max|dW|, transformed,
    multiplied by khat per frequency, transformed back, scaled back, times c
    (plus 0.0: c = 0 gives +0.0) and checked, under np.errstate.  So a
    replicate's path does not depend on the others, the solve is exactly c
    times sigma = 1's, and a field that overflows stops at _check_finite, with
    no numpy warning, in the rows that overflow in the direct sum and not in
    the padded transforms; replicate k's paths go to out[k, :, 1:].  khat
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
    squares, shift = np.zeros(p), np.zeros(p, dtype=np.int32)
    for lo in range(0, m, FFT_BLOCK):
        block = slice(lo, min(lo + FFT_BLOCK, m))
        k_rows = kernel.evaluate(lags[:, None, None], y[None, rows, None], y[None, None, block])
        khat[:, :, block] = np.fft.rfft(k_rows, nfft, axis=0)
        # Row j's squares are summed at the scale 4**-shift[j], raised as a
        # block needs it, so that its peak stays below 2**480 and no square
        # or sum of 2**63 of them overflows.  Powers of two scale exactly.
        peak = np.maximum(k_rows.max(axis=(0, 2)), -k_rows.min(axis=(0, 2)))
        need = np.maximum(shift, np.frexp(peak)[1] - 480)
        squares, shift = np.ldexp(squares, 2 * (shift - need)), need
        np.ldexp(k_rows, -shift[:, None], out=k_rows)
        squares += np.square(k_rows, out=k_rows).sum(axis=(0, 2))
    if isinstance(dW, np.ndarray):
        replicates, noise_bytes = iter(np.moveaxis(dW, 2, 0)), dW.nbytes
    else:
        replicates, noise_bytes = dW.replicates(), 8 * n * m
    if report is not None:
        held = khat.nbytes + (n + 1) * m * 16
        with np.errstate(over="ignore"):  # a variance past a double's range is inf
            var = c * c * np.ldexp(squares[pick] * grid.dt * grid.dx, 2 * shift[pick])
        report.update(noise_mib=noise_bytes / 2**20, rows_per_step=p, kernel_stack="fft",
                      stack_mib=held / 2**20, disc_variance_u_T=var.tolist())
    out = np.zeros((r, len(cols), n + 1))
    # Each replicate's noise is transformed as the rows of an (m, n) copy:
    # pocketfft runs that faster than axis 0 of (n, m), with the same bits.
    # One transform buffer serves every replicate, and each one's noise is let
    # go before the next is drawn (enumerate's result tuple would hold it).
    v = np.empty((m, n))
    vhat = np.empty((m, n + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(r):
            dw = next(replicates)
            scale = float(max(dw.max(), -dw.min())) or 1.0
            np.divide(dw.T, scale, out=v)
            del dw
            np.fft.rfft(v, nfft, out=vhat)
            u = np.fft.irfft(khat @ vhat.T[:, :, None], nfft, axis=0)[:n, :, 0] * scale * c + 0.0
            _check_finite(u, 1, rows)
            out[k, :, 1:] = u[:, pick].T
    return out


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

    Equals the time integral over r in [0, min(t, s)] of the two-lag kernel
    cross products cross_integral(t - r, s - r, x).  When rho1 == rho2 these
    are the diagonal G_{t+s-2r}(x, x), whose integral is closed:
    C(t, s) = (D(t + s) - D(|t - s|)) / 2 with D the kernel's
    diagonal_integral.  Otherwise the interface term does not vanish and C
    is integrated: the substitution r = w(1 - v^2), w = min(t, s), removes
    the endpoint square-root singularity; the lags are then t - w + w*v**2
    and s - w + w*v**2, positive for every v > 0.  The v-integral is
    Gauss-Legendre on the dyadic panels [0, 2**-P], ..., [1/2, 1].  The
    cross product's erfc onset sits at v ~ |f(x)|/sqrt(w) and the integrand
    is smooth below it, so the smallest edge 2**-P lies within 2**-3 to
    2**-2 of that scale, with P at most COV_PANELS (which x = 0 uses).  The
    nodes per panel climb _ladder from COV_NODES until two levels agree to
    1e-12 relative; raises CovarianceError past COV_MAX_NODES.  Both forms
    run at unit max(t, s), by C(l**2 t, l**2 s; l x) = l C(t, s; x), so no
    lag underflows however small t and s are.
    checks.quad_covariance is the adaptive-quadrature oracle for this function.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    if min(t, s) == 0.0:
        return 0.0
    top = max(t, s)
    root = math.sqrt(top)
    low, unit_x = min(t, s) / top, x / root
    kernel = GreenKernel(medium)
    if medium.rho1 != medium.rho2:
        return root * float(_panel_covariance(kernel, np.array([1.0]), low, unit_x, x)[0])
    d = kernel.diagonal_integral(np.array([1.0 + low, 1.0 - low]), unit_x)
    return root * float(0.5 * (d[0] - d[1]))


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
    """(C, node_level): C[i, j] = covariance_linear(t_i, t_j, x) on t_i = i*T/n, and its node level.

    times must be that grid, np.linspace(0, T, n + 1), to 1e-12*T in every
    entry (ValueError otherwise); only its length n + 1 and its last entry T
    enter C, so a horizon whose grid points are subnormal (or round to 0)
    builds as well as any other.  The build runs at the unit horizon: by
    C(l**2 t, l**2 s; l x) = l C(t, s; x) it is sqrt(T) times the matrix at
    times/T and x/sqrt(T), so no lag it forms underflows however small T
    is.  When rho1 == rho2, C[i, j] = (D((i + j)/n) - D(|i - j|/n)) / 2, a
    Hankel minus a Toeplitz matrix of the 2n + 1 values of the kernel's
    diagonal_integral D, written into C through two strided views of them;
    nothing is integrated and node_level is 0.  Otherwise, for s <= t,
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
    and one block's cells.  node_level is then the top level of a cell c >= 1.
    """
    times = np.asarray(times, dtype=float)
    n, horizon = len(times) - 1, float(times[-1])
    off = np.abs(times - np.linspace(0.0, horizon, n + 1))
    if not off.max() <= 1e-12 * horizon:
        i = int(np.argmax(off))
        raise ValueError(f"times must be np.linspace(0, T, n + 1): times[{i}] = {times[i]!r} "
                         f"is {off[i]:.3g} off it at T = {horizon!r}")
    root = math.sqrt(horizon)
    dt, unit_x = 1.0 / n, x / root
    kernel = GreenKernel(medium)
    if medium.rho1 == medium.rho2:
        # d[k] = D(k/n) sqrt(T)/2; hankel[i, j] = d[i + j] and toeplitz[i, j] = d[|i - j|].
        d = (0.5 * root) * kernel.diagonal_integral(np.arange(2 * n + 1) / n, unit_x)
        hankel = np.lib.stride_tricks.sliding_window_view(d, n + 1)
        toeplitz = np.lib.stride_tricks.sliding_window_view(np.concatenate([d[n:0:-1], d[:n + 1]]), n + 1)[::-1]
        return np.subtract(hankel, toeplitz, out=np.empty((n + 1, n + 1))), 0
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
    t_i = i*T/n with covariance_matrix (closed form where rho1 == rho2, else
    lag-diagonal cumulative sums of per-cell quadratures), factors
    its block past t_0 in place, so the
    factor is a view of the one (n+1)x(n+1) array, and maps per-replicate
    standard-normal streams through the factor, PATH_BLOCK replicates per
    gemm (see path_blocks).  Identical (seed, replicate) always yields the
    identical path.  `node_level` is the largest node count the cells past
    each diagonal's first reached, 0 when nothing was integrated
    (rho1 == rho2), `covariance_s` and `cholesky_s` the wall
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
        of x), drawn by re-keying one generator that this call owns.  They
        fill row r mod PATH_BLOCK of a (PATH_BLOCK, n) buffer for block
        r // PATH_BLOCK, rows past the last replicate are zero, and one gemm
        maps the block through the factor.  A row of the product does not
        depend on the other rows, and replicate r always sits in the same row
        of the same-shape product, so neither the replicate count nor the
        BLAS thread count changes its path.
        """
        subkey = position_subkey(self.x)
        generator = new_generator()
        draws = np.empty((PATH_BLOCK, self.n))
        rows = np.empty((PATH_BLOCK, self.n + 1))
        for first in range(0, replicates, PATH_BLOCK):
            started = time.perf_counter()
            count = min(PATH_BLOCK, replicates - first)
            draws[count:] = 0.0
            for k in range(count):
                rekey(generator, seed, first + k, STREAM_EXACT_PATHS, subkey).standard_normal(
                    out=draws[k])
            rows[:, 0] = 0.0
            np.matmul(draws, self._factor.T, out=rows[:, 1:])
            self.paths_s += time.perf_counter() - started
            yield first, rows[:count]
