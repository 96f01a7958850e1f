"""Mild-solution solver: discretized stochastic convolution and exact linear paths.

The field scheme is a single causal pass: the increment of u over one time
cell is the kernel (evaluated at a within-cell lag) times sigma of the field
at the cell's left endpoint times the white-noise increment, summed over all
past cells.  For sigma identically one the solution is Gaussian and its time
covariance at a fixed point has an exact quadrature representation; the
exact-linear backend samples such paths from a factorized covariance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .medium import MediumParams
from .kernel import GreenKernel
from .noise import GridSpec, NoiseField, standard_normals, position_subkey, STREAM_EXACT_PATHS

DEFAULT_MEMORY_BUDGET = 2 * 1024**3


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
    """Nonlinear noise coefficient with its Lipschitz bound and a report label."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    label: str


def _eval_const(u, value):
    u = np.asarray(u, dtype=float)
    return np.full_like(u, value)


def _eval_affine(u, h1, h2):
    return h1 * np.asarray(u, dtype=float) + h2


def _eval_sin1(u, amp):
    return 1.0 + amp * np.sin(np.asarray(u, dtype=float))


def sigma_one() -> SigmaSpec:
    """sigma identically one (the linear, exactly Gaussian case)."""
    return SigmaSpec(evaluate=partial(_eval_const, value=1.0), lipschitz_bound=0.0, label="one")


def sigma_affine(h1: float, h2: float) -> SigmaSpec:
    """sigma(u) = h1*u + h2, Lipschitz bound |h1|."""
    return SigmaSpec(
        evaluate=partial(_eval_affine, h1=float(h1), h2=float(h2)),
        lipschitz_bound=abs(float(h1)),
        label=f"affine:{float(h1)!r},{float(h2)!r}",
    )


def sigma_sin(amp: float) -> SigmaSpec:
    """sigma(u) = 1 + amp*sin(u), Lipschitz bound |amp|."""
    return SigmaSpec(
        evaluate=partial(_eval_sin1, amp=float(amp)),
        lipschitz_bound=abs(float(amp)),
        label=f"sin1:{float(amp)!r}",
    )


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
        if name == "affine" and len(values) == 2:
            return sigma_affine(*values)
        if name == "sin1" and len(values) == 1:
            return sigma_sin(values[0])
    raise ValueError(f"unknown sigma spec {spec!r}; expected 'one', 'affine:h1,h2' or 'sin1:amp'")


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionPath:
    """Values u(t_i, x) at one spatial point over the time grid t_i = i*T/n."""

    values: np.ndarray
    x: float
    T: float

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, len(self.values))


@dataclass(frozen=True)
class SolutionField:
    """Simulated field u(s_i, y_l) on the full grid, with provenance.

    Row 0 is the zero initial condition; row i depends on noise rows < i only.
    """

    values: np.ndarray
    grid: GridSpec
    medium: MediumParams
    sigma_label: str
    seed: int
    replicate: int

    def path_at(self, x: float) -> SolutionPath:
        """Time path at the cell center nearest to x (ties snap left)."""
        j, xs = self.grid.snap(x)
        return SolutionPath(values=self.values[:, j].copy(), x=xs, T=self.grid.T)


# ---------------------------------------------------------------------------
# field scheme
# ---------------------------------------------------------------------------


def _cell_lags(grid: GridSpec) -> np.ndarray:
    """Kernel time lag for each past-cell distance d = 1..n.

    Older cells use the midpoint lag (d - 1/2)*dt.  The newest cell (d = 1)
    uses dt/4, which reproduces the exact cell average of the leading
    r**-1/2 profile of the squared-kernel mass; the midpoint there would
    understate the cell's variance contribution by a factor sqrt(2)/2.
    """
    d = np.arange(1, grid.n + 1, dtype=float)
    lags = (d - 0.5) * grid.dt
    lags[0] = 0.25 * grid.dt
    return lags


def _kernel_matrices(kernel: GreenKernel, grid: GridSpec, budget: int):
    """Per-lag kernel matrices K_d[j, l] = G_lag(d)(y_j, y_l), cached if they fit."""
    lags = _cell_lags(grid)
    y = grid.cell_centers
    if grid.n * grid.m * grid.m * 8 <= budget:
        stack = np.empty((grid.n, grid.m, grid.m))
        for d in range(grid.n):
            stack[d] = kernel.evaluate(lags[d], y[:, None], y[None, :])
        return stack, lags
    return None, lags


def solve_field_batch(
    medium: MediumParams,
    grid: GridSpec,
    sigma: SigmaSpec,
    increments: np.ndarray,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """Run the causal convolution scheme for a batch of noise replicates.

    increments has shape (n, m) or (n, m, R); the result has shape
    (n+1, m) or (n+1, m, R) with row 0 identically zero.  Raises
    NonFiniteFieldError naming the first offending (time row, cell) if the
    field overflows.
    """
    dW = np.asarray(increments, dtype=float)
    squeeze = dW.ndim == 2
    if squeeze:
        dW = dW[:, :, None]
    n, m = grid.n, grid.m
    if dW.shape[0] != n or dW.shape[1] != m:
        raise ValueError(
            f"noise shape {dW.shape[:2]} incompatible with grid (n={n}, m={m})"
        )
    kernel = GreenKernel(medium)
    stack, lags = _kernel_matrices(kernel, grid, memory_budget_bytes)
    y = grid.cell_centers
    r = dW.shape[2]
    u = np.zeros((n + 1, m, r))
    v = np.empty((n, m, r))
    for i in range(1, n + 1):
        k = i - 1
        v[k] = sigma.evaluate(u[k]) * dW[k]
        acc = np.zeros((m, r))
        for d in range(1, i + 1):
            kd = stack[d - 1] if stack is not None else kernel.evaluate(
                lags[d - 1], y[:, None], y[None, :]
            )
            acc += kd @ v[i - d]
        if not np.isfinite(acc).all():
            j = int(np.argwhere(~np.isfinite(acc))[0][0])
            raise NonFiniteFieldError(
                f"non-finite field value at time row i={i}, cell j={j}"
            )
        u[i] = acc
    return u[:, :, 0] if squeeze else u


def solve_field(
    medium: MediumParams,
    grid: GridSpec,
    sigma: SigmaSpec,
    noise: NoiseField,
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
) -> SolutionField:
    """Compute the mild solution for one noise replicate."""
    values = solve_field_batch(medium, grid, sigma, noise.increments, memory_budget_bytes)
    return SolutionField(
        values=values,
        grid=grid,
        medium=medium,
        sigma_label=sigma.label,
        seed=noise.seed,
        replicate=noise.replicate,
    )


# ---------------------------------------------------------------------------
# exact covariance of the linear case
# ---------------------------------------------------------------------------


def covariance_linear(t: float, s: float, x: float, medium: MediumParams) -> float:
    """Time covariance E[u(t,x)u(s,x)] of the linear (sigma = 1) solution.

    Equals the time integral of the two-lag kernel cross products.  The
    substitution r = w(1 - v^2), w = min(t, s), removes the endpoint
    square-root singularity before adaptive quadrature.
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    w = min(t, s)
    if w == 0.0:
        return 0.0
    kernel = GreenKernel(medium)

    def integrand(v):
        if v <= 0.0:
            return 0.0
        r = w * (1.0 - v * v)
        return 2.0 * w * v * kernel.cross_integral(t - r, max(s - r, w * v * v), x)

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


class CovarianceMatrix(np.ndarray):
    """Covariance matrix that records the largest per-cell node level its quadrature used."""

    node_level: int


def covariance_matrix(
    times: np.ndarray,
    x: float,
    medium: MediumParams,
    tol: float = 1e-9,
    start_nodes: int = 8,
    max_nodes: int = 1024,
) -> CovarianceMatrix:
    """Covariance matrix C[i, j] = covariance_linear(times[i], times[j], x).

    times must be a uniform grid starting at 0 (t_i = i*dt).  For s <= t,
    C(t, s) = integral over q in [0, s] of cross_integral(t - s + q, q), so
    along each lag diagonal t - s = k*dt the entries are cumulative sums of
    the cell integrals over q in [c*dt, (c+1)*dt].  All cells are integrated
    together by Gauss-Legendre; the first cell of every diagonal uses
    q = dt*v**2, which removes the q**-1/2 endpoint at k = 0 and the
    erfc(const/sqrt(2q)) onset at k >= 1.  Each cell starts at start_nodes
    and doubles its nodes until successive levels agree within tol/n, so
    every entry (a sum of at most n cells) is within about tol; raises
    CovarianceError if a cell needs more than max_nodes.  The result's
    node_level is the largest node level any cell reached.
    """
    times = np.asarray(times, dtype=float)
    n = len(times) - 1 if times.ndim == 1 else 0
    dt = times[-1] / n if n >= 1 else 0.0
    if not dt > 0.0 or times[0] != 0.0 or np.any(np.abs(np.diff(times) - dt) > 1e-9 * dt):
        raise ValueError("times must be a uniform 1-D grid 0 = t_0 < t_1 < ... < t_n")
    kernel = GreenKernel(medium)
    # One (lag k, cell c) pair per cell integral: c runs over 0..n-k-1.
    lag, cell = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    first = cell == 0

    def level(indices, nodes):
        xg, wg = np.polynomial.legendre.leggauss(nodes)
        k0, c = lag[indices] * dt, cell[indices]
        f = first[indices]
        acc = np.zeros(len(indices))
        for v, w in zip(0.5 * (xg + 1.0), 0.5 * wg):
            q = np.where(f, dt * v * v, dt * (c + v))
            acc += np.where(f, 2.0 * dt * v * w, dt * w) * kernel.cross_integral(k0 + q, q, x)
        return acc

    values = np.empty(len(lag))
    idx = np.arange(len(lag))
    nodes = start_nodes
    prev = level(idx, nodes)
    while idx.size:
        nodes *= 2
        if nodes > max_nodes:
            raise CovarianceError(
                f"covariance quadrature did not reach tol={tol} with {max_nodes} nodes per cell"
            )
        cur = level(idx, nodes)
        done = np.abs(cur - prev) <= tol / n
        values[idx[done]] = cur[done]
        idx = idx[~done]
        prev = cur[~done]
    cells = np.zeros((n, n))
    cells[lag, cell] = values
    entries = np.cumsum(cells, axis=1)[lag, cell]
    out = np.zeros((n + 1, n + 1)).view(CovarianceMatrix)
    out[lag + cell + 1, cell + 1] = entries
    out[cell + 1, lag + cell + 1] = entries
    out.node_level = nodes
    return out


# ---------------------------------------------------------------------------
# exact sampler for the linear case
# ---------------------------------------------------------------------------


class ExactLinearSampler:
    """Exact Gaussian path sampler at one spatial point for sigma = 1.

    Builds the (n+1)x(n+1) time covariance once on the uniform grid
    t_i = i*T/n with covariance_matrix (lag-diagonal cumulative sums of
    per-cell quadratures), factorizes it (with a diagonal jitter ladder if
    the plain factorization fails) and then maps per-replicate
    standard-normal streams through the factor.  Identical (seed, replicate)
    always yields the identical path.  `jitter` is the value added to every
    diagonal entry before the factorization succeeded (0.0 when none) and
    `node_level` the largest per-cell Gauss-Legendre node count the
    covariance quadrature reached.
    """

    def __init__(self, medium: MediumParams, x: float, T: float, n: int, tol: float = 1e-9):
        if T <= 0 or n < 1:
            raise ValueError("need T > 0 and n >= 1")
        self.medium = medium
        self.x = float(x)
        self.T = float(T)
        self.n = int(n)
        self.times = np.linspace(0.0, T, n + 1)
        cov = covariance_matrix(self.times, x, medium, tol=tol)
        self.node_level = int(cov.node_level)
        self.covariance = np.asarray(cov)
        self._factor, self.jitter = self._factorize(self.covariance[1:, 1:])

    @staticmethod
    def _factorize(c: np.ndarray) -> tuple[np.ndarray, float]:
        """Cholesky factor of c and the diagonal jitter it needed."""
        scale = float(np.max(np.diag(c)))
        for jitter in (0.0, 1e-12, 1e-10, 1e-8):
            try:
                return np.linalg.cholesky(c + jitter * scale * np.eye(len(c))), jitter * scale
            except np.linalg.LinAlgError:
                continue
        smallest = float(np.linalg.eigvalsh(c)[0])
        raise CovarianceError(
            f"covariance factorization failed after regularization; "
            f"smallest eigenvalue estimate {smallest:.3e}"
        )

    def paths_array(self, seed: int, replicates: int, first_replicate: int = 0) -> np.ndarray:
        """Sample paths as an array of shape (replicates, n+1); column 0 is zero.

        Replicate r at point x always consumes the stream keyed by
        (seed, r, exact-path kind, bits of x), independent of batch layout.
        """
        subkey = position_subkey(self.x)
        out = np.zeros((replicates, self.n + 1))
        for k in range(replicates):
            z = standard_normals(
                seed, first_replicate + k, self.n, kind=STREAM_EXACT_PATHS, subkey=subkey
            )
            out[k, 1:] = self._factor @ z
        return out

    def paths(self, seed: int, replicates: int, first_replicate: int = 0) -> list[SolutionPath]:
        arr = self.paths_array(seed, replicates, first_replicate)
        return [SolutionPath(values=row, x=self.x, T=self.T) for row in arr]


def solve_linear_exact(
    medium: MediumParams,
    x: float,
    T: float,
    n: int,
    seed: int,
    replicates: int,
) -> list[SolutionPath]:
    """Exact Gaussian sample paths of the linear solution at the point x."""
    return ExactLinearSampler(medium, x, T, n).paths(seed, replicates)
