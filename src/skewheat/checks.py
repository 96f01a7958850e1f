"""Numerical cross-checks of the kernel closed forms and the linear covariance.

Adaptive quadrature comparators and sweep suites used by the kernel-selftest
command and by the test suite.  Production solver paths never call into this
module: the closed forms and solver.covariance_linear's fixed rule stay the
only runtime routes to the integrals, and scipy.integrate is imported only
when a comparator runs.
"""

from __future__ import annotations

import math

import numpy as np

from .medium import MediumParams, position_map
from .kernel import GreenKernel


def _support(kernel: GreenKernel, t: float, x: float) -> tuple[float, float]:
    """Truncation bounds: eight Gaussian widths past every component center.

    The kernel components are Gaussians in f(y); cutting at |f| <= |f(x)| + 8*sqrt(t)
    leaves a tail below ~1e-14 of the integral.
    """
    p = kernel.params
    s = abs(position_map(x, p))
    reach = s + 8.0 * math.sqrt(t)
    return -math.sqrt(p.a1) * reach, math.sqrt(p.a2) * reach


def _split_quad(fn, lo: float, hi: float) -> float:
    """Adaptive quadrature split at the interface kink y = 0."""
    from scipy.integrate import quad  # deferred: slow to import, and most runs never call it

    total = 0.0
    for a, b in ((lo, 0.0), (0.0, hi)):
        if a < b:
            total += quad(fn, a, b, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
    return total


def quad_l1(kernel: GreenKernel, t: float, x: float) -> float:
    """Quadrature value of the integral of |G_t(x, y)| dy."""
    lo, hi = _support(kernel, t, x)
    return _split_quad(lambda y: abs(kernel.evaluate(t, x, y)), lo, hi)


def quad_cross(kernel: GreenKernel, t1: float, t2: float, x: float) -> float:
    """Quadrature value of the integral of G_t1(x, y) G_t2(x, y) dy."""
    lo, hi = _support(kernel, max(t1, t2), x)
    return _split_quad(lambda y: kernel.evaluate(t1, x, y) * kernel.evaluate(t2, x, y), lo, hi)


def quad_covariance(t: float, s: float, x: float, medium: MediumParams) -> float:
    """Adaptive-quadrature value of solver.covariance_linear, its independent oracle.

    The same substitution r = w(1 - v^2), w = min(t, s), integrated by quad
    on the dyadic panels [2**(k-1), 2**k] in v for -40 < k <= 0, plus
    [0, 2**-40].  Near the interface the integrand changes on the scale
    v ~ |x|, where a single quad over [0, 1] runs out of subdivisions.  The
    lags are formed as (t - w) + w*v**2, since t - r loses all its digits
    once w*v**2 falls below the rounding of w.
    """
    from scipy.integrate import quad  # deferred: slow to import, and most runs never call it

    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    w = min(t, s)
    if w == 0.0:
        return 0.0
    kernel = GreenKernel(medium)

    def integrand(v):
        if v <= 0.0:
            return 0.0
        q = w * v * v
        return 2.0 * w * v * kernel.cross_integral((t - w) + q, (s - w) + q, x)

    edges = [0.0] + [2.0**k for k in range(-40, 1)]
    return math.fsum(quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def brute_covariance(medium: MediumParams, t: float, s: float, x: float) -> float:
    """Two-dimensional brute-force covariance: nested quadrature of G*G over (r, y)."""
    from scipy.integrate import quad  # deferred: slow to import, and most runs never call it

    kernel = GreenKernel(medium)

    def inner(r):
        return quad_cross(kernel, t - r, max(s - r, 1e-300), x)

    return quad(inner, 0.0, min(t, s), epsabs=1e-9, epsrel=1e-9, limit=200)[0]


# ---------------------------------------------------------------------------
# sweep suites
# ---------------------------------------------------------------------------


def reduction_max_rel_error(a: float, rho: float, t_grid, x_grid, y_grid) -> float:
    """Worst relative deviation of the homogeneous kernel from the classical heat kernel.

    Values below 1e-290 (hundreds of orders under the kernel scale) are
    compared absolutely so that consistent underflow does not count as error.
    """
    kernel = GreenKernel(MediumParams(a1=a, a2=a, rho1=rho, rho2=rho))
    t = np.asarray(t_grid, dtype=float)[:, None, None]
    x = np.asarray(x_grid, dtype=float)[None, :, None]
    y = np.asarray(y_grid, dtype=float)[None, None, :]
    got = kernel.evaluate(t, x, y)
    ref = np.exp(-((x - y) ** 2) / (2.0 * a * t)) / np.sqrt(2.0 * math.pi * a * t)
    diff = np.abs(got - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(ref > 1e-290, diff / ref, diff)
    return float(np.max(rel))


def random_cases(seed: int, count: int):
    """Randomized (params, t, x, t2) cases for the closed-form and bound sweeps."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        a1 = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        a2 = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        rho1 = float(rng.uniform(0.5, 2.0))
        rho2 = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.05, 2.0))
        t2 = float(rng.uniform(0.05, 2.0))
        x = float(rng.uniform(-3.0, 3.0))
        cases.append((MediumParams(a1=a1, a2=a2, rho1=rho1, rho2=rho2), t, t2, x))
    return cases


def closed_form_vs_quadrature(seed: int, count: int) -> dict[str, float]:
    """Worst absolute closed-form-vs-quadrature gaps over randomized cases."""
    worst = {"l1": 0.0, "l2": 0.0, "cross": 0.0}
    for medium, t, t2, x in random_cases(seed, count):
        kernel = GreenKernel(medium)
        worst["l1"] = max(worst["l1"], abs(kernel.l1_norm(t, x) - quad_l1(kernel, t, x)))
        worst["l2"] = max(worst["l2"], abs(kernel.l2_norm_sq(t, x) - quad_cross(kernel, t, t, x)))
        worst["cross"] = max(
            worst["cross"], abs(kernel.cross_integral(t, t2, x) - quad_cross(kernel, t, t2, x))
        )
    return worst


def integral_bound_margins(seed: int, count: int) -> dict[str, float]:
    """Smallest margins (bound minus value) of the mass and squared-mass bounds.

    Both margins must come out positive; the size of the margin is recorded
    as a numerical safety indicator.
    """
    margin_l1 = math.inf
    margin_l2 = math.inf
    for medium, t, _, x in random_cases(seed, count):
        kernel = GreenKernel(medium)
        c = kernel.bound_constants()
        margin_l1 = min(margin_l1, c.c_l1 - kernel.l1_norm(t, x))
        bound = c.c_l2**2 / (2.0 * math.sqrt(math.pi)) / math.sqrt(t)
        margin_l2 = min(margin_l2, bound - kernel.l2_norm_sq(t, x))
    return {"l1": margin_l1, "l2": margin_l2}


def bound_points(seed: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded random (t, x, y) points for the pointwise bound; about 2% of the y are exactly 0."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.01, 2.0, size=count)
    x = rng.uniform(-4.0, 4.0, size=count)
    y = rng.uniform(-4.0, 4.0, size=count)
    y[rng.integers(0, count, size=count // 50)] = 0.0
    return t, x, y


def pointwise_bound_violations(kernel: GreenKernel, t, x, y) -> int:
    """Number of points (t, x, y) violating the pointwise bound of BoundConstants.

    The bound is |G_t(x,y)| <= c_pointwise * t**-0.5 * exp(-(f(x)-f(y))**2/(2t)).
    Broadcasts over array arguments; raises ValueError on nonpositive lag.
    """
    g = np.abs(kernel.evaluate(t, x, y))
    c = kernel.bound_constants().c_pointwise
    fx = position_map(x, kernel.params)
    fy = position_map(y, kernel.params)
    bound = c / np.sqrt(t) * np.exp(-((fx - fy) ** 2) / (2.0 * t))
    return int(np.sum(g > bound))


def pde_residual_sweep(kernel: GreenKernel, t_grid, x_grid, y: float, h: float) -> float:
    """Worst normalized interior residual of dG/dt = (A/2) d2G/dx2.

    The residual at each point is normalized by max(|dG/dt|, G/t): the time
    derivative vanishes along a curve inside the sweep box, where G/t keeps
    the denominator at the natural derivative scale.
    """
    worst = 0.0
    for t in t_grid:
        for x in x_grid:
            res = kernel.pde_residual(t, x, y, h)
            dt = abs(kernel.time_derivative_fd(t, x, y, h))
            scale = max(dt, kernel.evaluate(t, x, y) / t)
            worst = max(worst, res / scale)
    return worst


# ---------------------------------------------------------------------------
# recorded diagnostics (no pass/fail: behavior not pinned by the kernel's
# stated properties, tracked for information only)
# ---------------------------------------------------------------------------


def interface_continuity_gap(kernel: GreenKernel, t: float, y: float, eps: float = 1e-10) -> float:
    """|G(t, 0-, y) - G(t, 0+, y)|, which should vanish with eps since f is continuous."""
    return abs(kernel.evaluate(t, -eps, y) - kernel.evaluate(t, eps, y))


def chapman_kolmogorov_gap(medium: MediumParams, t: float, s: float, x: float, y: float) -> float:
    """Relative gap of the two-step composition against G_{t+s}(x,y).

    The composition is the z-integral of G_t(x,z) G_s(z,y) dz.
    """
    kernel = GreenKernel(medium)
    lo1, hi1 = _support(kernel, t, x)
    lo2, hi2 = _support(kernel, s, y)
    target = kernel.evaluate(t + s, x, y)
    composed = _split_quad(lambda z: kernel.evaluate(t, x, z) * kernel.evaluate(s, z, y),
                           min(lo1, lo2), max(hi1, hi2))
    return abs(composed - target) / abs(target)


def flux_transmission_gap(medium: MediumParams, t: float, y: float, h: float = 1e-6) -> float:
    """Relative mismatch of rho*A*dG/dx across the interface (one-sided differences)."""
    kernel = GreenKernel(medium)
    left = (kernel.evaluate(t, -h, y) - kernel.evaluate(t, -3 * h, y)) / (2 * h)
    right = (kernel.evaluate(t, 3 * h, y) - kernel.evaluate(t, h, y)) / (2 * h)
    lhs = medium.rho1 * medium.a1 * left
    rhs = medium.rho2 * medium.a2 * right
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
