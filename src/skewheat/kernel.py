"""Explicit fundamental solution of the two-material heat operator.

The kernel G_t(x, y) is the heat kernel of (1/(2 rho)) d/dx (rho A d/dx) with
piecewise-constant A and rho.  It is a Gaussian in the rescaled coordinates
f(x), f(y) plus a reflected Gaussian weighted by beta*sign(y); it is not
translation invariant, so it is evaluated as a two-point function G(t, x, y).

All integral functionals (mass, squared mass, cross products at two time
lags) reduce to error-function closed forms because squares and products of
Gaussians are Gaussians; those closed forms are exercised against adaptive
quadrature in the check suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import MediumParams, position_map, A_of

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational Chebyshev coefficients of W. J. Cody, "Rational Chebyshev
# approximations for the error function", Math. Comp. 23 (1969), in the order
# of his Horner loops: erf on |x| <= 0.46875 (A/B), erfc on 0.46875 < |x| <= 4
# (C/D) and the asymptotic tail |x| > 4 (P/Q).
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# erfc(27) ~ 5e-319 is subnormal: from here on erfc is 0 (2 for negative x).
_ERFC_ZERO_AT = 27.0


def _horner(z, num_coef, den_coef):
    """Cody's paired Horner loop in z: the numerator and denominator polynomials.

    The numerator starts from num_coef[-1] z and the denominator from z; each
    step adds the next coefficient and multiplies by z, in place.
    """
    num = num_coef[-1] * z
    den = z.copy()
    for cn, cd in zip(num_coef[:-2], den_coef[:-1]):
        num += cn
        num *= z
        den += cd
        den *= z
    num += num_coef[-2]
    den += den_coef[-1]
    return num, den


def _erfc_tail(x, a, r):
    """erfc(x) = r * exp(-a**2) for x > 0 and 2 minus that for x < 0, where a = |x|.

    a**2 is split at a multiple of 1/16 so that the larger exponent is exact.
    """
    yq = np.trunc(16.0 * a) / 16.0
    r *= np.exp(-(yq * yq))
    r *= np.exp(-(a - yq) * (a + yq))
    np.subtract(2.0, r, out=r, where=x < 0.0)
    return r


def _erfc(x):
    """Complementary error function of a float array, elementwise, in numpy.

    Cody's three rational forms (see the coefficient tables above) stay
    within 1e-15 absolute error everywhere and 2e-15 relative error wherever
    erfc(x) >= 1e-300.  From |x| = 27 on the result is exactly 0 (2 for
    negative x), so erfc(+-inf) is 0 and 2; nan maps to nan.  The result
    has the shape of x.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    a = np.abs(x)
    out = np.where(x < 0.0, 2.0, 0.0)

    small = a <= 0.46875
    if small.any():
        xs = x[small]
        num, den = _horner(xs * xs, _ERF_A, _ERF_B)
        out[small] = 1.0 - xs * num / den

    mid = ~(small | (a > 4.0))  # nan falls here and stays nan
    if mid.any():
        xm = x[mid]
        am = np.abs(xm)
        num, den = _horner(am, _ERFC_C, _ERFC_D)
        num /= den
        out[mid] = _erfc_tail(xm, am, num)

    far = (a > 4.0) & (a < _ERFC_ZERO_AT)
    if far.any():
        xf = x[far]
        af = np.abs(xf)
        y = 1.0 / (af * af)
        num, den = _horner(y, _ERFC_P, _ERFC_Q)
        r = (_INV_SQRT_PI - y * num / den) / af
        out[far] = _erfc_tail(xf, af, r)
    return out.reshape(shape)


def _erfc_width(t1, t2, tsum):
    """sqrt(2 t1 t2 / tsum), factored where 2 t1 t2 is no normal double (lags < ~1e-154 or > ~1e154)."""
    with np.errstate(over="ignore"):
        prod, tiny = 2.0 * t1 * t2, np.finfo(float).tiny
        if prod.size == 0 or (prod.min() >= tiny and prod.max() < np.inf):
            return np.sqrt(prod / tsum)
        return np.where((prod >= tiny) & (prod < np.inf), np.sqrt(prod / tsum),
                        np.sqrt(2.0 * np.maximum(t1, t2) / tsum) * np.sqrt(np.minimum(t1, t2)))


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the pointwise, L1 and L2 kernel bounds, exact in the params.

    c_pointwise bounds |G_t(x,y)| by c * t**-0.5 * exp(-(f(x)-f(y))**2/(2t)).
    c_l1 bounds the y-integral of |G|.
    c_l2 enters the squared-integral bound c_l2**2 / (2 sqrt(pi) sqrt(t)).
    """

    c_pointwise: float
    c_l1: float
    c_l2: float


@dataclass(frozen=True)
class GreenKernel:
    """Evaluator for the fundamental solution and its closed-form integrals.

    Immutable; all methods are pure functions of (t, x, y) and safe to call
    concurrently.  Time lags must be strictly positive.
    """

    params: MediumParams

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _check_lag(t):
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0):
            raise ValueError("time lag must be strictly positive")
        return t

    # -- pointwise kernel ---------------------------------------------------

    def evaluate(self, t, x, y):
        """Kernel value G_t(x, y).

        sign(0) is taken as -1, pairing y = 0 with the left branch exactly as
        A, rho and f do.  Strictly positive for |beta| < 1.  Broadcasts over
        array arguments; raises ValueError on nonpositive lag.
        """
        t = self._check_lag(t)
        p, beta = self.params, self.params.beta
        y = np.asarray(y, dtype=float)
        fx, fy = (np.asarray(position_map(v, p)) for v in (x, y))  # arrays: ** 2 squares exactly
        left = y <= 0
        weight = np.where(left, 1.0 / math.sqrt(p.a1), 1.0 / math.sqrt(p.a2))
        sgn = np.where(left, -1.0, 1.0)
        # A square past the largest double is inf, and its Gaussian factor 0.
        with np.errstate(over="ignore"):
            direct = np.exp(-((fx - fy) ** 2) / (2.0 * t))
            reflected = np.exp(-((np.abs(fx) + np.abs(fy)) ** 2) / (2.0 * t))
        out = weight / np.sqrt(2.0 * math.pi * t) * (direct + beta * sgn * reflected)
        return float(out) if out.ndim == 0 else out

    # -- closed-form integrals in y ------------------------------------------

    def l1_norm(self, t, x):
        """Exact integral of |G_t(x, y)| over the real line.

        Since |beta| < 1 keeps the kernel positive, this equals the plain
        mass integral; the four error-function pieces (direct and reflected,
        each half-line) cancel to total mass one for every t and x, so the
        value is exactly 1.0 in the broadcast shape of (t, x).
        """
        t = self._check_lag(t)
        out = np.ones(np.broadcast(t, np.asarray(x, dtype=float)).shape)
        return float(out) if out.ndim == 0 else out

    def l2_norm_sq(self, t, x):
        """Exact integral of G_t(x, y)**2 over y: cross_integral at equal lags."""
        return self.cross_integral(t, t, x)

    def cross_integral(self, t1, t2, x):
        """Exact integral of G_t1(x, y) G_t2(x, y) over y.

        Symmetric in (t1, t2) and equal to l2_norm_sq when t1 == t2.  The four
        product terms are Gaussians in y whose half-line masses are error
        functions.  With b = f(x) and s = |b|, every mass on the side of x is
        centered at s, and the two cross-reflected masses on the other side
        sum to one, so the integral collapses to one erfc and one exp:
        (c0 + c1*near + c2*e) / sqrt(2 pi (t1 + t2)), where
        near = erfc(s / sqrt(2 t1 t2 / (t1 + t2))) / 2 and
        e = exp(-2 s**2 / (t1 + t2)).  For b > 0, c0 = r2,
        c1 = (1-beta)**2 r1 - (1-beta**2) r2 and c2 = beta r2; for b <= 0 the
        mirror c0 = r1, c1 = (1+beta)**2 r2 - (1-beta**2) r1 and
        c2 = -beta r1, with r_i = a_i**-1/2.
        """
        t1 = self._check_lag(t1)
        t2 = self._check_lag(t2)
        p, beta = self.params, self.params.beta
        b = np.asarray(position_map(x, self.params), dtype=float)
        s = np.abs(b)
        tsum = t1 + t2
        near = 0.5 * _erfc(s / _erfc_width(t1, t2, tsum))
        with np.errstate(over="ignore"):  # s * s past the largest double: e = exp(-inf) = 0
            e = np.exp(-2.0 * (s * s) / tsum)
        r1, r2 = 1.0 / math.sqrt(p.a1), 1.0 / math.sqrt(p.a2)
        right = b > 0
        c0 = np.where(right, r2, r1)
        c1 = np.where(right, (1.0 - beta) ** 2 * r1 - (1.0 - beta * beta) * r2,
                      (1.0 + beta) ** 2 * r2 - (1.0 - beta * beta) * r1)
        c2 = np.where(right, beta * r2, -beta * r1)
        out = (c0 + c1 * near + c2 * e) / np.sqrt(2.0 * math.pi * tsum)
        return float(out) if np.ndim(out) == 0 else out

    def cell_mass(self, t, x, lo, hi):
        """Exact integral of G_t(x, y) over the cell lo <= y <= hi.

        In u = f(y) the weight 1/sqrt(a) is the Jacobian, so each branch is a
        unit Gaussian of variance t (direct, centered at f(x)) or its
        reflection (centered at +|f(x)| on the left, -|f(x)| on the right),
        and its mass over the cell's image is an error-function difference.
        A cell straddling y = 0 is split there; the point itself belongs to
        the left branch, as in evaluate.  A branch is evaluated only on the
        cells that reach its side (lo < 0 for the left, hi > 0 for the
        right): on the others its image interval is empty and its mass
        exactly 0.0.  Entries are >= 0, and the masses of adjacent cells add
        up to the mass of their union (at most l1_norm, which is one).
        Broadcasts over array arguments.
        """
        t = self._check_lag(t)
        p, beta = self.params, self.params.beta
        b = np.asarray(position_map(x, p))
        rt, b, s, lo, hi = np.broadcast_arrays(np.sqrt(2.0 * t), b, np.abs(b),
                                               np.asarray(lo, dtype=float),
                                               np.asarray(hi, dtype=float))

        def mass(c, u0, u1, r):
            # Gaussian mass over [u0, u1] from whichever tail keeps erfc small.
            a, z = (u0 - c) / r, (u1 - c) / r
            upper = a >= 0
            return 0.5 * (_erfc(np.where(upper, a, -z)) - _erfc(np.where(upper, z, -a)))

        out = np.zeros(b.shape)
        left, right = lo < 0.0, hi > 0.0
        u0, u1, r = lo[left] / math.sqrt(p.a1), np.minimum(hi[left], 0.0) / math.sqrt(p.a1), rt[left]
        out[left] = mass(b[left], u0, u1, r) - beta * mass(s[left], u0, u1, r)
        u0, u1, r = np.maximum(lo[right], 0.0) / math.sqrt(p.a2), hi[right] / math.sqrt(p.a2), rt[right]
        out[right] += mass(b[right], u0, u1, r) + beta * mass(-s[right], u0, u1, r)
        return float(out) if out.ndim == 0 else out

    # -- bounds and diagnostics ----------------------------------------------

    def bound_constants(self) -> BoundConstants:
        """Exact constants of the pointwise/L1/L2 kernel bounds.

        The L2 constant is the one produced by chaining the pointwise bound
        with the Plancherel identity for the standard heat kernel:
        c_l2 = (a1 v a2)**0.25 * (1+|beta|) * (1/sqrt(a1) + 1/sqrt(a2)).
        """
        p = self.params
        ab = abs(p.beta)
        inv_sum = 1.0 / math.sqrt(p.a1) + 1.0 / math.sqrt(p.a2)
        c_pointwise = (1.0 + ab) / _SQRT_2PI * inv_sum
        c_l1 = inv_sum * (1.0 + ab) * max(math.sqrt(p.a1), math.sqrt(p.a2))
        c_l2 = max(p.a1, p.a2) ** 0.25 * (1.0 + ab) * inv_sum
        return BoundConstants(c_pointwise=c_pointwise, c_l1=c_l1, c_l2=c_l2)

    def pde_residual(self, t, x, y, h) -> float:
        """Absolute residual |d/dt G - (A(x)/2) d2/dx2 G| by centered differences.

        Valid only off the interface: requires t > 2h and |x| > 2h so the
        five-point stencil never crosses x = 0 or t = 0.
        """
        if not (t > 2.0 * h):
            raise ValueError("need t > 2h to difference in time")
        if not (abs(x) > 2.0 * h):
            raise ValueError("need |x| > 2h to stay off the interface")
        g = self.evaluate
        dxx = (g(t, x + h, y) - 2.0 * g(t, x, y) + g(t, x - h, y)) / (h * h)
        return abs(self.time_derivative_fd(t, x, y, h) - 0.5 * A_of(x, self.params) * dxx)

    def time_derivative_fd(self, t, x, y, h) -> float:
        """Centered finite-difference estimate of d/dt G, for normalizing residuals."""
        g = self.evaluate
        return (g(t + h, x, y) - g(t - h, x, y)) / (2.0 * h)
