"""Temporal quartic variations, their limit functional, and the diffusivity estimator.

For a path observed at t_i = i*T/n the quartic variation is the sum of fourth
powers of the increments.  As the grid refines it converges to
(6*tau(x)/(pi*A(x))) * integral of sigma^4 along the path, which inverts into
a plug-in estimator of the local diffusivity A(x).

This module is the single implementation of these statistics and of the
pooled increment moments.  `point_statistics` computes all of them for the R
paths observed at one point, with time on the last axis; `averaged_statistics`
is the per-replicate mean of its V_n over the points of `averaged_points`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import MediumParams, tau, A_of
from .noise import GridSpec
from .solver import SigmaSpec


@dataclass(frozen=True)
class PointStats:
    """Per-replicate statistics of R paths observed at one point."""

    x: float
    n: int
    v: np.ndarray
    limit: np.ndarray
    a_hat: np.ndarray  # NaN where degenerate
    degenerate: int
    m2: float
    m4: float
    ratio4: float  # NaN when m2 = 0
    ratio6: float  # NaN when m2 = 0
    closed_target: float | None  # limit value for a constant sigma, else None
    m2_target: float  # leading-order E d^2 and E d^4 of the pooled increments
    m4_target: float


def _variation(d: np.ndarray) -> np.ndarray:
    sq = d * d  # products, not d**4: numpy's float pow is the slow generic routine
    sq *= sq
    return np.sum(sq, axis=-1)


def _interior_moments(pooled: np.ndarray) -> tuple[float, float, float, float]:
    """(E d^2, E d^4, ratio4, ratio6) of the pooled increments; the ratios are NaN when E d^2 = 0."""
    p2 = pooled * pooled
    p4 = p2 * p2
    m2 = float(np.mean(p2))
    m4 = float(np.mean(p4))
    if m2 == 0.0:
        return m2, m4, math.nan, math.nan
    p4 *= p2
    return m2, m4, m4 / m2**2, float(np.mean(p4)) / m2**3


def point_statistics(paths: np.ndarray, x: float, T: float, sigma: SigmaSpec,
                     medium: MediumParams) -> PointStats:
    """All statistics of paths observed at x over [0, T]: (R, n+1) paths, or one (n+1,) path.

    The limit functional is the left-endpoint Riemann sum of
    (6*tau(x)/(pi*A(x))) * int_0^T sigma^4(u(r,x)) dr, which keeps it adapted;
    the estimator is 6*T*tau(x)*sum_{i=1..n} sigma^4(u(t_i,x)) / (n*pi*V).
    For a constant sigma = c the limit is closed, coef*T*c^4.

    The increment moments pool the increments with 1-based index i >= n/4
    (start-up dropped).  Their targets are the leading-order sigma = one
    values sqrt(2*tau*dt/(pi*A)) and 6*tau*dt/(pi*A), times the pooled mean
    of sigma^2(u) and of sigma^4(u) at those increments' left endpoints:
    c^2 and c^4 for a constant sigma = c.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.shape[-1] < 2:
        raise ValueError("path needs at least 2 points")
    n = paths.shape[-1] - 1
    delta = T / n
    start = max(1, math.ceil(n / 4)) - 1
    d = np.diff(paths, axis=-1)
    v = _variation(d)
    m2, m4, ratio4, ratio6 = _interior_moments(d[..., start:])
    tau_x = tau(x, medium)
    coef = 6.0 * tau_x / (math.pi * A_of(x, medium))
    leading_m2 = math.sqrt(delta) * math.sqrt(2.0 * tau_x / (math.pi * A_of(x, medium)))
    leading_m4 = 6.0 * delta * tau_x / (A_of(x, medium) * math.pi)
    s2 = sigma.evaluate(paths) ** 2
    s2_pooled = float(np.mean(s2[..., start:-1]))
    s4 = s2
    s4 *= s4  # in place: sigma^2 is not needed past its pooled mean
    s4_left, s4_right = s4[..., :-1], s4[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        a_hat = np.where(v > 0.0,
                         6.0 * T * tau_x * np.sum(s4_right, axis=-1) / (n * math.pi * v), math.nan)
    return PointStats(
        x=x,
        n=n,
        v=v,
        limit=coef * delta * np.sum(s4_left, axis=-1),
        a_hat=a_hat,
        degenerate=int(np.sum(~(v > 0.0))),
        m2=m2,
        m4=m4,
        ratio4=ratio4,
        ratio6=ratio6,
        closed_target=None if sigma.constant is None else coef * T * sigma.constant**4,
        m2_target=leading_m2 * s2_pooled,
        m4_target=leading_m4 * float(np.mean(s4[..., start:-1])),
    )


def averaged_points(grid: GridSpec, num_points: int) -> list[float]:
    """The averaged statistic's points x_j = j/num_points, j = 0..num_points-1.

    Raises ValueError unless the grid's cell centers cover [0, 1).
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    centers = grid.cell_centers
    if centers[0] > 0.0 or centers[-1] < (num_points - 1) / num_points:
        raise ValueError("grid does not cover [0, 1) for the averaged statistic")
    return [j / num_points for j in range(num_points)]


def averaged_statistics(paths: np.ndarray, xs, T: float, sigma: SigmaSpec,
                        medium: MediumParams) -> tuple[np.ndarray, float]:
    """Averaged variation of (R, P, n+1) paths at the P points xs, and its target.

    The statistic is the per-replicate mean of the points' V_n; the target is
    the mean of their closed-form limits (NaN unless sigma is constant).
    """
    per_point = [point_statistics(paths[..., j, :], x, T, sigma, medium) for j, x in enumerate(xs)]
    v_nm = np.mean(np.stack([st.v for st in per_point], axis=-1), axis=-1)
    if sigma.constant is None:
        return v_nm, math.nan
    return v_nm, float(np.mean([st.closed_target for st in per_point]))
