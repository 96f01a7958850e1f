"""Temporal quartic variations, their limit functional, and the diffusivity estimator.

For a path observed at t_i = i*T/n the quartic variation is the sum of fourth
powers of the increments.  As the grid refines it converges to
(6*tau(x)/(pi*A(x))) * integral of sigma^4 along the path, which inverts into
a plug-in estimator of the local diffusivity A(x).

This module is the single implementation of these statistics and of the
pooled increment moments.  `PointAccumulator` computes all of them for the R
paths observed at one point, time on the last axis, a block of paths at a
time; `point_statistics` feeds it an array.  `averaged_statistics` is the
per-replicate mean of V_n over the points of `averaged_points`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .medium import MediumParams, tau, A_of
from .noise import GridSpec
from .solver import PATH_BLOCK, SigmaSpec


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


class PointAccumulator:
    """The statistics of R paths observed at x over [0, T], fed a block of paths at a time.

    add(first, rows) takes the (count, n+1) paths of replicates
    first..first+count-1 and keeps eight per-replicate sums; result() reduces
    them to a PointStats once every replicate was added.  Its temporaries
    are the size of one block, so no (R, n+1) array is ever held.

    The limit functional is the left-endpoint Riemann sum of
    (6*tau(x)/(pi*A(x))) * int_0^T sigma^4(u(r,x)) dr, which keeps it adapted;
    the estimator is 6*T*tau(x)*sum_{i=1..n} sigma^4(u(t_i,x)) / (n*pi*V).
    For a constant sigma = c the limit is closed, coef*T*c^4.

    The increment moments pool the increments with 1-based index i >= n/4
    (start-up dropped).  Their targets are the leading-order sigma = one
    values sqrt(2*tau*dt/(pi*A)) and 6*tau*dt/(pi*A), times the pooled mean
    of sigma^2(u) and of sigma^4(u) at those increments' left endpoints:
    c^2 and c^4 for a constant sigma = c.  Every pooled mean is the sum over
    replicates of the replicate's sum (np.sum along time) divided by the
    count, so how the paths are split into blocks moves no bit.
    """

    def __init__(self, replicates: int, n: int, x: float, T: float, sigma: SigmaSpec,
                 medium: MediumParams):
        self.x, self.n, self.T, self.sigma, self.medium = x, n, T, sigma, medium
        self.start = max(1, math.ceil(n / 4)) - 1
        # Per replicate: V_n, the sums of sigma^4 at left and right endpoints,
        # and the pooled sums of d^2, d^4, d^6, sigma^2 and sigma^4.
        self.sums = np.empty((8, replicates))
        self.added = 0

    def add(self, first: int, rows: np.ndarray) -> None:
        """Take the (count, n+1) paths of replicates first..first+count-1."""
        v, s4_left, s4_right, p2, p4, p6, s2_pooled, s4_pooled = self.sums[:, first : first + len(rows)]
        start = self.start
        # float64 products, sums and powers give inf or NaN where the moments
        # overflow a double, and equal Python's float ops bit for bit
        # elsewhere; those are the statistics' values, so numpy does not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = np.diff(rows, axis=-1)
            d2 *= d2
            d4 = d2 * d2  # products, not d**4: numpy's float pow is the slow generic routine
            v[:] = np.sum(d4, axis=-1)
            d2, d4 = d2[:, start:], d4[:, start:]
            p2[:], p4[:] = np.sum(d2, axis=-1), np.sum(d4, axis=-1)
            d2 *= d4  # d^6 in place: d^2 is not needed past its pooled sum
            p6[:] = np.sum(d2, axis=-1)
            s2 = self.sigma.evaluate(rows)
            s2 *= s2
            s2_pooled[:] = np.sum(s2[:, start:-1], axis=-1)
            s2 *= s2  # in place: sigma^2 is not needed past its pooled sum
            s4_left[:] = np.sum(s2[:, :-1], axis=-1)
            s4_right[:] = np.sum(s2[:, 1:], axis=-1)
            s4_pooled[:] = np.sum(s2[:, start:-1], axis=-1)
        self.added += len(rows)

    def result(self) -> PointStats:
        """The PointStats of the replicates added; all of them must have been."""
        v, s4_left, s4_right, p2, p4, p6, s2_pooled, s4_pooled = self.sums
        if self.added != len(v):
            raise ValueError(f"{self.added} of {len(v)} replicates were added")
        x, n, T, medium = self.x, self.n, self.T, self.medium
        delta = T / n
        tau_x = tau(x, medium)
        coef = 6.0 * tau_x / (math.pi * A_of(x, medium))
        leading_m2 = math.sqrt(delta) * math.sqrt(2.0 * tau_x / (math.pi * A_of(x, medium)))
        leading_m4 = 6.0 * delta * tau_x / (A_of(x, medium) * math.pi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            count = len(v) * (n - self.start)
            m2, m4, m6, s2_mean, s4_mean = (float(np.sum(t)) / count
                                            for t in (p2, p4, p6, s2_pooled, s4_pooled))
            a_hat = np.where(v > 0.0, 6.0 * T * tau_x * s4_right / (n * math.pi * v), math.nan)
            m2_64 = np.float64(m2)
            ratio4, ratio6 = float(m4 / m2_64**2), float(m6 / m2_64**3)
            constant = self.sigma.constant
            closed = None if constant is None else float(coef * T * np.float64(constant)**4)
            limit = coef * delta * s4_left
        return PointStats(x=x, n=n, v=v, limit=limit, a_hat=a_hat, degenerate=int(np.sum(~(v > 0.0))),
                          m2=m2, m4=m4, ratio4=ratio4, ratio6=ratio6, closed_target=closed,
                          m2_target=leading_m2 * s2_mean, m4_target=leading_m4 * s4_mean)


def point_statistics(paths: np.ndarray, x: float, T: float, sigma: SigmaSpec,
                     medium: MediumParams) -> PointStats:
    """All statistics of paths observed at x over [0, T]: (R, n+1) paths, or one (n+1,) path.

    The paths go through a PointAccumulator PATH_BLOCK rows at a time; for
    one path, v, limit and a_hat are scalars.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim not in (1, 2) or paths.shape[-1] < 2:
        raise ValueError("paths must be one (n+1,) path or (R, n+1) paths with n >= 1")
    rows = paths[None] if paths.ndim == 1 else paths
    acc = PointAccumulator(len(rows), rows.shape[-1] - 1, x, T, sigma, medium)
    for first in range(0, len(rows), PATH_BLOCK):
        acc.add(first, rows[first : first + PATH_BLOCK])
    st = acc.result()
    if paths.ndim == 1:
        return replace(st, v=st.v[0], limit=st.limit[0], a_hat=st.a_hat[0])
    return st


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


def averaged_statistics(per_point: list[PointStats]) -> tuple[np.ndarray, float]:
    """Averaged variation of the points' PointStats, and its target.

    The statistic is the per-replicate mean of the points' V_n; the target is
    the mean of their closed-form limits (NaN unless sigma is constant).
    """
    v_nm = np.mean(np.stack([st.v for st in per_point], axis=-1), axis=-1)
    if per_point[0].closed_target is None:
        return v_nm, math.nan
    return v_nm, float(np.mean([st.closed_target for st in per_point]))
