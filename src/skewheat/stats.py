"""Temporal quartic variations, their limit functional, and the diffusivity estimator.

For a path observed at t_i = i*T/n the quartic variation is the sum of fourth
powers of the increments.  As the grid refines it converges to
(6*tau(x)/(pi*A(x))) * integral of sigma^4 along the path, which inverts into
a plug-in estimator of the local diffusivity A(x).

This module is the single implementation of these statistics and of the
pooled increment moments.  `point_statistics` computes all of them for the R
paths observed at one point, with time on the last axis; the per-path
functions (`quartic_variation`, `limit_functional`, `estimate_A`,
`moment_summary`) and the averaged statistic are views onto it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .medium import MediumParams, derive_constants, tau, A_of
from .noise import GridSpec
from .solver import SigmaSpec, SolutionPath, SolutionField


class DegeneratePathError(ValueError):
    """Raised when a statistic is undefined on a constant (zero-variation) path."""


@dataclass(frozen=True)
class Moments:
    """Pooled interior-increment moments: mean square and normalized ratios.

    ratio4 = E d^4 / (E d^2)^2 (3 for Gaussian increments) and
    ratio6 = E d^6 / (E d^2)^3 (15 for Gaussian increments).
    """

    mean_sq: float
    ratio4: float
    ratio6: float
    count: int


@dataclass(frozen=True)
class PointVariation:
    """Quartic variation of one averaged-statistic point."""

    x_requested: float
    x_snapped: float
    v_quartic: float


@dataclass(frozen=True)
class AveragedReport:
    """Spatially averaged quartic variation over the points j/num_points, j=0..num_points-1."""

    v_nm: float
    per_point: tuple[PointVariation, ...]
    n: int
    num_points: int


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
    m2_target: float  # leading-order E d^2 and E d^4 of the sigma = one increments
    m4_target: float


def _time_axis(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 2:
        raise ValueError("path needs at least 2 points")
    return values


def _variation(d: np.ndarray) -> np.ndarray:
    sq = d * d  # products, not d**4: numpy's float pow is the slow generic routine
    sq *= sq
    return np.sum(sq, axis=-1)


def _interior_moments(d: np.ndarray) -> tuple[int, float, float, float, float]:
    """Pooled moments of the increments with 1-based index i >= n/4 (start-up dropped).

    Returns (count, E d^2, E d^4, ratio4, ratio6); the ratios are NaN when E d^2 = 0.
    """
    pooled = d[..., max(1, math.ceil(d.shape[-1] / 4)) - 1 :]
    p2 = pooled * pooled
    p4 = p2 * p2
    m2 = float(np.mean(p2))
    m4 = float(np.mean(p4))
    if m2 == 0.0:
        return pooled.size, m2, m4, math.nan, math.nan
    p4 *= p2
    return pooled.size, m2, m4, m4 / m2**2, float(np.mean(p4)) / m2**3


def point_statistics(paths: np.ndarray, x: float, T: float, sigma: SigmaSpec,
                     medium: MediumParams) -> PointStats:
    """All statistics of paths observed at x over [0, T]: (R, n+1) paths, or one (n+1,) path.

    The limit functional is the left-endpoint Riemann sum of
    (6*tau(x)/(pi*A(x))) * int_0^T sigma^4(u(r,x)) dr, which keeps it adapted;
    the estimator is 6*T*tau(x)*sum_{i=1..n} sigma^4(u(t_i,x)) / (n*pi*V).
    For a constant sigma = c the limit is closed, coef*T*c^4.
    """
    paths = _time_axis(paths)
    n = paths.shape[-1] - 1
    delta = T / n
    d = np.diff(paths, axis=-1)
    v = _variation(d)
    _, m2, m4, ratio4, ratio6 = _interior_moments(d)
    tau_x = tau(x, derive_constants(medium))
    coef = 6.0 * tau_x / (math.pi * A_of(x, medium))
    s4 = sigma.evaluate(paths) ** 2
    s4 *= s4
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
        m2_target=math.sqrt(delta) * math.sqrt(2.0 * tau_x / (math.pi * A_of(x, medium))),
        m4_target=6.0 * delta * tau_x / (A_of(x, medium) * math.pi),
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


def quartic_variation(path: SolutionPath) -> float:
    """Sum of fourth powers of the temporal increments of the path."""
    return float(_variation(np.diff(_time_axis(path.values))))


def limit_functional(path: SolutionPath, sigma: SigmaSpec, medium: MediumParams, x: float) -> float:
    """Left-endpoint Riemann value of (6*tau(x)/(pi*A(x))) * int_0^T sigma^4(u(r,x)) dr.

    Left endpoints keep the statistic adapted; the difference from using
    right endpoints is a single term bounded by dt * sup sigma^4.
    """
    return float(point_statistics(path.values, x, path.T, sigma, medium).limit)


def estimate_A(path: SolutionPath, sigma: SigmaSpec, medium: MediumParams, x: float) -> float:
    """Plug-in diffusivity estimate 6*T*tau(x)*sum sigma^4(u(t_i,x)) / (n*pi*V).

    The sum runs over i = 1..n.  Raises DegeneratePathError when the quartic
    variation vanishes.
    """
    st = point_statistics(path.values, x, path.T, sigma, medium)
    if st.degenerate:
        raise DegeneratePathError("quartic variation is zero; estimator undefined")
    return float(st.a_hat)


def moment_summary(paths) -> Moments:
    """Pooled interior-increment moments over a collection of equal-length paths."""
    values = _time_axis([p.values for p in paths])
    count, m2, _, ratio4, ratio6 = _interior_moments(np.diff(values))
    if count < 2:
        raise ValueError("need at least 2 pooled increments")
    return Moments(mean_sq=m2, ratio4=ratio4, ratio6=ratio6, count=count)


def averaged_variation_from_paths(
    paths: list[SolutionPath],
    requested: list[float],
    num_points: int,
) -> AveragedReport:
    """Averaged statistic from per-point paths; the mean reuses the per-point values exactly."""
    per_point = tuple(
        PointVariation(x_requested=float(xr), x_snapped=p.x, v_quartic=quartic_variation(p))
        for xr, p in zip(requested, paths)
    )
    v_values = np.array([pv.v_quartic for pv in per_point])
    return AveragedReport(
        v_nm=float(np.mean(v_values)),
        per_point=per_point,
        n=paths[0].n if paths else 0,
        num_points=num_points,
    )


def averaged_variation(field: SolutionField, num_points: int) -> AveragedReport:
    """Averaged quartic variation of a field over x_j = j/num_points, j = 0..num_points-1.

    Points snap to the nearest cell center; the grid must cover [0, 1).
    """
    requested = averaged_points(field.grid, num_points)
    paths = [field.path_at(xj) for xj in requested]
    return averaged_variation_from_paths(paths, requested, num_points)
