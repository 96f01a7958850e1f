"""Simulation and quartic-variation inference for the stochastic heat equation
driven by multiplicative space-time white noise over a two-material medium.

The medium has piecewise-constant diffusivity and density with a single
interface at the origin.  The package evaluates the explicit fundamental
solution of the associated divergence-form heat operator, simulates the mild
solution by discretized stochastic convolution, samples exact Gaussian paths
in the linear case, and computes temporal quartic variations together with
the plug-in estimator of the local diffusivity.
"""

__version__ = "0.1.0"

from .medium import MediumParams, position_map, tau, A_of
from .kernel import GreenKernel
from .noise import GridSpec, NoiseChunk, sample_noise
from .solver import (
    SigmaSpec,
    SolverError,
    NonFiniteFieldError,
    CovarianceError,
    parse_sigma,
    solve_field_batch,
    covariance_linear,
    covariance_matrix,
    ExactLinearSampler,
)
from .stats import PointStats, PointAccumulator, averaged_points, averaged_statistics

__all__ = [
    "__version__",
    "MediumParams",
    "position_map",
    "tau",
    "A_of",
    "GreenKernel",
    "GridSpec",
    "NoiseChunk",
    "sample_noise",
    "SigmaSpec",
    "SolverError",
    "NonFiniteFieldError",
    "CovarianceError",
    "parse_sigma",
    "solve_field_batch",
    "covariance_linear",
    "covariance_matrix",
    "ExactLinearSampler",
    "PointStats",
    "PointAccumulator",
    "averaged_points",
    "averaged_statistics",
]
