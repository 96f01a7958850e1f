"""Material parameters of the two-material medium and derived constants.

The medium occupies the real line with one interface at the origin: the
diffusivity A and the density weight rho take the value (a1, rho1) on the
closed left half-line x <= 0 and (a2, rho2) on x > 0.  Every piecewise
definition in this package uses the closed left branch at x = 0 so that
A, rho, the position map f and the kernel agree bit-for-bit on branch
membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MediumParams:
    """The four positive material constants of the medium.

    a1, a2 are the diffusivities (length^2/time) on the left/right half-lines;
    rho1, rho2 are the corresponding density weights.
    """

    a1: float
    a2: float
    rho1: float
    rho2: float

    def __post_init__(self):
        for name in ("a1", "a2", "rho1", "rho2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"medium parameter {name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class DerivedConstants:
    """Dimensionless constants derived from the material parameters.

    alpha measures the jump of rho*A across the interface, beta is the
    reflection weight of the fundamental solution (always |beta| < 1), and
    eta > 0 is the interface correction factor entering the variation limit
    at x = 0 through tau(0) = eta**2.
    """

    alpha: float
    beta: float
    eta: float


def derive_constants(p: MediumParams) -> DerivedConstants:
    """Compute alpha, beta and eta from the material constants.

    All three depend on rho1, rho2 only through the ratio rho1/rho2.  A
    homogeneous medium (a1 == a2, rho1 == rho2) gives alpha = beta = 0 and
    eta = 1 exactly.
    """
    alpha = 1.0 - (p.rho1 * p.a1) / (p.rho2 * p.a2)
    sa1 = math.sqrt(p.a1)
    sa2 = math.sqrt(p.a2)
    beta = (sa1 + sa2 * (alpha - 1.0)) / (sa1 - sa2 * (alpha - 1.0))
    eta = 0.5 * ((1.0 - beta) ** 2 + math.sqrt(p.a1 / p.a2) * (1.0 + beta) ** 2)
    return DerivedConstants(alpha=alpha, beta=beta, eta=eta)


def position_map(y, p: MediumParams):
    """The piecewise-linear rescaling f(y) = y/sqrt(a1) for y <= 0, y/sqrt(a2) for y > 0.

    Continuous, strictly increasing, f(0) = 0.  Accepts scalars or arrays.
    """
    y = np.asarray(y, dtype=float)
    out = np.where(y <= 0, y / math.sqrt(p.a1), y / math.sqrt(p.a2))
    return float(out) if out.ndim == 0 else out


def tau(x: float, d: DerivedConstants) -> float:
    """Interface correction factor: eta**2 exactly at x = 0, otherwise 1."""
    return d.eta ** 2 if x == 0.0 else 1.0


def A_of(x: float, p: MediumParams) -> float:
    """Local diffusivity: a1 on x <= 0, a2 on x > 0."""
    return p.a1 if x <= 0.0 else p.a2
