"""Benchmark workloads and the configs generated for them from a seed.

Every workload is a skewheat CLI command at a fixed problem size.  The
benchmark seed only selects the noise stream, so the work done is the same
for every seed.  All workloads use the demo medium (a1=1, a2=4, rho=1) on
T=1, and every grid keeps dx <= sqrt(min(a1, a2) * dt / 4), so a spatial
resolution check will not reject a workload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

MEDIUM = {"a1": 1.0, "a2": 4.0, "rho1": 1.0, "rho2": 1.0}
T = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # skewheat subcommand
    backend: str
    sigma: str
    n: int
    m: int
    L: float
    points: tuple[float, ...]
    replicates: int
    workers: int          # capped at the core count when run
    blas_per_worker: int  # 0 means all cores (single-worker workloads only)
    gated_stat: str       # statistic gated at the off-interface points
    bias_allowance: float  # relative allowance added to 4 standard errors
    roadmap: str          # which ROADMAP item the workload exercises or bypasses
    why: str

    @property
    def chunk(self) -> int:
        """Replicates per convolution batch (the harness default chunk width)."""
        return min(64, self.replicates)

    def config_text(self, seed: int, out_dir: str, workers: int) -> str:
        points = ", ".join(repr(x) for x in self.points)
        medium = "\n".join(f"{k} = {v!r}" for k, v in MEDIUM.items())
        return (
            f"[medium]\n{medium}\n\n"
            f"[grid]\nT = {T!r}\nn = {self.n}\nL = {self.L!r}\nm = {self.m}\n\n"
            f"[experiment]\nkind = {self.command}\nsigma = {self.sigma}\n"
            f"x = {points}\nreplicates = {self.replicates}\nseed = {config_seed(self.name, seed)}\n"
            f"backend = {self.backend}\nworkers = {workers}\nout = {out_dir}\n"
        )

    def toy(self) -> "Workload":
        """The same workload at a size that runs in about a second (self-check)."""
        if self.backend == "exact-linear":
            return replace(self, n=32, replicates=400)
        return replace(self, n=16, m=32, replicates=min(self.replicates, 96))


def config_seed(name: str, seed: int) -> int:
    """64-bit config seed derived from the benchmark seed and the workload name."""
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


WORKLOADS = (
    Workload(
        name="exact-quartic",
        command="quartic",
        backend="exact-linear",
        sigma="one",
        n=512,
        m=512,
        L=4.0,
        points=(0.5,),
        replicates=1000,
        workers=1,
        blas_per_worker=0,
        gated_stat="v_quartic",
        bias_allowance=0.0,
        roadmap="exercises item 2 (lag-diagonal covariance); bypasses item 3",
        why=(
            "The demo_quartic problem. Covariance quadrature and Cholesky "
            "dominate; the kernel stack, field noise and convolution do not run."
        ),
    ),
    Workload(
        name="field-quartic-sin",
        command="quartic",
        backend="convolution",
        sigma="sin1:0.5",
        n=128,
        m=256,
        L=4.0,
        points=(-0.5, 0.0, 0.5),
        replicates=128,
        workers=2,
        blas_per_worker=1,
        gated_stat="v_quartic",
        bias_allowance=0.2,
        roadmap=("exercises item 3 (nonlinear blocked convolution, stack once per run); "
                 "bypasses item 2 and item 3's sigma=1 FFT product"),
        why=(
            "Nonlinear convolution in the process pool: two 64-replicate chunks, "
            "one per worker, each building the kernel stack. No covariance work."
        ),
    ),
    Workload(
        name="field-simulate-linear",
        command="simulate",
        backend="convolution",
        sigma="one",
        n=192,
        m=256,
        L=4.0,
        points=(-0.5, 0.0, 0.5),
        replicates=32,
        workers=1,
        blas_per_worker=1,
        gated_stat="variance_u_T",
        bias_allowance=0.0,
        roadmap=("exercises item 3's sigma=1 FFT product; bypasses item 3's "
                 "stack-once-per-run (one chunk) and item 2's covariance_matrix"),
        why=(
            "Single-threaded linear baseline with a longer time grid and one chunk; "
            "writes per-replicate path CSVs and computes the covariance_linear oracle."
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

# Predicted "no change" pairings: a change made for one ROADMAP item should
# leave every end-to-end metric of these workloads within its bound.
NO_CHANGE = {
    "item 2 (lag-diagonal covariance)": ("field-quartic-sin",),
    "item 3 sigma=1 FFT-in-time product": ("exact-quartic", "field-quartic-sin"),
    "item 3 nonlinear blocked convolution": ("exact-quartic", "field-simulate-linear"),
    "item 3 kernel stack once per run": ("exact-quartic", "field-simulate-linear"),
}
