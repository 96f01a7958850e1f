"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All Monte Carlo checks use one fixed global seed; every random
quantity is bit-reproducible, so the recorded margins are stable.
"""

import math
import time

import numpy as np
import pytest

from conftest import exact_paths, point_stats
from skewheat import (
    MediumParams,
    GridSpec,
    sample_noise,
    tau,
    A_of,
    SigmaSpec,
    solve_field_batch,
    covariance_linear,
    ExactLinearSampler,
    averaged_points,
    averaged_statistics,
)
from skewheat.checks import (
    closed_form_vs_quadrature,
    integral_bound_margins,
    pde_residual_sweep,
)
from skewheat import harness
from skewheat.kernel import GreenKernel
from skewheat.cli import main

SEED = 20250601
M14 = MediumParams(1, 4, 1, 1)


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# -- shared expensive runs ----------------------------------------------------


@pytest.fixture(scope="module")
def exact_paths_512():
    """sigma = one, x = 0.5, n = 512, R = 1000 exact-backend paths (criteria 6, 7)."""
    t0 = time.perf_counter()
    sampler = ExactLinearSampler(M14, 0.5, 1.0, 512)
    paths = exact_paths(sampler, SEED, 1000)
    return paths, time.perf_counter() - t0


# R = 8000 gives the 5% variance band a pass probability of 0.998 per noise
# stream: the sample variance is scaled chi-square about the scheme's exact
# variance (the disc_variance_u_T of the FFT product's report, 0.9981x the
# oracle at the snapped point x = 0.4375).
# At R = 500 that probability was 0.57.
CONV_REPLICATES = 8000


@pytest.fixture(scope="module")
def convolution_run():
    """sigma = one, n = 64, m = 128, L = 8 convolution paths at the cell snapped from x = 0.5.

    Returns the snapped x, the R values u(T, x) and the pooled increments.
    """
    grid = GridSpec(1.0, 64, 8.0, 128)
    j, xs = grid.snap(0.5)
    values_T = np.empty(CONV_REPLICATES)
    increments = []
    first = 0
    while first < CONV_REPLICATES:
        count = min(64, CONV_REPLICATES - first)
        stack = np.stack(
            [sample_noise(grid, SEED, first + r) for r in range(count)],
            axis=2,
        )
        u = solve_field_batch(M14, grid, SigmaSpec(), stack, columns=[j])
        values_T[first : first + count] = u[:, 0, -1]
        increments.append(np.diff(u[:, 0], axis=1))
        first += count
    return xs, values_T, np.concatenate([b.ravel() for b in increments])


# -- criteria ------------------------------------------------------------------


def test_criterion_01_kernel_reduction():
    t0 = time.perf_counter()
    t = np.linspace(0.01, 1.0, 50)[:, None, None]
    x = np.linspace(-3.0, 3.0, 50)[None, :, None]
    y = np.linspace(-3.0, 3.0, 50)[None, None, :]
    worst = 0.0
    for a, rho in ((1.0, 1.0), (4.0, 2.0)):
        kernel = GreenKernel(MediumParams(a, a, rho, rho))
        got = kernel.evaluate(t, x, y)
        ref = np.exp(-((x - y) ** 2) / (2.0 * a * t)) / np.sqrt(2.0 * math.pi * a * t)
        diff = np.abs(got - ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(ref > 1e-290, diff / ref, diff)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    _report(
        1, "kernel-reduction", worst <= 1e-12 and elapsed < 5.0,
        f"max rel err {worst:.3e} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    gaps = closed_form_vs_quadrature(SEED, 20)
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    _report(
        2, "closed-form-vs-quadrature", worst <= 1e-8 and elapsed < 30.0,
        f"worst abs gap {worst:.3e} <= 1e-8 over 20 cases, {elapsed:.2f}s < 30s",
    )


def test_criterion_03_integral_bounds_hold():
    margins = integral_bound_margins(SEED, 1000)
    ok = margins["l1"] > 0.0 and margins["l2"] > 0.0
    _report(
        3, "integral-bounds", ok,
        f"1000 cases, min margins: mass {margins['l1']:.3f}, squared {margins['l2']:.3f}",
    )


def test_criterion_04_pde_residual():
    t0 = time.perf_counter()
    kernel = GreenKernel(M14)
    worst = pde_residual_sweep(
        kernel,
        np.linspace(0.25, 1.0, 7),
        np.concatenate([np.linspace(-2.0, -0.25, 8), np.linspace(0.25, 2.0, 8)]),
        y=0.0,
        h=1e-3,
    )
    elapsed = time.perf_counter() - t0
    _report(
        4, "pde-residual", worst < 1e-3 and elapsed < 10.0,
        f"max normalized residual {worst:.3e} < 1e-3, {elapsed:.2f}s < 10s",
    )


def test_criterion_05_solver_vs_oracle(convolution_run):
    xs, values_T, increments = convolution_run
    target = covariance_linear(1.0, 1.0, xs, M14)
    var = float(np.var(values_T, ddof=1))
    rel = abs(var / target - 1.0)
    kurt = float(np.mean(increments**4) / np.mean(increments**2) ** 2)
    ok = rel <= 0.05 and abs(kurt - 3.0) <= 0.2
    _report(
        5, "solver-vs-oracle", ok,
        f"R={CONV_REPLICATES}, x={xs}: var {var:.5f} vs {target:.5f} (rel {rel:.3%} <= 5%), "
        f"kurtosis {kurt:.3f} in 3±0.2",
    )


def test_criterion_06_quartic_variation_limit(exact_paths_512):
    paths, build_seconds = exact_paths_512
    v = np.sum(np.diff(paths, axis=1) ** 4, axis=1)
    mean_v = float(np.mean(v))
    target = 3.0 / (2.0 * math.pi)
    rel = abs(mean_v / target - 1.0)
    ok = rel <= 0.05 and build_seconds < 300.0
    _report(
        6, "quartic-variation-limit", ok,
        f"n=512, R=1000: mean V {mean_v:.6f} vs {target:.6f} (rel {rel:.3%} <= 5%), "
        f"{build_seconds:.1f}s < 300s",
    )


def test_criterion_07_moment_identities(exact_paths_512):
    paths, _ = exact_paths_512
    d = np.diff(paths, axis=1)
    n = d.shape[1]
    interior = d[:, max(1, math.ceil(n / 4)) - 1 :].ravel()
    delta = 1.0 / n
    m2 = float(np.mean(interior**2))
    m4 = float(np.mean(interior**4))
    m6 = float(np.mean(interior**6))
    m4_target = 6.0 * delta * 1.0 / (4.0 * math.pi)
    rel4 = abs(m4 / m4_target - 1.0)
    ratio6 = m6 / m2**3
    ok = rel4 <= 0.05 and abs(ratio6 - 15.0) <= 1.0
    _report(
        7, "moment-identities", ok,
        f"E d^4 {m4:.3e} vs {m4_target:.3e} (rel {rel4:.3%} <= 5%), "
        f"E d^6/(E d^2)^3 = {ratio6:.2f} in 15±1",
    )


def test_criterion_08_estimator_consistency(exact_sampler_1024, exact_sampler_64):
    medians = {}
    for n, sampler in ((1024, exact_sampler_1024), (64, exact_sampler_64)):
        arr = exact_paths(sampler, SEED, 200)
        medians[n] = float(np.median(point_stats(arr, 0.5, 1.0, SigmaSpec(), M14).a_hat))
    err_1024 = abs(medians[1024] - 4.0) / 4.0
    err_64 = abs(medians[64] - 4.0) / 4.0
    ok = err_1024 <= 0.10 and err_64 <= 0.20 and err_1024 < err_64
    _report(
        8, "estimator-consistency", ok,
        f"median A_hat: n=1024 {medians[1024]:.3f} (err {err_1024:.3%} <= 10%), "
        f"n=64 {medians[64]:.3f} (err {err_64:.3%} <= 20%), decreasing {err_1024 < err_64}",
    )


def test_criterion_09_nonlinear_error_trend():
    # The quantitative n**(-1/20) rate is not reproducible at desk scale;
    # the stated substitute is a nonincreasing error trend within 2 SE.
    sigma = SigmaSpec(amp=0.5)
    errs = {}
    ses = {}
    for n in (16, 32, 64):
        grid = GridSpec(1.0, n, 8.0, 128)
        j, xs = grid.snap(0.5)
        coef = 6.0 * tau(xs, M14) / (math.pi * A_of(xs, M14))
        abs_err = np.empty(100)
        first = 0
        while first < 100:
            count = min(64, 100 - first)
            stack = np.stack(
                [sample_noise(grid, SEED, first + r) for r in range(count)],
                axis=2,
            )
            u = solve_field_batch(M14, grid, sigma, stack)
            block = u[:, j]  # (count, n+1)
            v = np.sum(np.diff(block, axis=1) ** 4, axis=1)
            limit = coef * (1.0 / n) * np.sum(sigma.evaluate(block[:, :-1]) ** 4, axis=1)
            abs_err[first : first + count] = np.abs(v - limit)
            first += count
        errs[n] = float(np.mean(abs_err))
        ses[n] = float(np.std(abs_err, ddof=1) / math.sqrt(len(abs_err)))
    ok = True
    for a, b in ((16, 32), (32, 64)):
        slack = 2.0 * math.sqrt(ses[a] ** 2 + ses[b] ** 2)
        ok = ok and (errs[b] <= errs[a] + slack)
    _report(
        9, "nonlinear-error-trend", ok,
        "mean |V - limit| over R=100: "
        + ", ".join(f"n={n}: {errs[n]:.4f}±{ses[n]:.4f}" for n in (16, 32, 64))
        + " nonincreasing within 2 SE",
    )


def test_criterion_10_averaged_statistic():
    # Bit-level identity on a simulated field: the averaged statistic is the
    # mean of the points' quartic variations.
    grid_small = GridSpec(1.0, 16, 4.0, 256)
    u = solve_field_batch(M14, grid_small, SigmaSpec(), sample_noise(grid_small, SEED, 0))
    cols, xs_small = zip(*(grid_small.snap(x) for x in averaged_points(grid_small, 16)))

    def identity(paths, xs):
        per_point = [point_stats(p[None], x, 1.0, SigmaSpec(), M14) for p, x in zip(paths, xs)]
        v_nm, _ = averaged_statistics(per_point)
        return v_nm[0] == float(np.mean([st.v[0] for st in per_point]))

    identity_field = identity(u[list(cols)], xs_small)

    # Monte Carlo tracking with the exact backend at the snapped points.
    grid = GridSpec(1.0, 256, 4.0, 256)
    snapped = [grid.snap(j / 16)[1] for j in range(16)]
    v_matrix = np.empty((200, 16))
    for idx, xs in enumerate(snapped):
        sampler = ExactLinearSampler(M14, xs, 1.0, 256)
        arr = exact_paths(sampler, SEED, 200)
        v_matrix[:, idx] = np.sum(np.diff(arr, axis=1) ** 4, axis=1)
    v_nm = v_matrix.mean(axis=1)
    targets = np.array([6.0 * tau(xs, M14) / (math.pi * A_of(xs, M14)) for xs in snapped])
    target_avg = float(np.mean(targets))
    mean_vnm = float(np.mean(v_nm))
    rel = abs(mean_vnm / target_avg - 1.0)

    # Bit-level identity again, on zero paths at the snapped points.
    identity_paths = identity(np.zeros((16, 2)), snapped)

    ok = identity_field and identity_paths and rel <= 0.10
    _report(
        10, "averaged-statistic", ok,
        f"bit-level identity {identity_field and identity_paths}; "
        f"mean V_nm {mean_vnm:.4f} vs target avg {target_avg:.4f} (rel {rel:.3%} <= 10%)",
    )


def test_criterion_11_reproducibility(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 3)  # several chunks at R = 10
    medium = "[medium]\na1 = 1.0\na2 = 4.0\nrho1 = 1.0\nrho2 = 1.0\n"
    grid = "[grid]\nT = 1.0\nn = 8\nL = 8.0\nm = 32\n"
    experiments = {
        "kernel-selftest": f"[experiment]\nseed = {SEED}\n",
        "simulate": f"[experiment]\nseed = {SEED}\nx = 0.5\nreplicates = 10\n",
        "quartic": (
            f"[experiment]\nseed = {SEED}\nsigma = sin1:0.5\nx = 0.5, -0.5\n"
            "replicates = 10\n"
        ),
        "convergence": (
            f"[experiment]\nseed = {SEED}\nx = 0.5\nreplicates = 6\n"
            "backend = exact-linear\nn_list = 8, 16\nm_list = 2\n"
        ),
        "estimate": (
            f"[experiment]\nseed = {SEED}\nx = 0.5\nreplicates = 6\nbackend = exact-linear\n"
        ),
    }
    ok = True
    details = []
    for command, exp in experiments.items():
        cfg_path = tmp_path / f"{command}.ini"
        cfg_path.write_text(medium + grid + exp)
        outputs = []
        for tag, workers in (("a", 1), ("b", 2), ("c", 1)):
            out = tmp_path / f"{command}_{tag}"
            code = main([
                command, "--config", str(cfg_path),
                "--out", str(out), "--workers", str(workers),
            ])
            assert code == 0, f"{command} exited {code}"
            blob = b""
            for name in sorted(p.name for p in out.iterdir() if p.suffix == ".csv"):
                blob += (out / name).read_bytes()
            outputs.append(blob)
        same = outputs[0] == outputs[1] == outputs[2]
        ok = ok and same
        details.append(f"{command}: {'identical' if same else 'DIFFERS'}")
    _report(11, "reproducibility", ok, "; ".join(details))
