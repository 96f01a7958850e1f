import math

import numpy as np
import pytest

from skewheat import (
    MediumParams,
    build_grid,
    sample_noise,
    NoiseField,
    sigma_one,
    sigma_affine,
    sigma_sin,
    parse_sigma,
    solve_field,
    covariance_linear,
    covariance_matrix,
    solve_linear_exact,
    ExactLinearSampler,
    NonFiniteFieldError,
    CovarianceError,
)
from skewheat import GreenKernel
from skewheat.solver import solve_field_batch, scheme_variance
from skewheat.checks import brute_covariance

M14 = MediumParams(1, 4, 1, 1)
HOMOG = MediumParams(1, 1, 1, 1)


# -- sigma specs -------------------------------------------------------------


def test_sigma_presets():
    one = sigma_one()
    assert one.label == "one"
    assert one.lipschitz_bound == 0.0
    assert np.array_equal(one.evaluate(np.array([-3.0, 7.0])), [1.0, 1.0])

    aff = sigma_affine(2.0, -1.0)
    assert aff.lipschitz_bound == 2.0
    assert aff.evaluate(np.array([0.0, 3.0])).tolist() == [-1.0, 5.0]

    sin = sigma_sin(0.5)
    assert sin.lipschitz_bound == 0.5
    assert sin.evaluate(np.array([0.0]))[0] == 1.0


def test_parse_sigma_round_trip_and_errors():
    assert parse_sigma("one").label == "one"
    assert parse_sigma("affine:2.0,-1.0").lipschitz_bound == 2.0
    assert parse_sigma("sin1:0.5").lipschitz_bound == 0.5
    for bad in ("two", "affine:1", "sin1:", "sin1:а"):
        with pytest.raises(ValueError):
            parse_sigma(bad)


def test_sigma_lipschitz_spot_check():
    rng = np.random.default_rng(13)
    for spec in (sigma_affine(1.7, 0.4), sigma_sin(0.5)):
        u = rng.uniform(-10, 10, size=500)
        v = rng.uniform(-10, 10, size=500)
        lhs = np.abs(spec.evaluate(u) - spec.evaluate(v))
        assert np.all(lhs <= spec.lipschitz_bound * np.abs(u - v) + 1e-12)


# -- field scheme ------------------------------------------------------------


def _zero_noise(grid, seed=0, replicate=0):
    return NoiseField(np.zeros((grid.n, grid.m)), seed, replicate)


def test_zero_noise_gives_zero_field():
    grid = build_grid(1.0, 8, 4.0, 16)
    field = solve_field(M14, grid, sigma_sin(0.5), _zero_noise(grid))
    assert np.all(field.values == 0.0)


def test_zero_sigma_gives_zero_field():
    grid = build_grid(1.0, 8, 4.0, 16)
    noise = sample_noise(grid, 21, 0)
    field = solve_field(M14, grid, sigma_affine(0.0, 0.0), noise)
    assert np.all(field.values == 0.0)


def test_initial_row_zero_and_shape():
    grid = build_grid(1.0, 8, 4.0, 16)
    field = solve_field(M14, grid, sigma_one(), sample_noise(grid, 22, 0))
    assert field.values.shape == (9, 16)
    assert np.all(field.values[0] == 0.0)


def test_incompatible_noise_shape_rejected():
    grid = build_grid(1.0, 8, 4.0, 16)
    bad = NoiseField(np.zeros((4, 16)), 0, 0)
    with pytest.raises(ValueError, match="incompatible"):
        solve_field(M14, grid, sigma_one(), bad)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_non_finite_field_abort_names_indices():
    grid = build_grid(1.0, 4, 4.0, 8)
    inc = np.zeros((4, 8))
    inc[1, 3] = 1e300
    sigma = sigma_affine(1e9, 1.0)
    with pytest.raises(NonFiniteFieldError, match=r"i=3"):
        solve_field(M14, grid, sigma, NoiseField(inc, 0, 0))


def test_linearity_in_noise_for_sigma_one():
    grid = build_grid(1.0, 10, 4.0, 24)
    n1 = sample_noise(grid, 23, 0)
    n2 = sample_noise(grid, 23, 1)
    u1 = solve_field(M14, grid, sigma_one(), n1).values
    u2 = solve_field(M14, grid, sigma_one(), n2).values
    both = solve_field(
        M14, grid, sigma_one(), NoiseField(n1.increments + n2.increments, 0, 0)
    ).values
    np.testing.assert_allclose(both, u1 + u2, rtol=1e-12, atol=1e-15)


def test_adaptedness_row_perturbation():
    grid = build_grid(1.0, 8, 4.0, 16)
    noise = sample_noise(grid, 24, 0)
    base = solve_field(M14, grid, sigma_sin(0.5), noise).values
    k = 4
    bumped = noise.increments.copy()
    bumped[k] += 0.1
    pert = solve_field(M14, grid, sigma_sin(0.5), NoiseField(bumped, 0, 0)).values
    assert np.array_equal(pert[: k + 1], base[: k + 1])
    assert not np.array_equal(pert[k + 1 :], base[k + 1 :])


def test_kernel_cache_fallback_is_bit_identical():
    grid = build_grid(1.0, 6, 4.0, 12)
    noise = sample_noise(grid, 25, 0)
    cached = solve_field(M14, grid, sigma_sin(0.5), noise).values
    uncached = solve_field(M14, grid, sigma_sin(0.5), noise, memory_budget_bytes=8).values
    assert np.array_equal(cached, uncached)


def test_batch_matches_loop_layout():
    grid = build_grid(1.0, 6, 4.0, 12)
    stack = np.stack(
        [sample_noise(grid, 26, r).increments for r in range(3)], axis=2
    )
    batch = solve_field_batch(M14, grid, sigma_sin(0.5), stack)
    assert batch.shape == (7, 12, 3)
    assert np.all(batch[0] == 0.0)


# -- exact covariance --------------------------------------------------------


def test_covariance_zero_time():
    assert covariance_linear(0.7, 0.0, 0.5, M14) == 0.0
    assert covariance_linear(0.0, 0.0, 0.5, M14) == 0.0


def test_covariance_negative_time_rejected():
    with pytest.raises(ValueError):
        covariance_linear(-0.1, 0.5, 0.5, M14)


def test_covariance_homogeneous_closed_form():
    # For a homogeneous unit medium the variance is sqrt(t/pi).
    for t in (0.25, 1.0, 2.0):
        assert covariance_linear(t, t, 1.3, HOMOG) == pytest.approx(
            math.sqrt(t / math.pi), rel=1e-9
        )
    # Unequal times: (sqrt(t+s) - sqrt(t-s)) / sqrt(2 pi).
    assert covariance_linear(1.0, 0.5, 0.2, HOMOG) == pytest.approx(
        (math.sqrt(1.5) - math.sqrt(0.5)) / math.sqrt(2 * math.pi), rel=1e-9
    )


def test_covariance_symmetry():
    assert covariance_linear(1.0, 0.5, 0.5, M14) == pytest.approx(
        covariance_linear(0.5, 1.0, 0.5, M14), rel=1e-12
    )


def test_covariance_matches_brute_force_2d():
    got = covariance_linear(1.0, 0.5, 0.5, M14)
    ref = brute_covariance(M14, 1.0, 0.5, 0.5)
    assert got == pytest.approx(ref, abs=1e-6)


def test_covariance_matrix_matches_scalar():
    times = np.linspace(0.0, 1.0, 17)
    C = covariance_matrix(times, 0.5, M14)
    assert np.all(C[0] == 0.0) and np.all(C[:, 0] == 0.0)
    np.testing.assert_allclose(C, C.T, rtol=0, atol=0)
    rng = np.random.default_rng(27)
    for _ in range(6):
        i, j = sorted(rng.integers(1, 17, size=2))
        assert C[i, j] == pytest.approx(
            covariance_linear(times[j], times[i], 0.5, M14), abs=1e-9
        )


def test_covariance_matrix_interface_point():
    times = np.linspace(0.0, 1.0, 9)
    C = covariance_matrix(times, 0.0, M14)
    assert C[8, 8] == pytest.approx(covariance_linear(1.0, 1.0, 0.0, M14), abs=1e-9)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("x", [-0.5, 0.0, 0.5, 0.93])
def test_covariance_matrix_coarse_grid_every_entry(n, x):
    # Coarse cells are where a fixed per-cell node count falls short.
    times = np.linspace(0.0, 1.0, n + 1)
    C = covariance_matrix(times, x, M14)
    for i in range(n + 1):
        for j in range(n + 1):
            assert C[i, j] == pytest.approx(
                covariance_linear(times[i], times[j], x, M14), abs=1e-9
            )


@pytest.mark.parametrize(
    "times",
    [
        np.array([0.0, 0.1, 0.3, 0.4]),
        np.linspace(0.1, 1.0, 5),
        np.array([0.0]),
        np.linspace(0.0, 1.0, 6)[::-1],
    ],
)
def test_covariance_matrix_requires_uniform_grid_from_zero(times):
    with pytest.raises(ValueError, match="uniform"):
        covariance_matrix(times, 0.5, M14)


def test_covariance_matrix_nonconvergence_raises():
    with pytest.raises(CovarianceError, match="did not reach"):
        covariance_matrix(np.linspace(0.0, 1.0, 5), 0.5, M14, max_nodes=4)


# -- exact linear sampler ------------------------------------------------------


def test_exact_paths_start_at_zero_and_reproduce():
    paths = solve_linear_exact(M14, 0.5, 1.0, 16, seed=31, replicates=4)
    assert len(paths) == 4
    for p in paths:
        assert p.values[0] == 0.0
        assert p.x == 0.5 and p.T == 1.0
    again = solve_linear_exact(M14, 0.5, 1.0, 16, seed=31, replicates=4)
    for a, b in zip(paths, again):
        assert np.array_equal(a.values, b.values)


def test_exact_paths_replicate_keying_independent_of_batch():
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    all_at_once = s.paths_array(seed=32, replicates=5)
    tail = s.paths_array(seed=32, replicates=2, first_replicate=3)
    assert np.array_equal(all_at_once[3:], tail)


def test_exact_sampler_records_jitter_and_node_level():
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    assert s.jitter == 0.0
    assert s.node_level >= 16
    assert type(s.covariance) is np.ndarray


def test_exact_increment_kurtosis_gaussian():
    s = ExactLinearSampler(M14, 0.5, 1.0, 100)
    arr = s.paths_array(seed=33, replicates=120)
    d = np.diff(arr, axis=1).ravel()  # 12000 increments
    kurt = np.mean(d**4) / np.mean(d**2) ** 2
    assert kurt == pytest.approx(3.0, abs=0.2)


def test_increment_variance_constant_small_delta():
    # E D^2 / sqrt(delta) approaches sqrt(2 tau / (pi A)) as dyadic grids refine.
    t, delta = 0.5, 2.0**-10
    for x, tau_x, a_x in ((0.5, 1.0, 4.0), (-0.5, 1.0, 1.0), (0.0, (2 / 3) ** 2, 1.0)):
        var = (
            covariance_linear(t + delta, t + delta, x, M14)
            - 2 * covariance_linear(t + delta, t, x, M14)
            + covariance_linear(t, t, x, M14)
        )
        target = math.sqrt(delta) * math.sqrt(2 * tau_x / (math.pi * a_x))
        assert var == pytest.approx(target, rel=0.05)


def test_quasi_helix_scaling_band():
    # The increment second moment scales like sqrt(delta) with stable constant.
    t = 0.5
    limit = math.sqrt(2.0 / (math.pi * 4.0))
    for k in range(4, 11):
        delta = 2.0**-k
        var = (
            covariance_linear(t + delta, t + delta, 0.5, M14)
            - 2 * covariance_linear(t + delta, t, 0.5, M14)
            + covariance_linear(t, t, 0.5, M14)
        )
        ratio = var / math.sqrt(delta)
        assert 0.9 * limit <= ratio <= 1.1 * limit


def test_solver_variance_tracks_oracle_small_run():
    # Reduced-size version of the solver-vs-oracle experiment.
    grid = build_grid(1.0, 32, 8.0, 64)
    reps = 160
    stack = np.stack(
        [sample_noise(grid, 35, r).increments for r in range(reps)], axis=2
    )
    u = solve_field_batch(M14, grid, sigma_one(), stack)
    j, xs = grid.snap(0.5)
    var = np.var(u[-1, j, :], ddof=1)
    target = covariance_linear(1.0, 1.0, xs, M14)
    assert var == pytest.approx(target, rel=0.10)


def test_second_moment_uniformly_bounded_under_refinement():
    target_mix = []
    for n, m in ((16, 64), (32, 128)):
        grid = build_grid(1.0, n, 8.0, m)
        stack = np.stack(
            [sample_noise(grid, 36, r).increments for r in range(48)], axis=2
        )
        u = solve_field_batch(M14, grid, sigma_sin(0.5), stack)
        second = np.mean(u**2, axis=2)
        assert np.isfinite(second).all()
        target_mix.append(second.max())
    assert target_mix[1] == pytest.approx(target_mix[0], rel=0.3)


# -- observed-column solve ---------------------------------------------------


def _noise_batch(grid, seed, reps):
    return np.stack([sample_noise(grid, seed, r).increments for r in range(reps)], axis=2)


@pytest.mark.parametrize("sigma", [sigma_one(), sigma_affine(0.0, 0.7)], ids=["one", "affine0"])
@pytest.mark.parametrize("n, m, reps", [(12, 24, 1), (20, 48, 3), (16, 40, 8)])
def test_constant_sigma_columns_match_full_field(sigma, n, m, reps):
    grid = build_grid(1.0, n, 4.0, m)
    cols = [grid.snap(x)[0] for x in (0.5, -0.5, 0.0, 0.5)]
    dw = _noise_batch(grid, 40, reps)
    full = solve_field_batch(M14, grid, sigma, dw)
    part = solve_field_batch(M14, grid, sigma, dw, columns=cols)
    assert part.shape == (n + 1, len(cols), reps)
    # The row-restricted products may round differently in BLAS (seen at
    # R <= 3): the deviation is measured against the field's scale.
    tol = dict(rtol=1e-13, atol=1e-14 * np.abs(full).max())
    np.testing.assert_allclose(part, full[:, cols, :], **tol)
    single = solve_field_batch(M14, grid, sigma, dw[:, :, 0], columns=cols)
    np.testing.assert_allclose(single, full[:, cols, 0], **tol)


def test_nonlinear_sigma_columns_equal_full_field_exactly():
    grid = build_grid(1.0, 10, 4.0, 24)
    cols = [3, 17, 3, 0, 23]
    dw = _noise_batch(grid, 41, 3)
    full = solve_field_batch(M14, grid, sigma_sin(0.5), dw)
    report = {}
    part = solve_field_batch(M14, grid, sigma_sin(0.5), dw, columns=cols, report=report)
    assert np.array_equal(part, full[:, cols, :])
    assert report["rows_per_step"] == 24


@pytest.mark.parametrize("sigma", [sigma_one(), sigma_sin(0.5)], ids=["one", "sin"])
def test_column_solve_cache_fallback_is_bit_identical(sigma):
    grid = build_grid(1.0, 8, 4.0, 16)
    cols = [11, 2]
    dw = _noise_batch(grid, 42, 2)
    cached_report, fallback_report = {}, {}
    cached = solve_field_batch(M14, grid, sigma, dw, columns=cols, report=cached_report)
    fallback = solve_field_batch(M14, grid, sigma, dw, memory_budget_bytes=8, columns=cols,
                                 report=fallback_report)
    assert np.array_equal(cached, fallback)
    rows = 2 if sigma.lipschitz_bound == 0.0 else 16
    assert cached_report == {"rows_per_step": rows, "kernel_stack": "cached",
                             "stack_mib": 8 * rows * 16 * 8 / 2**20}
    assert fallback_report == {"rows_per_step": rows, "kernel_stack": "recomputed",
                               "stack_mib": rows * 16 * 8 / 2**20}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_column_solve_overflow_names_grid_cell():
    grid = build_grid(1.0, 4, 4.0, 16)
    inc = np.zeros((4, 16))
    inc[1, :] = 1e308
    with pytest.raises(NonFiniteFieldError, match=r"i=2, cell j=5$"):
        solve_field_batch(M14, grid, sigma_one(), inc, columns=[12, 5])


def test_columns_out_of_range_rejected():
    grid = build_grid(1.0, 4, 4.0, 16)
    with pytest.raises(ValueError, match="columns"):
        solve_field_batch(M14, grid, sigma_one(), np.zeros((4, 16)), columns=[3, 16])


def test_scheme_variance_is_direct_kernel_sum():
    grid = build_grid(1.0, 12, 4.0, 40)
    j, xs = grid.snap(0.5)
    kernel = GreenKernel(M14)
    lags = [grid.dt / 4] + [(d - 0.5) * grid.dt for d in range(2, grid.n + 1)]
    direct = sum(
        float(kernel.evaluate(lag, xs, y)) ** 2 for lag in lags for y in grid.cell_centers
    ) * grid.dt * grid.dx
    assert scheme_variance(M14, grid, xs) == pytest.approx(direct, rel=1e-13)
    # It is the exact variance of the scheme's u(T, x): compare with the
    # linear map from the noise, one unit increment per cell at a time.
    reps = grid.n * grid.m
    basis = np.eye(reps).reshape(grid.n, grid.m, reps) * math.sqrt(grid.dt * grid.dx)
    u_T = solve_field_batch(M14, grid, sigma_one(), basis, columns=[j])[-1, 0]
    assert np.sum(u_T**2) == pytest.approx(direct, rel=1e-12)
