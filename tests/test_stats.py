import math

import numpy as np
import pytest

from skewheat import (
    MediumParams,
    build_grid,
    sample_noise,
    derive_constants,
    tau,
    A_of,
    sigma_one,
    sigma_affine,
    sigma_sin,
    solve_field,
    SolutionPath,
    ExactLinearSampler,
    quartic_variation,
    limit_functional,
    estimate_A,
    averaged_variation,
    averaged_variation_from_paths,
    moment_summary,
    DegeneratePathError,
)
from skewheat.stats import point_statistics, averaged_statistics

M14 = MediumParams(1, 4, 1, 1)


def _path(values, x=0.5, T=1.0):
    return SolutionPath(values=np.asarray(values, dtype=float), x=x, T=T)


# -- quartic variation ---------------------------------------------------------


def test_quartic_examples():
    assert quartic_variation(_path([2.0, 2.0, 2.0])) == 0.0
    assert quartic_variation(_path([0.0, 1.0, -1.0])) == 17.0


def test_quartic_too_short_path():
    with pytest.raises(ValueError):
        quartic_variation(_path([1.0]))


def test_quartic_shift_and_negation_invariance():
    rng = np.random.default_rng(41)
    vals = rng.normal(size=33)
    v = quartic_variation(_path(vals))
    assert quartic_variation(_path(vals + 5.0)) == pytest.approx(v, rel=1e-12)
    assert quartic_variation(_path(-vals)) == v


# -- limit functional ----------------------------------------------------------


def test_limit_functional_sigma_one_closed_form():
    path = _path(np.zeros(65), x=0.5)
    assert limit_functional(path, sigma_one(), M14, 0.5) == pytest.approx(
        6.0 / (math.pi * 4.0), rel=1e-14
    )
    # At the interface the eta^2 correction enters with the left diffusivity.
    d = derive_constants(M14)
    assert limit_functional(_path(np.zeros(65), x=0.0), sigma_one(), M14, 0.0) == pytest.approx(
        6.0 * d.eta**2 / math.pi, rel=1e-14
    )


def test_limit_functional_zero_path_vanishing_sigma():
    path = _path(np.zeros(17))
    assert limit_functional(path, sigma_affine(1.0, 0.0), M14, 0.5) == 0.0


def test_limit_functional_vs_trapezoid():
    # The left-endpoint sum differs from the trapezoidal rule by exactly
    # half a cell of the endpoint difference.
    rng = np.random.default_rng(42)
    vals = rng.normal(size=129) * 0.3
    path = _path(vals)
    sigma = sigma_sin(0.5)
    got = limit_functional(path, sigma, M14, 0.5)
    s4 = sigma.evaluate(vals) ** 4
    delta = path.T / (len(vals) - 1)
    coef = 6.0 * tau(0.5, derive_constants(M14)) / (math.pi * A_of(0.5, M14))
    trapz = coef * delta * (np.sum(s4) - 0.5 * s4[0] - 0.5 * s4[-1])
    bound = coef * delta * 0.5 * abs(s4[0] - s4[-1]) + 1e-12
    assert abs(got - trapz) <= bound


# -- estimator ------------------------------------------------------------------


def test_estimator_sigma_one_identity():
    rng = np.random.default_rng(43)
    path = _path(rng.normal(size=65), x=0.5)
    v = quartic_variation(path)
    assert estimate_A(path, sigma_one(), M14, 0.5) == pytest.approx(
        6.0 * 1.0 / (math.pi * v), rel=1e-12
    )


def test_estimator_scale_equivariance_constant_sigma():
    rng = np.random.default_rng(44)
    path = _path(rng.normal(size=65), x=0.5)
    v = quartic_variation(path)
    c = 1.7
    got = estimate_A(path, sigma_affine(0.0, c), M14, 0.5)
    assert got == pytest.approx(6.0 * path.T * c**4 / (math.pi * v), rel=1e-12)


def test_estimator_interface_uses_eta_squared():
    rng = np.random.default_rng(45)
    path = _path(rng.normal(size=65), x=0.0)
    d = derive_constants(M14)
    v = quartic_variation(path)
    assert estimate_A(path, sigma_one(), M14, 0.0) == pytest.approx(
        6.0 * d.eta**2 / (math.pi * v), rel=1e-12
    )


def test_estimator_degenerate_path():
    with pytest.raises(DegeneratePathError):
        estimate_A(_path(np.ones(17)), sigma_one(), M14, 0.5)


# -- moment summary --------------------------------------------------------------


def test_moment_summary_zigzag():
    vals = np.zeros(65)
    vals[1::2] = 0.5
    m = moment_summary([_path(vals)])
    assert m.ratio4 == pytest.approx(1.0, rel=1e-12)
    assert m.ratio6 == pytest.approx(1.0, rel=1e-12)
    assert m.mean_sq == pytest.approx(0.25, rel=1e-12)


def test_moment_summary_needs_increments():
    with pytest.raises(ValueError):
        moment_summary([_path([0.0, 1.0])])  # single increment after filtering


def test_moment_summary_gaussian_ratios():
    sampler = ExactLinearSampler(M14, 0.5, 1.0, 64)
    paths = sampler.paths(seed=46, replicates=150)
    m = moment_summary(paths)
    assert m.ratio4 == pytest.approx(3.0, abs=0.2)
    assert m.ratio6 == pytest.approx(15.0, abs=2.5)
    delta = 1.0 / 64
    assert m.mean_sq == pytest.approx(
        math.sqrt(delta) * math.sqrt(2.0 / (math.pi * 4.0)), rel=0.05
    )


# -- statistics core and its views --------------------------------------------

SIGMAS = {"one": sigma_one(), "affine:0,0.7": sigma_affine(0.0, 0.7), "sin1:0.5": sigma_sin(0.5)}


@pytest.mark.parametrize("x", [0.5, -0.5, 0.0])
@pytest.mark.parametrize("label", sorted(SIGMAS))
def test_point_statistics_equals_per_path_views(label, x):
    sigma = SIGMAS[label]
    rng = np.random.default_rng(50)
    paths = rng.normal(size=(6, 41)) * 0.3
    paths[2] = 0.8  # one constant row
    st = point_statistics(paths, x, 1.0, sigma, M14)
    assert st.degenerate == 1
    for r, row in enumerate(paths):
        path = _path(row, x=x)
        assert st.v[r] == quartic_variation(path)
        assert st.limit[r] == limit_functional(path, sigma, M14, x)
        if math.isnan(st.a_hat[r]):
            with pytest.raises(DegeneratePathError):
                estimate_A(path, sigma, M14, x)
        else:
            assert st.a_hat[r] == estimate_A(path, sigma, M14, x)
    m = moment_summary([_path(row) for row in paths])
    assert (st.m2, st.ratio4, st.ratio6) == (m.mean_sq, m.ratio4, m.ratio6)


def test_point_statistics_zero_increments():
    st = point_statistics(np.zeros((3, 9)), 0.5, 1.0, sigma_one(), M14)
    assert st.degenerate == 3 and np.all(np.isnan(st.a_hat))
    assert st.m2 == 0.0 and math.isnan(st.ratio4) and math.isnan(st.ratio6)
    assert st.closed_target == pytest.approx(6.0 / (math.pi * 4.0), rel=1e-14)
    assert point_statistics(np.zeros((3, 9)), 0.5, 1.0, sigma_sin(0.5), M14).closed_target is None


def test_constant_sigma_closed_targets_scale_by_c4():
    zeros = np.zeros((3, 9))
    one = point_statistics(zeros, 0.5, 1.0, sigma_one(), M14).closed_target
    assert point_statistics(zeros, 0.5, 1.0, sigma_affine(0.0, 1.0), M14).closed_target == one
    assert point_statistics(zeros, 0.5, 1.0, sigma_sin(0.0), M14).closed_target == one
    assert point_statistics(zeros, 0.5, 1.0, sigma_affine(0.0, 2.0), M14).closed_target == 16 * one
    st = point_statistics(zeros, 0.5, 1.0, sigma_affine(0.0, 0.7), M14)
    assert st.closed_target == pytest.approx(0.7**4 * one, rel=1e-15)
    assert st.closed_target == pytest.approx(float(st.limit[0]), rel=1e-14)
    paths = np.zeros((2, 3, 9))
    xs = [0.0, 0.5, -0.5]
    assert averaged_statistics(paths, xs, 1.0, sigma_affine(0.0, 2.0), M14)[1] \
        == 16 * averaged_statistics(paths, xs, 1.0, sigma_one(), M14)[1]


def test_averaged_statistics_equals_per_replicate_view():
    rng = np.random.default_rng(51)
    paths = rng.normal(size=(4, 3, 17))
    xs = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    v_nm, target = averaged_statistics(paths, xs, 1.0, sigma_one(), M14)
    for r in range(4):
        rep = averaged_variation_from_paths([_path(p, x=x) for p, x in zip(paths[r], xs)], xs, 3)
        assert v_nm[r] == rep.v_nm
    assert target == pytest.approx(np.mean([
        limit_functional(_path(np.zeros(17), x=x), sigma_one(), M14, x) for x in xs]), rel=1e-14)
    assert math.isnan(averaged_statistics(paths, xs, 1.0, sigma_sin(0.5), M14)[1])


# -- averaged statistic -----------------------------------------------------------


def _small_field(seed=48):
    grid = build_grid(1.0, 8, 2.0, 32)
    return solve_field(M14, grid, sigma_one(), sample_noise(grid, seed, 0))


def test_averaged_single_point_reduces_to_pointwise():
    field = _small_field()
    rep = averaged_variation(field, 1)
    path = field.path_at(0.0)
    assert rep.v_nm == quartic_variation(path)
    assert rep.per_point[0].x_snapped == path.x


def test_averaged_mean_identity_is_bitwise():
    field = _small_field()
    rep = averaged_variation(field, 8)
    per_point = np.array([pv.v_quartic for pv in rep.per_point])
    assert rep.v_nm == float(np.mean(per_point))
    paths = [field.path_at(j / 8) for j in range(8)]
    assert rep.v_nm == float(np.mean([quartic_variation(p) for p in paths]))


def test_averaged_constant_field_zero():
    field = _small_field()
    flat = type(field)(
        values=np.zeros_like(field.values),
        grid=field.grid,
        medium=field.medium,
        sigma_label="one",
        seed=0,
        replicate=0,
    )
    assert averaged_variation(flat, 4).v_nm == 0.0


def test_averaged_grid_coverage_error():
    grid = build_grid(1.0, 4, 0.4, 8)  # covers (-0.4, 0.4) only
    field = solve_field(M14, grid, sigma_one(), sample_noise(grid, 49, 0))
    with pytest.raises(ValueError, match="cover"):
        averaged_variation(field, 8)


def test_averaged_from_paths_metadata():
    paths = [SolutionPath(np.zeros(5), x=0.1 * j, T=1.0) for j in range(4)]
    rep = averaged_variation_from_paths(paths, [0.0, 0.25, 0.5, 0.75], 4)
    assert rep.num_points == 4
    assert rep.n == 4
    assert [pv.x_requested for pv in rep.per_point] == [0.0, 0.25, 0.5, 0.75]


def test_variation_error_trend_over_dyadic_n(
    exact_sampler_64, exact_sampler_256, exact_sampler_1024
):
    # On exact linear paths at x != 0, |mean V - 6T/(pi A)| shrinks with n;
    # the trend must be nonincreasing within 2 Monte Carlo standard errors.
    target = 6.0 / (math.pi * 4.0)
    errs, ses = [], []
    for sampler in (exact_sampler_64, exact_sampler_256, exact_sampler_1024):
        arr = sampler.paths_array(seed=20250601, replicates=150)
        v = np.sum(np.diff(arr, axis=1) ** 4, axis=1)
        abs_err = np.abs(v - target)
        errs.append(float(np.mean(abs_err)))
        ses.append(float(np.std(abs_err, ddof=1) / math.sqrt(len(abs_err))))
    for k in (1, 2):
        slack = 2.0 * math.sqrt(ses[k] ** 2 + ses[k - 1] ** 2)
        assert errs[k] <= errs[k - 1] + slack
