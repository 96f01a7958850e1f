import math

import numpy as np
import pytest

from skewheat import stats
from skewheat import (
    MediumParams,
    GridSpec,
    sample_noise,
    tau,
    A_of,
    sigma_one,
    sigma_affine,
    sigma_sin,
    solve_field_batch,
    ExactLinearSampler,
    point_statistics,
    averaged_points,
    averaged_statistics,
)

M14 = MediumParams(1, 4, 1, 1)


def _stats(values, sigma=None, x=0.5):
    """point_statistics of paths over [0, 1] at x in the medium M14 (sigma = one by default)."""
    return point_statistics(np.asarray(values, dtype=float), x, 1.0, sigma or sigma_one(), M14)


def _averaged(paths, xs, sigma=None):
    """averaged_statistics of (R, P, n+1) paths at the P points xs, from each point's _stats."""
    return averaged_statistics([_stats(paths[:, j], sigma, x) for j, x in enumerate(xs)])


# -- quartic variation ---------------------------------------------------------


def test_quartic_examples():
    assert _stats([2.0, 2.0, 2.0]).v == 0.0
    assert _stats([0.0, 1.0, -1.0]).v == 17.0


def test_quartic_too_short_path():
    with pytest.raises(ValueError):
        _stats([1.0])


def test_quartic_shift_and_negation_invariance():
    rng = np.random.default_rng(41)
    vals = rng.normal(size=33)
    v = _stats(vals).v
    assert _stats(vals + 5.0).v == pytest.approx(v, rel=1e-12)
    assert _stats(-vals).v == v


# -- limit functional ----------------------------------------------------------


def test_limit_functional_sigma_one_closed_form():
    assert _stats(np.zeros(65)).limit == pytest.approx(6.0 / (math.pi * 4.0), rel=1e-14)
    # At the interface the eta^2 correction enters with the left diffusivity.
    assert _stats(np.zeros(65), x=0.0).limit == pytest.approx(6.0 * M14.eta**2 / math.pi, rel=1e-14)


def test_limit_functional_zero_path_vanishing_sigma():
    assert _stats(np.zeros(17), sigma_affine(1.0, 0.0)).limit == 0.0


def test_limit_functional_vs_trapezoid():
    # The left-endpoint sum differs from the trapezoidal rule by exactly
    # half a cell of the endpoint difference.
    rng = np.random.default_rng(42)
    vals = rng.normal(size=129) * 0.3
    sigma = sigma_sin(0.5)
    got = _stats(vals, sigma).limit
    s4 = sigma.evaluate(vals) ** 4
    delta = 1.0 / (len(vals) - 1)
    coef = 6.0 * tau(0.5, M14) / (math.pi * A_of(0.5, M14))
    trapz = coef * delta * (np.sum(s4) - 0.5 * s4[0] - 0.5 * s4[-1])
    bound = coef * delta * 0.5 * abs(s4[0] - s4[-1]) + 1e-12
    assert abs(got - trapz) <= bound


# -- estimator ------------------------------------------------------------------


def test_estimator_sigma_one_identity():
    rng = np.random.default_rng(43)
    st = _stats(rng.normal(size=65))
    assert st.a_hat == pytest.approx(6.0 * 1.0 / (math.pi * st.v), rel=1e-12)


def test_estimator_scale_equivariance_constant_sigma():
    rng = np.random.default_rng(44)
    c = 1.7
    st = _stats(rng.normal(size=65), sigma_affine(0.0, c))
    assert st.a_hat == pytest.approx(6.0 * c**4 / (math.pi * st.v), rel=1e-12)


def test_estimator_interface_uses_eta_squared():
    rng = np.random.default_rng(45)
    st = _stats(rng.normal(size=65), x=0.0)
    assert st.a_hat == pytest.approx(6.0 * M14.eta**2 / (math.pi * st.v), rel=1e-12)


def test_estimator_degenerate_path():
    st = _stats(np.ones(17))
    assert st.degenerate == 1 and math.isnan(st.a_hat)


# -- pooled increment moments -----------------------------------------------------


def test_moment_summary_zigzag():
    vals = np.zeros(65)
    vals[1::2] = 0.5
    st = _stats(vals)
    assert st.ratio4 == pytest.approx(1.0, rel=1e-12)
    assert st.ratio6 == pytest.approx(1.0, rel=1e-12)
    assert st.m2 == pytest.approx(0.25, rel=1e-12)


def test_point_statistics_pools_interior_increments():
    # n = 8: the increments with 1-based index i >= 2 are pooled, the first is dropped.
    vals = np.concatenate([[0.0], np.arange(1.0, 9.0) * 0.5 + 100.0])
    st = _stats(vals)
    assert (st.m2, st.m4, st.ratio4, st.ratio6) == (0.25, 0.0625, 1.0, 1.0)


def test_moment_summary_gaussian_ratios():
    sampler = ExactLinearSampler(M14, 0.5, 1.0, 64)
    st = _stats(sampler.paths_array(seed=46, replicates=150))
    assert st.ratio4 == pytest.approx(3.0, abs=0.2)
    assert st.ratio6 == pytest.approx(15.0, abs=2.5)
    delta = 1.0 / 64
    m2_leading = math.sqrt(delta) * math.sqrt(2.0 / (math.pi * 4.0))
    assert st.m2_target == pytest.approx(m2_leading, rel=1e-15)
    assert st.m2 == pytest.approx(m2_leading, rel=0.05)


# -- statistics core and its views --------------------------------------------

SIGMAS = {"one": sigma_one(), "affine:0,0.7": sigma_affine(0.0, 0.7), "sin1:0.5": sigma_sin(0.5)}


@pytest.mark.parametrize("x", [0.5, -0.5, 0.0])
@pytest.mark.parametrize("label", sorted(SIGMAS))
def test_point_statistics_equals_per_path_views(label, x):
    # The (R, n+1) batch gives each row what the row gives as one (n+1,) path.
    sigma = SIGMAS[label]
    rng = np.random.default_rng(50)
    paths = rng.normal(size=(6, 41)) * 0.3
    paths[2] = 0.8  # one constant row
    st = _stats(paths, sigma, x)
    assert st.degenerate == 1
    for r, row in enumerate(paths):
        one = _stats(row, sigma, x)
        assert (st.v[r], st.limit[r]) == (one.v, one.limit)
        assert st.a_hat[r] == one.a_hat or math.isnan(st.a_hat[r]) and math.isnan(one.a_hat)
    pooled = np.diff(paths)[:, 9:]  # 1-based increment index i >= 40/4
    m2 = np.sum(np.sum(pooled**2, axis=-1)) / pooled.size  # the sum of the rows' sums
    assert st.m2 == m2
    assert st.ratio4 == pytest.approx(np.mean(pooled**4) / m2**2, rel=1e-13)
    assert st.ratio6 == pytest.approx(np.mean(pooled**6) / m2**3, rel=1e-13)


@pytest.mark.parametrize("label", sorted(SIGMAS))
def test_point_statistics_replicate_block_width_changes_no_bit(label, monkeypatch):
    # Every pooled mean is the sum of per-row sums over the count, so the
    # width of the replicate blocks the paths are read in moves no bit.  The
    # rows have unequal scales, so a sum taken block by block would round
    # differently.
    rng = np.random.default_rng(51)
    paths = np.cumsum(rng.normal(size=(150, 65)), axis=-1) * np.exp(rng.normal(size=(150, 1)))
    paths[:, 0] = 0.0
    ref = _stats(paths, SIGMAS[label])
    for width in (1, 7, 64):
        monkeypatch.setattr(stats, "PATH_BLOCK", width)
        got = _stats(paths, SIGMAS[label])
        for name in ("v", "limit", "a_hat"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (name, width)
        assert (got.m2, got.m4, got.ratio4, got.ratio6, got.m2_target, got.m4_target) == (
            ref.m2, ref.m4, ref.ratio4, ref.ratio6, ref.m2_target, ref.m4_target), width


@pytest.mark.parametrize("shape", [(1,), (3, 1), (2, 3, 9)])
def test_point_statistics_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="one \\(n\\+1,\\) path or \\(R, n\\+1\\) paths"):
        point_statistics(np.zeros(shape), 0.5, 1.0, sigma_one(), M14)


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
    assert _averaged(paths, xs, sigma_affine(0.0, 2.0))[1] == 16 * _averaged(paths, xs)[1]


def test_increment_targets_read_sigma():
    # Targets are the sigma = one values times the pooled mean of sigma^2 and
    # sigma^4 at the left endpoints of the pooled increments (i >= 16/4: u_3..u_15).
    rng = np.random.default_rng(52)
    paths = rng.normal(size=(5, 17))
    one = _stats(paths)
    sigma = sigma_sin(0.5)
    st = _stats(paths, sigma)
    s2 = sigma.evaluate(paths[:, 3:16]) ** 2
    assert st.m2_target == pytest.approx(one.m2_target * np.mean(s2), rel=1e-14)
    assert st.m4_target == pytest.approx(one.m4_target * np.mean(s2 * s2), rel=1e-14)


def test_averaged_statistics_equals_per_replicate_view():
    rng = np.random.default_rng(51)
    paths = rng.normal(size=(4, 3, 17))
    xs = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    v_nm, target = _averaged(paths, xs)
    for r in range(4):
        assert v_nm[r] == np.mean([_stats(p, x=x).v for p, x in zip(paths[r], xs)])
    assert target == pytest.approx(np.mean([_stats(np.zeros(17), x=x).limit for x in xs]),
                                   rel=1e-14)
    assert math.isnan(_averaged(paths, xs, sigma_sin(0.5))[1])


# -- averaged statistic -----------------------------------------------------------


def _field_points(num_points, seed=48):
    """A sigma = one field's snapped averaged points and their (1, P, n+1) paths."""
    grid = GridSpec(1.0, 8, 2.0, 32)
    u = solve_field_batch(M14, grid, sigma_one(), sample_noise(grid, seed, 0))
    cols, xs = zip(*(grid.snap(x) for x in averaged_points(grid, num_points)))
    return list(xs), u[:, list(cols)].T[None]


def test_averaged_single_point_reduces_to_pointwise():
    xs, paths = _field_points(1)
    v_nm, _ = _averaged(paths, xs)
    assert v_nm[0] == _stats(paths[0, 0], x=xs[0]).v


def test_averaged_mean_identity_is_bitwise():
    xs, paths = _field_points(8)
    v_nm, _ = _averaged(paths, xs)
    assert v_nm[0] == float(np.mean([_stats(p, x=x).v for p, x in zip(paths[0], xs)]))


def test_averaged_constant_field_zero():
    xs, paths = _field_points(4)
    assert _averaged(np.zeros_like(paths), xs)[0][0] == 0.0


def test_averaged_grid_coverage_error():
    grid = GridSpec(1.0, 4, 0.4, 8)  # covers (-0.4, 0.4) only
    with pytest.raises(ValueError, match="cover"):
        averaged_points(grid, 8)


def test_averaged_from_paths_metadata():
    grid = GridSpec(1.0, 4, 2.0, 32)
    xs = averaged_points(grid, 4)
    assert xs == [0.0, 0.25, 0.5, 0.75]
    v_nm, _ = _averaged(np.zeros((3, 4, 5)), xs)
    assert v_nm.shape == (3,) and np.all(v_nm == 0.0)
    with pytest.raises(ValueError):
        averaged_points(grid, 0)


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
