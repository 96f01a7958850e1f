import math
import pickle
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from conftest import exact_paths
from skewheat import (
    MediumParams,
    GridSpec,
    NoiseChunk,
    sample_noise,
    SigmaSpec,
    parse_sigma,
    solve_field_batch,
    covariance_linear,
    covariance_matrix,
    ExactLinearSampler,
    NonFiniteFieldError,
    CovarianceError,
)
from skewheat import GreenKernel
from skewheat import solver
from skewheat.checks import brute_covariance, quad_covariance
from skewheat.noise import STREAM_EXACT_PATHS, position_subkey, standard_normals

M14 = MediumParams(1, 4, 1, 1)
HOMOG = MediumParams(1, 1, 1, 1)
# The density jumps at the interface: the covariance's interface term is not
# zero, so its quadrature runs.
M14_JUMP = MediumParams(1, 4, 1, 2)


# -- sigma specs -------------------------------------------------------------


def test_sigma_presets():
    one = SigmaSpec()
    assert np.array_equal(one.evaluate(np.array([-3.0, 7.0])), [1.0, 1.0])

    aff = SigmaSpec(h1=2.0, h2=-1.0)
    assert aff.evaluate(np.array([0.0, 3.0])).tolist() == [-1.0, 5.0]

    sin = SigmaSpec(amp=0.5)
    assert sin.evaluate(np.array([0.0]))[0] == 1.0


def test_sigma_evaluate_into_out_is_the_expression_bit_for_bit():
    # In place or not, sigma is the parent's expression: 1 + amp*sin(u),
    # h1*u + h2, or h2 everywhere, on values that round at every step.
    u = np.random.default_rng(5).standard_normal((7, 9)) * 10.0 ** np.arange(-4, 5)
    u[0, :4] = [0.0, -0.0, 1e300, -5e-324]
    expected = {"one": np.full_like(u, 1.0), "affine:0.3,1": 0.3 * u + 1.0,
                "sin1:0.5": 1.0 + 0.5 * np.sin(u)}
    for spec, want in expected.items():
        sigma = parse_sigma(spec)
        buf = np.full_like(u, np.nan)
        assert sigma.evaluate(u, out=buf) is buf, spec
        assert np.array_equal(buf.view(np.uint64), want.view(np.uint64)), spec
        assert np.array_equal(sigma.evaluate(u).view(np.uint64), want.view(np.uint64)), spec
        # A strided destination, as the recursion's rows are not contiguous in general.
        wide = np.full((7, 18), np.nan)
        sigma.evaluate(u, out=wide[:, ::2])
        assert np.array_equal(wide[:, ::2].view(np.uint64), want.view(np.uint64)), spec


def test_parse_sigma_round_trip_and_errors():
    assert parse_sigma("one") == SigmaSpec()
    assert parse_sigma("affine:2.0,-1.0") == SigmaSpec(h1=2.0, h2=-1.0)
    assert parse_sigma("sin1:0.5") == SigmaSpec(amp=0.5)
    for bad in ("two", "affine:1", "sin1:", "sin1:а"):
        with pytest.raises(ValueError):
            parse_sigma(bad)


def test_format_sigma_is_the_inverse_of_parse_sigma():
    cases = {"one": "one", "affine:0,1": "one", "sin1:0": "one", "sin1:0.5": "sin1:0.5",
             "affine:0.5,1": "affine:0.5,1.0", "affine:0,0.7": "affine:0.0,0.7",
             "sin1:1e-300": "sin1:1e-300", "affine:-2,0.1": "affine:-2.0,0.1"}
    for text, canonical in cases.items():
        assert solver.format_sigma(parse_sigma(text)) == canonical, text
        assert parse_sigma(canonical) == parse_sigma(text), text


def test_sigma_constant_values():
    cases = {"one": 1.0, "affine:0,0.7": 0.7, "affine:-0.0,2": 2.0, "affine:0,0": 0.0,
             "sin1:0": 1.0, "affine:0.5,1": None, "sin1:0.5": None}
    for spec, value in cases.items():
        assert parse_sigma(spec).constant == value, spec


def test_sigma_spec_is_a_value():
    # Two specs of one function are equal, and a spec survives pickling unchanged.
    for text in ("one", "affine:0.5,1", "sin1:0.5"):
        spec = parse_sigma(text)
        assert spec == parse_sigma(text)
        assert pickle.loads(pickle.dumps(spec)) == spec
    assert parse_sigma("affine:0.5,1") == SigmaSpec(h1=0.5, h2=1.0)
    assert parse_sigma("affine:0,1") == SigmaSpec()
    assert parse_sigma("sin1:0.5") != parse_sigma("sin1:0.25")


def test_sigma_lipschitz_spot_check():
    rng = np.random.default_rng(13)
    for spec, bound in ((SigmaSpec(h1=1.7, h2=0.4), 1.7), (SigmaSpec(amp=0.5), 0.5)):
        u = rng.uniform(-10, 10, size=500)
        v = rng.uniform(-10, 10, size=500)
        lhs = np.abs(spec.evaluate(u) - spec.evaluate(v))
        assert np.all(lhs <= bound * np.abs(u - v) + 1e-12)


# -- field scheme ------------------------------------------------------------


def test_zero_noise_gives_zero_field():
    grid = GridSpec(1.0, 8, 4.0, 16)
    u = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), np.zeros((grid.n, grid.m)))
    assert np.all(u == 0.0)


def test_zero_sigma_gives_zero_field():
    grid = GridSpec(1.0, 8, 4.0, 16)
    u = solve_field_batch(M14, grid, SigmaSpec(h1=0.0, h2=0.0), sample_noise(grid, 21, 0))
    assert np.all(u == 0.0)


def test_initial_row_zero_and_shape():
    grid = GridSpec(1.0, 8, 4.0, 16)
    u = solve_field_batch(M14, grid, SigmaSpec(), sample_noise(grid, 22, 0))
    assert u.shape == (16, 9)
    assert np.all(u[:, 0] == 0.0)


def test_incompatible_noise_shape_rejected():
    grid = GridSpec(1.0, 8, 4.0, 16)
    with pytest.raises(ValueError, match="incompatible"):
        solve_field_batch(M14, grid, SigmaSpec(), np.zeros((4, 16)))


def test_non_finite_field_abort_names_indices():
    grid = GridSpec(1.0, 4, 4.0, 8)
    inc = np.zeros((4, 8))
    inc[1, 3] = 1e300
    sigma = SigmaSpec(h1=1e9, h2=1.0)
    with pytest.raises(NonFiniteFieldError, match=r"i=3"):
        solve_field_batch(M14, grid, sigma, inc)


def test_linearity_in_noise_for_sigma_one():
    grid = GridSpec(1.0, 10, 4.0, 24)
    n1 = sample_noise(grid, 23, 0)
    n2 = sample_noise(grid, 23, 1)
    u1 = solve_field_batch(M14, grid, SigmaSpec(), n1)
    u2 = solve_field_batch(M14, grid, SigmaSpec(), n2)
    both = solve_field_batch(M14, grid, SigmaSpec(), n1 + n2)
    np.testing.assert_allclose(both, u1 + u2, rtol=1e-12, atol=1e-15)


def test_adaptedness_row_perturbation():
    grid = GridSpec(1.0, 8, 4.0, 16)
    noise = sample_noise(grid, 24, 0)
    base = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), noise)
    k = 4
    bumped = noise.copy()
    bumped[k] += 0.1
    pert = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), bumped)
    assert np.array_equal(pert[:, : k + 1], base[:, : k + 1])
    assert not np.array_equal(pert[:, k + 1 :], base[:, k + 1 :])


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(amp=0.5)], ids=["one", "sin"])
def test_solve_field_is_one_replicate_batch(sigma):
    # An (n, m) noise array gives the (m, n+1) field of the one-replicate batch.
    grid = GridSpec(1.0, 6, 4.0, 12)
    noise = sample_noise(grid, 25, 0)
    batch = solve_field_batch(M14, grid, sigma, noise[:, :, None])
    assert np.array_equal(solve_field_batch(M14, grid, sigma, noise), batch[0])


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(amp=0.5)], ids=["one", "sin"])
def test_transposed_noise_view_solves_like_contiguous_copy(sigma):
    # Any (n, m, R) array works: a strided view gives the contiguous copy's bits.
    grid = GridSpec(1.0, 10, 4.0, 40)
    slabs = np.stack([sample_noise(grid, 27, r) for r in range(5)])
    view = slabs.transpose(1, 2, 0)
    assert not view.flags.c_contiguous
    for cols in (None, [3, 30, 3]):
        assert np.array_equal(solve_field_batch(M14, grid, sigma, view, columns=cols),
                              solve_field_batch(M14, grid, sigma, np.ascontiguousarray(view),
                                                columns=cols))


def test_batch_matches_loop_layout():
    grid = GridSpec(1.0, 6, 4.0, 12)
    stack = np.stack(
        [sample_noise(grid, 26, r) for r in range(3)], axis=2
    )
    batch = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), stack)
    assert batch.shape == (3, 12, 7)
    assert np.all(batch[:, :, 0] == 0.0)


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


@pytest.mark.parametrize("medium", [MediumParams(1, 4, 1, 1), MediumParams(4, 1, 1, 2), HOMOG],
                         ids=["a1<a2", "a1>a2", "homog"])
def test_covariance_linear_matches_quad_oracle(medium):
    for x in (0.5, -0.5, -0.515625, 0.484375, -0.015625, 0.0, 2.0, -3.0):
        for t, s in ((1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.01, 0.01)):
            assert covariance_linear(t, s, x, medium) == pytest.approx(
                quad_covariance(t, s, x, medium), rel=1e-10
            )


@pytest.mark.parametrize("x", [-2e-4, -1e-4, -1e-7, 1e-7, 1e-4])
def test_covariance_linear_near_interface_self_converges(x, monkeypatch):
    # The rule must agree with itself at every node level; against the
    # dyadic-panel quad_covariance it agrees to 4.4e-16 at these points (see
    # the oracle test below).  The panel depth follows from x, so the deeper
    # COV_PANELS cap leaves these points' panels as they are.
    # At t = s the lag t - r rounds to zero for v below 1e-8, which once
    # raised ValueError at x = -2e-4, -1e-4 and 1e-4.  covariance_linear runs
    # the rule where the density jumps; with equal densities its value is the
    # closed form, which the rule, run there all the same, must meet.
    for medium in (M14, M14_JUMP):
        kernel = GreenKernel(medium)
        for t, s in ((1.0, 1.0), (1.0, 0.5)):
            value = covariance_linear(t, s, x, medium)
            assert math.isfinite(value) and value > 0.0
            for nodes in (16, 64, 256):
                assert solver._covariance_rule(kernel, t, s, x, nodes) == pytest.approx(value, rel=1e-14)
            monkeypatch.setattr(solver, "COV_PANELS", 45)
            assert solver._covariance_rule(kernel, t, s, x, 32) == pytest.approx(value, rel=1e-14)
            monkeypatch.undo()
    # Continuity across the interface, with the one-sided slopes of C(x).
    assert covariance_linear(1.0, 1.0, x, M14) == pytest.approx(
        covariance_linear(1.0, 1.0, 0.0, M14), abs=0.4 * abs(x)
    )


@pytest.mark.parametrize("medium", [MediumParams(1, 4, 1, 1), MediumParams(4, 1, 1, 2), HOMOG],
                         ids=["a1<a2", "a1>a2", "homog"])
def test_covariance_linear_matches_quad_oracle_near_interface(medium):
    # The oracle's dyadic panels resolve the v ~ |x| scale without warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e-4, -1e-4, -2e-4, 1e-7, -1e-7):
            for t, s in ((1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.01, 0.01)):
                assert covariance_linear(t, s, x, medium) == pytest.approx(
                    quad_covariance(t, s, x, medium), rel=1e-10
                )


@pytest.mark.parametrize("medium", [MediumParams(1, 4, 1, 1), MediumParams(4, 1, 1, 2)],
                         ids=["a1<a2", "a1>a2"])
@pytest.mark.parametrize("n", [16, 64])
def test_covariance_matrix_matches_quad_oracle_near_interface(medium, n):
    # The first cell of each lag diagonal holds the erfc onset at
    # v ~ |f(x)|/sqrt(dt), which a single panel in v does not resolve.
    times = np.linspace(0.0, 1.0, n + 1)
    for x in (1e-4, -1e-4, 1e-6, -1e-6, 1e-9, 0.0):
        C, _ = covariance_matrix(times, x, medium)
        for i, j in ((n, n), (n, 1), (n // 2 + 1, n // 2)):
            assert C[i, j] == pytest.approx(
                quad_covariance(times[i], times[j], x, medium), rel=0, abs=1e-13
            )


@pytest.mark.parametrize("x", [1e-6, -1e-6])
def test_covariance_matrix_fine_grid_near_interface(x):
    for medium in (M14, M14_JUMP):
        C, _ = covariance_matrix(np.linspace(0.0, 1.0, 513), x, medium)
        assert C[512, 512] == pytest.approx(covariance_linear(1.0, 1.0, x, medium), rel=0, abs=1e-13)


def test_covariance_linear_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(solver, "COV_MAX_NODES", solver.COV_NODES)
    with pytest.raises(CovarianceError,
                       match=r"^covariance panel rule did not converge with 16 nodes per panel at x = 0\.5$"):
        covariance_linear(1.0, 1.0, 0.5, M14_JUMP)


def test_covariance_matrix_matches_scalar():
    times = np.linspace(0.0, 1.0, 17)
    C, _ = covariance_matrix(times, 0.5, M14)
    assert type(C) is np.ndarray and C.shape == (17, 17)
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
    C, _ = covariance_matrix(times, 0.0, M14)
    assert C[8, 8] == pytest.approx(covariance_linear(1.0, 1.0, 0.0, M14), abs=1e-9)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("x", [-0.5, 0.0, 0.5, 0.93])
def test_covariance_matrix_coarse_grid_every_entry(n, x):
    # Coarse cells are where a fixed per-cell node count falls short; with
    # equal densities nothing is integrated, and the density jump's cells are.
    times = np.linspace(0.0, 1.0, n + 1)
    for medium in (M14, M14_JUMP):
        C, _ = covariance_matrix(times, x, medium)
        for i in range(n + 1):
            for j in range(n + 1):
                assert C[i, j] == pytest.approx(
                    covariance_linear(times[i], times[j], x, medium), abs=1e-9
                )


def test_covariance_matrix_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(solver, "COV_CELL_MAX_NODES", 4)
    with pytest.raises(CovarianceError,
                       match=r"^covariance cell rule did not converge with 4 nodes per cell at x = 0\.5$"):
        covariance_matrix(np.linspace(0.0, 1.0, 5), 0.5, M14_JUMP)


@pytest.mark.parametrize("medium", [MediumParams(1, 4, 1, 1), MediumParams(100, 0.01, 1, 1), M14_JUMP],
                         ids=["a1<a2", "a1/a2=1e4", "a1<a2-rho-jump"])
@pytest.mark.parametrize("lam2", [1e-16, 1e14])
def test_covariance_matrix_is_scale_invariant(medium, lam2):
    # t -> lam2*t, x -> lam*x scales C by lam, and the cell tolerance scales
    # with it; a fixed tolerance would be loose at lam2 = 1e-16 and out of
    # reach at lam2 = 1e14.  Only the density jump's covariance has cells.
    times, lam = np.linspace(0.0, 1.0, 65), math.sqrt(lam2)
    for x in (0.5, -0.3, 0.0):
        ref, _ = covariance_matrix(times, x, medium)
        got, _ = covariance_matrix(lam2 * times, lam * x, medium)
        assert np.max(np.abs(got / lam - ref)) <= 1e-12 * np.max(np.abs(ref)), x


@pytest.mark.parametrize("lam2", [1e-300, 1e-200, 1e300])
def test_covariance_at_an_extreme_horizon_is_the_unit_horizon_scaled(lam2):
    # Both rules run at the unit horizon and scale by lam, so nothing
    # underflows: at x = 0 and T = 1e-300 the deepest panel's smallest lag
    # s*v**2 used to round to 0 and raise.  At most the ulp of rescaling x.
    # The rules run where the density jumps; with equal densities the closed
    # form runs at the unit horizon too.
    times, lam = np.linspace(0.0, 1.0, 65), math.sqrt(lam2)
    for medium in (M14, M14_JUMP):
        for x in (0.5, 0.0, -0.3):
            ref, ref_level = covariance_matrix(times, x, medium)
            got, got_level = covariance_matrix(lam2 * times, lam * x, medium)
            assert got_level == ref_level, x
            assert np.max(np.abs(got / lam - ref)) <= 4e-16 * np.max(np.abs(ref)), x
            assert covariance_linear(lam2, 0.5 * lam2, lam * x, medium) / lam == pytest.approx(
                covariance_linear(1.0, 0.5, x, medium), rel=4e-16, abs=0.0), x


@pytest.mark.parametrize("T", [1e-310, 1e-320, 5e-324])
def test_covariance_matrix_at_a_subnormal_horizon_is_the_unit_horizon_scaled(T):
    # The grid's points are subnormal (at 5e-324 all inner ones are 0); only
    # its length and last entry are read, as at any horizon.
    lam = math.sqrt(T)
    for medium in (M14, M14_JUMP):
        for x in (0.5, 0.0, -0.3):
            ref, ref_level = covariance_matrix(np.linspace(0.0, 1.0, 513), x, medium)
            got, got_level = covariance_matrix(np.linspace(0.0, T, 513), lam * x, medium)
            assert got_level == ref_level, x
            assert np.max(np.abs(got / lam - ref)) <= 4e-16 * np.max(np.abs(ref)), x


def test_covariance_linear_at_x0_and_horizon_1e_minus_300():
    assert covariance_linear(1e-300, 1e-300, 0.0, M14) == pytest.approx(
        1e-150 * covariance_linear(1.0, 1.0, 0.0, M14), rel=4e-16, abs=0.0)


@pytest.mark.parametrize(
    "medium, bound",
    [(M14_JUMP, 1e-14), (MediumParams(0.01, 100, 3, 0.2), 1e-11)],
    ids=["a1<a2", "a2/a1=1e4"],
)
@pytest.mark.parametrize("n", [16, 64])
def test_covariance_matrix_two_node_start_matches_eight_node_ladder(medium, bound, n, monkeypatch):
    # From 2 nodes a smooth cell stops at 4 once levels 2 and 4 agree within
    # COV_CELL_TOL/n; from 8 it stopped at 16.  On (0.01, 100, 3, 0.2) a few
    # cells keep a 4-node error of a few 1e-13 (1.5e-12 of max|C| at
    # x = 1e-3, n = 64), still 1e3 below COV_CELL_TOL.
    times = np.linspace(0.0, 1.0, n + 1)
    for x in (-2.0, 1e-3, 0.5, 3.5):
        got, got_level = covariance_matrix(times, x, medium)
        monkeypatch.setattr(solver, "COV_CELL_NODES", 8)
        ref, ref_level = covariance_matrix(times, x, medium)
        monkeypatch.undo()
        assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref)), x
        assert got_level == ref_level, x


@pytest.mark.parametrize("n", [2, 64, 300])
def test_covariance_matrix_diagonal_block_width_changes_no_bit(n, monkeypatch):
    # A cell's integral depends on its own (k, c) only, so assembling one
    # diagonal or all n diagonals per block gives the same matrix and level.
    times = np.linspace(0.0, 1.0, n + 1)
    for x in (0.5, 0.0, 1e-7):
        ref, ref_level = covariance_matrix(times, x, M14_JUMP)
        for width in (1, n):
            monkeypatch.setattr(solver, "COV_DIAGONALS", width)
            got, got_level = covariance_matrix(times, x, M14_JUMP)
            assert np.array_equal(got, ref) and got_level == ref_level, (x, width)
        monkeypatch.undo()


@pytest.mark.parametrize("medium", [M14, MediumParams(100, 0.01, 1, 1), MediumParams(0.3, 0.3, 2, 2)],
                         ids=["a1<a2", "a1/a2=1e4", "homog-rho2"])
def test_closed_covariance_matches_quad_oracle(medium, monkeypatch):
    times = np.linspace(0.0, 1.0, 9)
    pairs = ((1.0, 0.5), (1.0, 1.0), (0.01, 0.01))
    points = (-0.5, -1e-7, 0.0, 1e-7, 0.5, 7.9)
    oracle = {x: [quad_covariance(t, s, x, medium) for t, s in pairs] for x in points}

    # With equal densities nothing is integrated: the interface term is never evaluated.
    def never(*args):
        raise AssertionError("interface term evaluated on equal densities")

    monkeypatch.setattr(GreenKernel, "interface_cross", never)
    for x, scalar in oracle.items():
        for (t, s), want in zip(pairs, scalar):
            assert covariance_linear(t, s, x, medium) == pytest.approx(want, rel=1e-10), (x, t, s)
        # The matrix is the same closed form on the grid.
        C, level = covariance_matrix(times, x, medium)
        assert level == 0
        want = [[covariance_linear(ti, tj, x, medium) for tj in times] for ti in times]
        assert np.max(np.abs(C - want)) <= 1e-15 * np.max(np.abs(C)), x


@pytest.mark.parametrize("n", [512, 2048])
def test_closed_covariance_homogeneous_increments(n):
    # On a homogeneous medium C(t, s) = (2 pi A)**-1/2 (sqrt(t + s) - sqrt|t - s|).
    # At A = 2 the increments' covariance matched that within 1.2e-14 of its
    # largest entry at n = 512 and 2.3e-14 at n = 2048; the cell quadrature
    # read 7.5e-14 and 1.4e-13 there.
    a = 2.0
    times = np.linspace(0.0, 1.0, n + 1)
    C, _ = covariance_matrix(times, 0.3, MediumParams(a, a, 1.5, 1.5))
    t = np.linspace(0.0, 1.0, n + 1).astype(np.longdouble)
    ref = (np.sqrt(t[:, None] + t[None, :]) - np.sqrt(np.abs(t[:, None] - t[None, :])))
    ref /= np.sqrt(2 * np.pi * np.longdouble(a))

    def increments(c):
        return c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]

    want = increments(ref).astype(float)
    assert np.max(np.abs(increments(C) - want)) <= 5e-14 * np.max(np.abs(want))


def test_closed_covariance_matrix_at_n_4096_integrates_nothing_and_holds_one_matrix(monkeypatch):
    def never(*args):
        raise AssertionError("interface term evaluated on equal densities")

    monkeypatch.setattr(GreenKernel, "interface_cross", never)
    n = 4096
    times = np.linspace(0.0, 1.0, n + 1)
    tracemalloc.start()
    try:
        C, level = covariance_matrix(times, 0.5, M14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level == 0 and C.shape == (n + 1, n + 1)
    assert peak < 1.1 * 8 * (n + 1) ** 2
    assert np.all(C[0] == 0.0) and np.array_equal(C, C.T)
    assert C[n, n] == pytest.approx(covariance_linear(1.0, 1.0, 0.5, M14), rel=1e-14)


def test_covariance_matrix_rejects_a_nonuniform_grid():
    times = np.linspace(0.0, 1.0, 65)
    jittered = times.copy()
    jittered[17] += 1e-9
    with pytest.raises(ValueError, match=r"^times must be np\.linspace\(0, T, n \+ 1\): times\[17\]"):
        covariance_matrix(jittered, 0.5, M14)
    with pytest.raises(ValueError):
        covariance_matrix(times ** 2, 0.5, M14_JUMP)
    # A grid scaled after the fact is uniform to rounding, and a subnormal
    # horizon's own linspace is the reference bit for bit.
    for lam2 in (1e-300, 1e-16, 1e14, 1e300):
        covariance_matrix(lam2 * times, 0.5, M14)
    covariance_matrix(np.linspace(0.0, 1e-310, 513), 0.5, M14)


# -- exact linear sampler ------------------------------------------------------


def test_exact_paths_start_at_zero_and_reproduce():
    paths = exact_paths(ExactLinearSampler(M14, 0.5, 1.0, 16), seed=31, replicates=4)
    assert paths.shape == (4, 17)
    assert np.all(paths[:, 0] == 0.0)
    again = exact_paths(ExactLinearSampler(M14, 0.5, 1.0, 16), seed=31, replicates=4)
    assert np.array_equal(paths, again)


def test_exact_paths_replicate_keying_independent_of_batch():
    # Replicate r's path is keyed by (seed, r) alone: the replicate count of
    # the call does not move it, and another seed gives another path.
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    all_at_once = exact_paths(s, seed=32, replicates=5)
    for count in (2, 4):
        assert np.array_equal(exact_paths(s, seed=32, replicates=count), all_at_once[:count])
    other_seed = exact_paths(s, seed=33, replicates=5)
    assert not np.any(np.all(other_seed[:, 1:] == all_at_once[:, 1:], axis=1))


@pytest.mark.parametrize("n", [16, 100, 512])
def test_exact_paths_every_batch_layout_is_bitwise_one_call(n):
    # Replicate r is always row r mod PATH_BLOCK of block r // PATH_BLOCK's
    # gemm, whatever else the block holds, so a call for R replicates is the
    # first R rows of any longer call, bit for bit.
    s = ExactLinearSampler(M14, 0.5, 1.0, n)
    full = exact_paths(s, seed=34, replicates=300)
    for count in (1, 5, 63, 64, 65, 130):
        assert np.array_equal(exact_paths(s, seed=34, replicates=count), full[:count]), count


@pytest.mark.parametrize("n", [16, 100, 512])
def test_exact_paths_match_per_replicate_matvec(n):
    s = ExactLinearSampler(M14, 0.5, 1.0, n)
    paths = exact_paths(s, seed=35, replicates=130)  # a partial last block
    subkey = position_subkey(0.5)
    for k, path in enumerate(paths):
        z = standard_normals(35, k, n, kind=STREAM_EXACT_PATHS, subkey=subkey)
        ref = s._factor @ z
        assert path[0] == 0.0
        assert np.max(np.abs(path[1:] - ref)) <= 1e-14 * np.max(np.abs(ref)), k


def _fresh_generator_paths(sampler, seed, replicates):
    # A Generator built for each replicate's own stream key, and the same
    # PATH_BLOCK-row products with the factor.
    block = solver.PATH_BLOCK
    counter = np.array([0, 0, STREAM_EXACT_PATHS, position_subkey(sampler.x)], dtype=np.uint64)
    z = np.zeros((-(-replicates // block) * block, sampler.n))
    for r in range(replicates):
        key = np.array([seed, r], dtype=np.uint64)
        z[r] = Generator(Philox(key=key, counter=counter)).standard_normal(sampler.n)
    paths = np.zeros((len(z), sampler.n + 1))
    for first in range(0, len(z), block):
        paths[first : first + block, 1:] = z[first : first + block] @ sampler._factor.T
    return paths[:replicates]


def test_interleaved_exact_samplers_draw_their_own_streams():
    # Two samplers' path_blocks taken in turn, each re-keying the generator
    # its call owns: every block is the one each sampler gives alone, bit
    # for bit, and the one a fresh Generator per replicate gives.
    a, b = ExactLinearSampler(M14, 0.5, 1.0, 16), ExactLinearSampler(M14, -0.25, 1.0, 16)
    alone = {s: exact_paths(s, seed=41, replicates=130) for s in (a, b)}
    taken = {a: [], b: []}
    for (fa, ra), (fb, rb) in zip(a.path_blocks(41, 130), b.path_blocks(41, 130)):
        taken[a].append(ra.copy())
        taken[b].append(rb.copy())
    for s in (a, b):
        assert np.array_equal(np.concatenate(taken[s]), alone[s])
        assert np.array_equal(alone[s], _fresh_generator_paths(s, 41, 130))


def test_exact_samplers_in_two_threads_at_once_draw_their_own_streams():
    samplers = [ExactLinearSampler(M14, x, 1.0, 64) for x in (0.5, -0.25)]
    alone = [exact_paths(s, seed=42, replicates=640) for s in samplers]
    barrier = threading.Barrier(2)
    results = [None, None]

    def sample(j):
        barrier.wait()
        results[j] = exact_paths(samplers[j], seed=42, replicates=640)

    threads = [threading.Thread(target=sample, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for s, got, ref in zip(samplers, results, alone):
        assert np.array_equal(got, ref)
        assert np.array_equal(got, _fresh_generator_paths(s, 42, 640))


def test_exact_sampler_build_peaks_at_two_and_a_half_n_squared():
    # The build holds the (n+1)**2 covariance, factored in place, and one
    # block of lag diagonals' cells; at n = 512 the cells' transients are
    # still a sizeable share of the peak.
    n = 512
    ExactLinearSampler(M14, 0.5, 1.0, 8)  # numpy's lazy imports are not the build's
    tracemalloc.start()
    try:
        ExactLinearSampler(M14, 0.5, 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


def test_exact_sampler_build_at_n_1024_peaks_under_1_8_n_squared():
    # One (n+1)**2 array, factored in place; a separate n**2 factor made it 2.0.
    n = 1024
    ExactLinearSampler(M14, 0.5, 1.0, 8)
    tracemalloc.start()
    try:
        ExactLinearSampler(M14, 0.5, 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 8 * n * n


def test_exact_sampler_records_stage_seconds():
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    for value in (s.covariance_s, s.cholesky_s):
        assert isinstance(value, float) and math.isfinite(value) and value >= 0.0


def test_exact_sampler_accumulates_paths_seconds():
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    assert s.paths_s == 0.0
    exact_paths(s, seed=36, replicates=70)
    once = s.paths_s
    exact_paths(s, seed=36, replicates=3)
    assert math.isfinite(once) and 0.0 < once < s.paths_s


def test_exact_paths_seconds_leave_out_the_consumer():
    # path_blocks yields to its consumer between blocks: paths_s sums the
    # draws and the gemm of the 3 blocks, not the 0.1 s the consumer sleeps
    # after each of them.
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    consumer_s = 0.0
    for _ in s.path_blocks(seed=36, replicates=130):
        started = time.perf_counter()
        time.sleep(0.1)
        consumer_s += time.perf_counter() - started
    assert consumer_s >= 0.3 and 0.0 < s.paths_s < 0.1


def test_exact_path_blocks_reuse_one_buffer_and_gather_into_paths_array():
    s = ExactLinearSampler(M14, 0.5, 1.0, 16)
    ref = exact_paths(s, seed=38, replicates=130)
    blocks = []
    for first, rows in s.path_blocks(seed=38, replicates=130):
        assert np.array_equal(rows, ref[first : first + len(rows)])
        rows *= -2.0  # a consumer may scale a block in place
        blocks.append((first, rows))
    assert [(first, len(rows)) for first, rows in blocks] == [(0, 64), (64, 64), (128, 2)]
    assert all(np.shares_memory(rows, blocks[0][1]) for _, rows in blocks)
    assert np.array_equal(exact_paths(s, seed=38, replicates=130), ref)


def test_exact_sampler_records_node_level():
    s = ExactLinearSampler(M14_JUMP, 0.5, 1.0, 16)
    assert s.node_level == covariance_matrix(np.linspace(0.0, 1.0, 17), 0.5, M14_JUMP)[1] >= 16
    # Equal densities: the covariance is closed, and nothing is integrated.
    assert ExactLinearSampler(M14, 0.5, 1.0, 16).node_level == 0


def test_cholesky_writes_the_lower_factor_over_its_argument():
    c = np.array([[4.0, 2.0, 2.0], [2.0, 3.0, 1.0], [2.0, 1.0, 3.0]])
    spd = c.copy()
    factor = solver._cholesky(c)
    assert factor is c
    assert np.array_equal(factor, np.tril(factor)) and np.all(np.diag(factor) > 0.0)
    assert np.allclose(factor @ factor.T, spd, rtol=0.0, atol=1e-15)


def test_cholesky_in_place_allocates_no_matrix():
    # Only the per-column vectors are temporaries: under 0.05 n**2 doubles.
    n = 512
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n))
    c = a @ a.T / n + np.eye(n)
    tracemalloc.start()
    try:
        factor = solver._cholesky(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * n * n
    assert factor is c and np.array_equal(factor, np.tril(factor))


def test_cholesky_non_positive_pivot_raises_covariance_error():
    with pytest.raises(CovarianceError, match=r"^covariance is not positive definite: pivot 3 is -1$"):
        solver._cholesky(np.diag([1.0, 1.0, 1.0, -1.0]))


@pytest.mark.parametrize("medium", [M14, MediumParams(100, 0.01, 1, 1),
                                    MediumParams(0.25, 4, 2, 0.5)])
def test_exact_covariance_pivots_keep_a_wide_margin(medium):
    # Every pivot keeps at least 3% of its diagonal entry (0.069 measured at
    # n = 128), about ten orders of magnitude above where a diagonal shift of
    # 1e-12 of the largest entry could matter: the plain factor needs none.
    n = 128
    for x in (-0.5, 0.0, 1e-7, 0.5, 3.0):
        c = covariance_matrix(np.linspace(0.0, 1.0, n + 1), x, medium)[0][1:, 1:]
        diag = np.diag(c).copy()
        factor = solver._cholesky(c)
        assert np.min(np.diag(factor) ** 2 / diag) >= 0.03, x


def test_exact_increment_kurtosis_gaussian():
    s = ExactLinearSampler(M14, 0.5, 1.0, 100)
    arr = exact_paths(s, seed=33, replicates=120)
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
    grid = GridSpec(1.0, 32, 8.0, 64)
    reps = 160
    stack = np.stack(
        [sample_noise(grid, 35, r) for r in range(reps)], axis=2
    )
    u = solve_field_batch(M14, grid, SigmaSpec(), stack)
    j, xs = grid.snap(0.5)
    var = np.var(u[:, j, -1], ddof=1)
    target = covariance_linear(1.0, 1.0, xs, M14)
    assert var == pytest.approx(target, rel=0.10)


def test_second_moment_uniformly_bounded_under_refinement():
    # The maximum over cells of R-replicate second moments: at R = 256 the
    # ratio read 0.85-1.13 over seeds 20-39; at R = 48 one seed in 20 failed.
    target_mix = []
    for n, m in ((16, 64), (32, 128)):
        grid = GridSpec(1.0, n, 8.0, m)
        stack = np.stack(
            [sample_noise(grid, 36, r) for r in range(256)], axis=2
        )
        u = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), stack)
        second = np.mean(u**2, axis=0)
        assert np.isfinite(second).all()
        target_mix.append(second.max())
    assert target_mix[1] == pytest.approx(target_mix[0], rel=0.3)


# -- observed-column solve ---------------------------------------------------


def _noise_batch(grid, seed, reps):
    return np.stack([sample_noise(grid, seed, r) for r in range(reps)], axis=2)


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(h1=0.0, h2=0.7)], ids=["one", "affine0"])
@pytest.mark.parametrize("n, m, reps", [(12, 24, 1), (20, 48, 3), (16, 40, 8)])
def test_constant_sigma_columns_match_full_field(sigma, n, m, reps):
    grid = GridSpec(1.0, n, 4.0, m)
    cols = [grid.snap(x)[0] for x in (0.5, -0.5, 0.0, 0.5)]
    dw = _noise_batch(grid, 40, reps)
    full = solve_field_batch(M14, grid, sigma, dw)
    part = solve_field_batch(M14, grid, sigma, dw, columns=cols)
    assert part.shape == (reps, len(cols), n + 1)
    assert np.array_equal(part, full[:, cols, :])
    # Every replicate is solved alone, so one replicate gives its bits.
    single = solve_field_batch(M14, grid, sigma, dw[:, :, 0], columns=cols)
    assert np.array_equal(single, full[0, cols, :])


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(h1=0.0, h2=0.7)], ids=["one", "affine0"])
@pytest.mark.parametrize("reps", [1, 3, 64])
def test_constant_sigma_cell_path_does_not_depend_on_the_other_cells(sigma, reps):
    # A lone cell's per-frequency product is a matrix-matrix one like a
    # cell's among several; m = 40 is two FFT blocks of source cells.
    grid = GridSpec(1.0, 24, 4.0, 40)
    dw = _noise_batch(grid, 43, reps)
    cols = [grid.snap(x)[0] for x in (-0.5, 0.0, 0.5)]
    several = solve_field_batch(M14, grid, sigma, dw, columns=cols)
    for k, j in enumerate(cols):
        alone = solve_field_batch(M14, grid, sigma, dw, columns=[j])
        assert np.array_equal(alone[:, 0], several[:, k]), j


def test_nonlinear_sigma_columns_equal_full_field_exactly():
    grid = GridSpec(1.0, 10, 4.0, 24)
    cols = [3, 17, 3, 0, 23]
    dw = _noise_batch(grid, 41, 3)
    full = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), dw)
    report = {}
    part = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), dw, columns=cols, report=report)
    assert np.array_equal(part, full[:, cols, :])
    assert report["rows_per_step"] == 24


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(amp=0.5)], ids=["one", "sin"])
def test_column_solve_reports_kernel_path(sigma):
    grid = GridSpec(1.0, 8, 4.0, 16)
    dw = _noise_batch(grid, 42, 2)
    report = {}
    solve_field_batch(M14, grid, sigma, dw, columns=[11, 2], report=report)
    if sigma.constant is None:
        # The semigroup recursion holds K_{dt/4} (m x m), K_{3dt/2} (2m x m)
        # and the one-step P (2m x 2m).  At m = 16 each is one block whose
        # span is every column, so the band keeps every entry.
        assert report == {"noise_mib": 8 * 16 * 2 * 8 / 2**20, "rows_per_step": 16,
                          "kernel_stack": "semigroup",
                          "stack_mib": (16 * 16 + 32 * 16 + 32 * 32) * 8 / 2**20,
                          "band_fraction": 1.0}
        return
    # The 2 rows' kernel transforms at every source cell, (n+1) x 2 x m
    # complex, and one replicate's (n+1) x m transform; the exact variance
    # of u_n at cells 11 and 2.
    disc = report.pop("disc_variance_u_T")
    y = grid.cell_centers
    assert disc == pytest.approx([_direct_scheme_variance(M14, grid, y[j]) for j in (11, 2)],
                                 rel=1e-14)
    assert report == {"noise_mib": 8 * 16 * 2 * 8 / 2**20, "rows_per_step": 2,
                      "kernel_stack": "fft",
                      "stack_mib": 9 * 16 * (2 + 1) * 16 / 2**20}


@pytest.mark.parametrize("sigma", [SigmaSpec(amp=0.5), SigmaSpec(h1=0.5, h2=1.0)], ids=["sin", "affine"])
def test_semigroup_field_from_noise_stream_equals_array_solve(sigma):
    # n = 40 rows are read in 16-row blocks, the last one partial, 8 columns
    # wide: 5 replicates and 3 of zero noise.  The 5 paths are the bits of
    # the solve of the zero-padded (n, m, 8) array, and the padding's are
    # not returned.
    grid = GridSpec(1.0, 40, 4.0, 48)
    cols = [30, 2, 30, 47]
    chunk = NoiseChunk(grid, 43, 7, 5, width=8)
    from_stream, from_array = {}, {}
    streamed = solve_field_batch(M14, grid, sigma, chunk, columns=cols, report=from_stream)
    array = np.zeros((40, 48, 8))
    array[:, :, :5] = np.stack([sample_noise(grid, 43, 7 + j) for j in range(5)], axis=2)
    whole = solve_field_batch(M14, grid, sigma, array, columns=cols, report=from_array)
    assert streamed.shape == (5, 4, 41) and not whole[5:].any()
    assert np.array_equal(streamed.view(np.uint64), whole[:5].view(np.uint64))
    assert from_stream.pop("noise_mib") == 16 * 48 * 8 * 8 / 2**20
    assert from_array.pop("noise_mib") == 40 * 48 * 8 * 8 / 2**20
    assert from_stream == from_array


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(h1=0.0, h2=0.7)], ids=["one", "affine0"])
def test_fft_product_from_noise_replicates_equals_array_solve(sigma):
    # Each replicate is drawn only when the product reaches it, and gives the
    # bits of the (n, m, R) array's solve.  The rows' width plays no part:
    # only the chunk's 5 replicates are drawn and solved.
    grid = GridSpec(1.0, 40, 4.0, 48)
    cols = [30, 2, 30, 47]
    drawn = []

    def draw(grid, seed, replicate):
        drawn.append(replicate)
        return sample_noise(grid, seed, replicate)

    lazy = NoiseChunk(grid, 43, 7, 5, width=8, draw=draw)
    assert drawn == []
    from_lazy, from_array = {}, {}
    solved = solve_field_batch(M14, grid, sigma, lazy, columns=cols, report=from_lazy)
    assert drawn == [7, 8, 9, 10, 11]
    array = np.stack([sample_noise(grid, 43, 7 + j) for j in range(5)], axis=2)
    whole = solve_field_batch(M14, grid, sigma, array, columns=cols, report=from_array)
    assert np.array_equal(solved.view(np.uint64), whole.view(np.uint64))
    assert from_lazy.pop("noise_mib") == 40 * 48 * 8 / 2**20
    assert from_array.pop("noise_mib") == 40 * 48 * 5 * 8 / 2**20
    assert from_lazy == from_array


def test_fft_product_holds_one_transform_and_one_replicate_of_noise():
    # n = m = 256, 3 cells, 8 replicates drawn one at a time: the product
    # holds khat, one (n+1) x m complex transform, and n*m doubles each of
    # the replicate's noise and of its scaled copy.  Holding the previous
    # replicate's transform or noise through the next draw adds 1 or 0.5 MiB.
    grid = GridSpec(1.0, 256, 4.0, 256)
    cols = [112, 128, 143]
    chunk = NoiseChunk(grid, 1, 0, 8)
    solve_field_batch(M14, grid, SigmaSpec(), NoiseChunk(grid, 1, 0, 1), columns=cols)  # first-call caches
    tracemalloc.start()
    try:
        solve_field_batch(M14, grid, SigmaSpec(), chunk, columns=cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, m = grid.n, grid.m
    khat, transform = (n + 1) * len(cols) * m * 16, (n + 1) * m * 16
    assert peak <= khat + transform + 2 * n * m * 8 + 2**19


def test_column_solve_overflow_names_grid_cell():
    grid = GridSpec(1.0, 4, 4.0, 16)
    inc = np.zeros((4, 16))
    inc[1, :] = 1e308
    with pytest.raises(NonFiniteFieldError, match=r"i=2, cell j=5$"):
        solve_field_batch(M14, grid, SigmaSpec(), inc, columns=[12, 5])


@pytest.mark.parametrize("c", [0.7, -0.3, 0.0, 1e300])
def test_constant_sigma_solve_is_exactly_c_times_the_sigma_one_solve(c):
    grid = GridSpec(1.0, 20, 4.0, 48)
    cols = [grid.snap(x)[0] for x in (0.5, -0.5)]
    dw = _noise_batch(grid, 44, 3)
    one = solve_field_batch(M14, grid, SigmaSpec(), dw, columns=cols)
    got = solve_field_batch(M14, grid, SigmaSpec(h1=0.0, h2=c), dw, columns=cols)
    assert np.array_equal(got, c * one)
    assert not np.signbit(got[got == 0.0]).any()


def test_constant_sigma_overflow_names_the_row_of_the_direct_lag_sum():
    # sigma = 1.7e308 is applied after the inverse transform: the padded
    # transforms do not overflow where the direct lag sum stays finite.
    grid = GridSpec(1.0, 8, 2.0, 16)
    cols = [grid.snap(0.5)[0]]
    sigma = SigmaSpec(h1=0.0, h2=1.7e308)
    dw = _noise_batch(grid, 0, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _direct_lag_sum(M14, grid, sigma, dw, cols)
    # Replicates are solved in turn: the first one that overflows is named.
    k = int(np.argmax(~np.isfinite(ref).all(axis=(1, 2))))
    i = int(np.argmax(~np.isfinite(ref[k, 0])))
    assert (k, i) == (2, 7) and np.isfinite(ref[:k]).all()
    with pytest.raises(NonFiniteFieldError, match=rf"i={i}, cell j={cols[0]}$"):
        solve_field_batch(M14, grid, sigma, dw, columns=cols)


def test_columns_out_of_range_rejected():
    grid = GridSpec(1.0, 4, 4.0, 16)
    with pytest.raises(ValueError, match="columns"):
        solve_field_batch(M14, grid, SigmaSpec(), np.zeros((4, 16)), columns=[3, 16])


def _direct_lag_sum(medium, grid, sigma, dw, cols):
    """Reference for constant sigma: u_i = sum over d of K_d[cols] @ v_{i-d}, lag by lag, time last."""
    kernel = GreenKernel(medium)
    y = grid.cell_centers
    lags = [grid.dt / 4] + [(d - 0.5) * grid.dt for d in range(2, grid.n + 1)]
    rows = [kernel.evaluate(lag, y[cols, None], y[None, :]) for lag in lags]
    v = sigma.evaluate(np.zeros(dw.shape[1:])) * dw
    u = np.zeros((grid.n + 1, len(cols)) + dw.shape[2:])
    for i in range(1, grid.n + 1):
        u[i] = sum(rows[d - 1] @ v[i - d] for d in range(1, i + 1))
    return u.T


# m = 8 fits one FFT block; 48 and 70 take two and three, the last one partial.
@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(h1=0.0, h2=0.7)], ids=["one", "affine0"])
@pytest.mark.parametrize("n, L, m", [(1, 2.0, 8), (20, 4.0, 48), (33, 3.0, 70)])
@pytest.mark.parametrize("reps", [1, 3, 8])
def test_fft_product_matches_direct_lag_sum(sigma, n, L, m, reps):
    grid = GridSpec(1.0, n, L, m)
    cols = [grid.snap(x)[0] for x in (0.5, -0.5, 0.0, 0.5)] + [m - 1]
    dw = _noise_batch(grid, 43, reps)
    ref = _direct_lag_sum(M14, grid, sigma, dw, cols)
    got = solve_field_batch(M14, grid, sigma, dw, columns=cols)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(got[:, :, 0] == 0.0)
    single = solve_field_batch(M14, grid, sigma, dw[:, :, 0], columns=cols)
    assert np.max(np.abs(single - ref[0])) <= 1e-13 * np.max(np.abs(ref[0]))


def test_fft_product_is_causal_to_rounding():
    grid = GridSpec(1.0, 24, 4.0, 40)
    cols = [grid.snap(x)[0] for x in (-0.5, 0.0, 0.5)]
    dw = _noise_batch(grid, 44, 3)
    base = solve_field_batch(M14, grid, SigmaSpec(), dw, columns=cols)
    scale = np.max(np.abs(base))
    for k in (0, 7, 23):
        bumped = dw.copy()
        bumped[k] += 0.1
        pert = solve_field_batch(M14, grid, SigmaSpec(), bumped, columns=cols)
        assert np.max(np.abs(pert[..., : k + 1] - base[..., : k + 1])) <= 1e-14 * scale
        assert np.min(np.max(np.abs(pert[..., k + 1:] - base[..., k + 1:]), axis=(0, 1))) > 1e-6 * scale


def _direct_scheme_variance(medium, grid, x):
    """Reference: sum over lags d and cells l of K_d(x, y_l)**2 dt dx, each lag's row evaluated whole."""
    y = grid.cell_centers
    rows = GreenKernel(medium).evaluate(solver._cell_lags(grid.dt, grid.n)[:, None], x, y[None, :])
    return float(np.sum(rows**2) * grid.dt * grid.dx)


@pytest.mark.parametrize("sigma", [SigmaSpec(), SigmaSpec(h1=0.0, h2=0.7)], ids=["one", "affine0"])
@pytest.mark.parametrize("m, blocks", [(8, 1), (48, 2), (70, 3)])
def test_fft_report_variance_is_direct_kernel_sum(sigma, m, blocks):
    # The FFT product sums the squared kernel rows FFT_BLOCK source cells at
    # a time; the report gives c**2 times the whole rows' sum, in columns order.
    assert math.ceil(m / solver.FFT_BLOCK) == blocks
    grid = GridSpec(1.0, 12, 4.0, m)
    y = grid.cell_centers
    dw = _noise_batch(grid, 45, 1)
    j = grid.snap(0.5)[0]
    for cols in ([j], [j, j], [m - 1, 0, m - 1, grid.snap(-0.5)[0]]):
        report = {}
        solve_field_batch(M14, grid, sigma, dw, columns=cols, report=report)
        assert len(report["disc_variance_u_T"]) == len(cols)
        for got, col in zip(report["disc_variance_u_T"], cols):
            want = sigma.constant**2 * _direct_scheme_variance(M14, grid, y[col])
            assert got == pytest.approx(want, rel=1e-14)


def test_fft_report_variance_is_the_schemes_exact_variance():
    grid = GridSpec(1.0, 12, 4.0, 40)
    j, xs = grid.snap(0.5)
    kernel = GreenKernel(M14)
    lags = [grid.dt / 4] + [(d - 0.5) * grid.dt for d in range(2, grid.n + 1)]
    direct = sum(
        float(kernel.evaluate(lag, xs, y)) ** 2 for lag in lags for y in grid.cell_centers
    ) * grid.dt * grid.dx
    assert _direct_scheme_variance(M14, grid, xs) == pytest.approx(direct, rel=1e-13)
    # It is the exact variance of the scheme's u(T, x): compare with the
    # linear map from the noise, one unit increment per cell at a time.
    reps = grid.n * grid.m
    basis = np.eye(reps).reshape(grid.n, grid.m, reps) * math.sqrt(grid.dt * grid.dx)
    report = {}
    u_T = solve_field_batch(M14, grid, SigmaSpec(), basis, columns=[j], report=report)[:, 0, -1]
    assert np.sum(u_T**2) == pytest.approx(direct, rel=1e-12)
    assert report["disc_variance_u_T"][0] == pytest.approx(direct, rel=1e-13)


# -- semigroup recursion for nonlinear sigma ---------------------------------


def _direct_field(medium, grid, sigma, dw):
    """Reference scheme: u_i = sum over d of K_d @ v_{i-d}, every lag summed directly, time last."""
    kernel = GreenKernel(medium)
    y = grid.cell_centers
    lags = [grid.dt / 4] + [(d - 0.5) * grid.dt for d in range(2, grid.n + 1)]
    stack = [kernel.evaluate(lag, y[:, None], y[None, :]) for lag in lags]
    u = np.zeros((grid.n + 1,) + dw.shape[1:])
    v = np.zeros(dw.shape)
    for i in range(1, grid.n + 1):
        v[i - 1] = sigma.evaluate(u[i - 1]) * dw[i - 1]
        u[i] = sum(stack[d - 1] @ v[i - d] for d in range(1, i + 1))
    return u.T


def _quartic_variation_at(u, grid, xs):
    cols = [grid.snap(x)[0] for x in xs]
    return np.mean(np.sum(np.diff(u[:, cols], axis=-1) ** 4, axis=-1), axis=0)


# Tolerances are about twice the deviations measured with 8 replicates:
# V_n 1.1e-2 and path 2.7e-2 on (n=16, L=4, m=25), whose middle cell is
# centered on the interface; V_n 4.4e-3 and path 4.8e-3 on (n=24, L=2, m=32).
# A single step (n=1) is one lag: the same sum, up to rounding.
@pytest.mark.parametrize("sigma", [SigmaSpec(amp=0.5), SigmaSpec(h1=0.3, h2=1.0)], ids=["sin", "affine"])
@pytest.mark.parametrize("n, L, m, v_tol, path_tol",
                         [(16, 4.0, 25, 0.025, 0.05), (24, 2.0, 32, 0.01, 0.01),
                          (1, 2.0, 8, 1e-13, 1e-13)])
def test_semigroup_recursion_tracks_direct_lag_sum(sigma, n, L, m, v_tol, path_tol):
    grid = GridSpec(1.0, n, L, m)
    dw = _noise_batch(grid, 50, 8)
    ref = _direct_field(M14, grid, sigma, dw)
    got = solve_field_batch(M14, grid, sigma, dw)
    # Rows 1 and 2 hold one and two lags: the same sums, up to BLAS rounding.
    np.testing.assert_allclose(got[..., :3], ref[..., :3], rtol=1e-13, atol=1e-14 * np.max(np.abs(ref)))
    xs = (-0.5, 0.0, 0.5)
    v_ref, v_got = _quartic_variation_at(ref, grid, xs), _quartic_variation_at(got, grid, xs)
    assert np.max(np.abs(v_got / v_ref - 1.0)) <= v_tol
    assert np.max(np.abs(got - ref)) <= path_tol * np.max(np.abs(ref))


@pytest.mark.parametrize("m", [16, 64, 256])
def test_newest_lag_moves_both_schemes_together(m, monkeypatch):
    # Both schemes take their lags from _cell_lags.  At n = 2 a row holds at
    # most two lags, so either scheme is the direct sum up to rounding;
    # sin1:1e-300 is numerically one but takes the semigroup path.
    monkeypatch.setattr(solver, "NEWEST_LAG", 0.3)
    grid = GridSpec(1.0, 2, 4.0, m)
    dw = _noise_batch(grid, 51, 3)
    y = grid.cell_centers
    k1, k2 = (GreenKernel(M14).evaluate(lag, y[:, None], y[None, :])
              for lag in (0.3 * grid.dt, 1.5 * grid.dt))
    direct = np.stack([np.zeros_like(dw[0]), k1 @ dw[0], k1 @ dw[1] + k2 @ dw[0]]).T
    for spec, stack in (("sin1:1e-300", "semigroup"), ("one", "fft")):
        report = {}
        got = solve_field_batch(M14, grid, parse_sigma(spec), dw, report=report)
        assert report["kernel_stack"] == stack
        assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct)), spec


def test_semigroup_recursion_stable_on_coarse_grid():
    # dx / sqrt(dt) = 2.83: the midpoint one-step matrix G_dt(z_j, z_l)*dx has
    # row sums above one (spectral radius 1.17), so a recursion built on it
    # would grow like 1.17**n.  The cell-integrated P keeps every row sum <= 1.
    grid = GridSpec(1.0, 128, 8.0, 64)
    kernel = GreenKernel(M14)
    z = -2 * grid.L + (np.arange(2 * grid.m) + 0.5) * grid.dx
    edges = -2 * grid.L + np.arange(2 * grid.m + 1) * grid.dx
    midpoint = kernel.evaluate(grid.dt, z[:, None], z[None, :]) * grid.dx
    cells = kernel.cell_mass(grid.dt, z[:, None], edges[None, :-1], edges[None, 1:])
    assert midpoint.sum(axis=1).max() > 1.2
    assert cells.sum(axis=1).max() <= 1.0
    dw = _noise_batch(grid, 51, 8)
    ref = _direct_field(M14, grid, SigmaSpec(amp=0.5), dw)
    got = solve_field_batch(M14, grid, SigmaSpec(amp=0.5), dw)
    assert np.isfinite(got).all()
    assert np.max(np.abs(got)) == pytest.approx(np.max(np.abs(ref)), rel=0.10)


# -- banded semigroup operators ----------------------------------------------

HIGH_CONTRAST = MediumParams(0.01, 100, 3, 0.2)


def _dense_operators(medium, grid):
    """Reference K_{dt/4}, K_{3dt/2} and P, evaluated on every entry, subnormals as zero."""
    kernel = GreenKernel(medium)
    y, pad, dx, dt = grid.cell_centers, grid.m // 2, grid.dx, grid.dt
    z = np.concatenate([y[0] - dx * np.arange(pad, 0, -1), y, y[-1] + dx * np.arange(1, pad + 1)])
    edges = z[0] - 0.5 * dx + dx * np.arange(len(z) + 1)
    ops = [kernel.evaluate(0.25 * dt, y[:, None], y[None, :]),
           kernel.evaluate(1.5 * dt, z[:, None], y[None, :]),
           kernel.cell_mass(dt, z[:, None], edges[None, :-1], edges[None, 1:])]
    for a in ops:
        a[np.abs(a) < np.finfo(float).tiny] = 0.0
    return ops


def _split_fresh(fresh, m):
    """fresh = [K_1; K_2] as K_1's row blocks and K_2's, the latter shifted back up by m."""
    return ([b for b in fresh if b[0] < m],
            [(r0 - m, c0, c1, a) for r0, c0, c1, a in fresh if r0 >= m])


# m = 1 is one cell, 48 less than one block of K_{dt/4}, 192 and 256 several
# blocks of every operator, and 200 several blocks ending in a partial one.
@pytest.mark.parametrize("medium", [M14, HIGH_CONTRAST], ids=["demo", "contrast"])
@pytest.mark.parametrize("m", [1, 48, 192, 200, 256])
def test_band_blocks_match_dense_operators_and_skip_only_negligible_entries(medium, m):
    grid = GridSpec(1.0, 32, 4.0, m)
    fresh, step = solver._semigroup_operators(GreenKernel(medium), grid)
    assert [r0 for r0, _, _, _ in fresh] == sorted(r0 for r0, _, _, _ in fresh)
    for blocks, dense in zip((*_split_fresh(fresh, m), step), _dense_operators(medium, grid)):
        kept = np.zeros(dense.shape, dtype=bool)
        rows = 0
        for r0, c0, c1, a in blocks:
            assert r0 == rows and len(a) == min(solver.BAND_BLOCK, len(dense) - r0)
            assert 0 <= c0 <= c1 <= dense.shape[1] and a.shape[1] == c1 - c0
            np.testing.assert_allclose(a, dense[r0:r0 + len(a), c0:c1], rtol=1e-15, atol=0)
            kept[r0:r0 + len(a), c0:c1] = True
            rows += len(a)
        assert rows == len(dense)
        skipped = np.abs(dense[~kept])
        assert skipped.size == 0 or skipped.max() <= solver.BAND_FLOOR * dense.max()
        if m >= 192:
            assert kept.mean() < 0.7


def test_operator_build_evaluates_the_kernel_only_on_the_stored_bands(monkeypatch):
    # Every element passed to evaluate or cell_mass is one stored entry:
    # K_{dt/4} and K_{3dt/2} come from evaluate, P from cell_mass.
    counted = {"evaluate": 0, "cell_mass": 0}

    def counting(name):
        method = getattr(GreenKernel, name)

        def wrapper(self, *args):
            counted[name] += np.broadcast(*args).size
            return method(self, *args)
        return wrapper

    for name in counted:
        monkeypatch.setattr(GreenKernel, name, counting(name))
    fresh, step = solver._semigroup_operators(GreenKernel(M14), GridSpec(1.0, 128, 4.0, 256))
    stored = [sum(a.size for _, _, _, a in op) for op in (fresh, step)]
    assert counted == {"evaluate": stored[0], "cell_mass": stored[1]}
    assert counted == {"evaluate": 63_040, "cell_mass": 66_368}


def _dense_semigroup_field(medium, grid, sigma, dw):
    """Reference recursion: the semigroup scheme with the dense operators, time last."""
    newest, history, step = _dense_operators(medium, grid)
    inner = slice(grid.m // 2, grid.m // 2 + grid.m)
    u = np.zeros((grid.n + 1,) + dw.shape[1:])
    hist = np.zeros((len(step),) + dw.shape[2:])
    for i in range(1, grid.n + 1):
        v = sigma.evaluate(u[i - 1]) * dw[i - 1]
        u[i] = newest @ v + hist[inner]
        hist = step @ hist + history @ v
    return u.T


def _three_product_field(medium, grid, sigma, chunk):
    """Reference loop: the semigroup step as K_1 v, then P S and K_2 v added through a scratch block.

    Returns the paths time last, like solve_field_batch.
    """
    fresh, step = solver._semigroup_operators(GreenKernel(medium), grid)
    m, r = grid.m, chunk.width
    newest, history = _split_fresh(fresh, m)
    inner, padded = slice(m // 2, m // 2 + m), m + 2 * (m // 2)
    out = np.zeros((grid.n + 1, m, r))
    u, v = np.zeros((m, r)), np.empty((m, r))
    hist, nxt = np.zeros((padded, r)), np.empty((padded, r))
    scratch = np.empty((solver.BAND_BLOCK, r))
    for i, dw in enumerate(chunk.rows(), 1):
        sigma.evaluate(u, out=v)
        v *= dw
        solver._band_matmul(newest, v, u)
        u += hist[inner]
        out[i] = u
        if i < grid.n:
            solver._band_matmul(step, hist, nxt)
            for r0, c0, c1, a in history:
                part = scratch[:len(a)]
                np.matmul(a, v[c0:c1], out=part)
                nxt[r0:r0 + len(a)] += part
            hist, nxt = nxt, hist
    return out[:, :, :chunk.count].T


# m = 200 ends K_1's rows in a partial block, so K_2's start inside a 64-row stride.
@pytest.mark.parametrize("sigma", [SigmaSpec(amp=0.5), SigmaSpec(h1=0.5, h2=1.0)], ids=["sin", "affine"])
@pytest.mark.parametrize("m", [48, 200])
def test_semigroup_step_is_bit_for_bit_the_three_product_step(sigma, m):
    grid = GridSpec(1.0, 24, 4.0, m)
    chunk = NoiseChunk(grid, 53, 5, 3, width=8)
    ref = _three_product_field(M14, grid, sigma, chunk)
    got = solve_field_batch(M14, grid, sigma, chunk)
    assert got.shape == ref.shape and np.array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("medium", [M14, HIGH_CONTRAST], ids=["demo", "contrast"])
def test_banded_recursion_matches_dense_operator_recursion(medium):
    grid = GridSpec(1.0, 32, 4.0, 192)
    dw = _noise_batch(grid, 52, 4)
    ref = _dense_semigroup_field(medium, grid, SigmaSpec(amp=0.5), dw)
    got = solve_field_batch(medium, grid, SigmaSpec(amp=0.5), dw)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("medium", [MediumParams(1, 4, 1, 1), MediumParams(4, 1, 1, 1),
                                    MediumParams(1, 4, 1, 3), MediumParams(2, 0.5, 3, 1)],
                         ids=["a1<a2", "a1>a2", "rho1<rho2", "rho1>rho2"])
def test_cell_mass_matches_quadrature_and_conserves_mass(medium):
    from scipy.integrate import quad

    kernel = GreenKernel(medium)
    for t in (0.01, 0.2):
        for x in (-0.6, -0.03, 0.0, 0.05, 0.7):
            for lo, hi in ((-0.3, 0.2), (-0.02, 0.01), (-0.25, 0.0), (0.0, 0.3), (0.4, 0.9)):
                pieces = [(lo, min(hi, 0.0)), (max(lo, 0.0), hi)]
                ref = sum(quad(lambda y: kernel.evaluate(t, x, y), a, b, epsabs=1e-14)[0]
                          for a, b in pieces if b > a)
                assert kernel.cell_mass(t, x, lo, hi) == pytest.approx(ref, rel=1e-10, abs=1e-14)
    edges = np.linspace(-12.0, 12.0, 481)
    xs = np.linspace(-2.0, 2.0, 17)[:, None]
    for t in (0.01, 0.2):
        cells = kernel.cell_mass(t, xs, edges[None, :-1], edges[None, 1:])
        assert np.all(cells >= 0.0)
        np.testing.assert_allclose(cells.sum(axis=1), 1.0, rtol=0, atol=1e-14)
