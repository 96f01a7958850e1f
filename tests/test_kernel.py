import math
import warnings

import numpy as np
import pytest

from skewheat import MediumParams, GreenKernel
from skewheat.kernel import _erfc
from skewheat.medium import position_map
from skewheat.checks import (
    bound_constants,
    pde_residual,
    pointwise_bound_violations,
    quad_l1,
    quad_cross,
    random_cases,
    reduction_max_rel_error,
    pde_residual_sweep,
    time_derivative_fd,
)

HOMOG = GreenKernel(MediumParams(1, 1, 1, 1))
K14 = GreenKernel(MediumParams(1, 4, 1, 1))

# Frozen 40-digit evaluations of the kernel display (mpmath), rounded to float64.
HIGH_PRECISION_CASES = [
    # (params, t, x, y, value)
    ((1, 4, 1, 1), 0.5, 0.5, -0.5, 0.2143103563984024430178256381209761641364),
    ((1, 4, 1, 2), 0.25, -1.0, 0.75, 0.01454970000254568443208779642327304610647),
    ((1, 4, 1, 2), 1.5, 0.0, 0.0, 0.1302940031741119790897025660902258678869),
    ((1, 4, 1, 2), 0.1, 2.0, -0.3, 0.0001079398188975534287829465468284943227947),
]


def test_homogeneous_point_values():
    assert HOMOG.evaluate(1.0, 1.0, 0.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-14
    )
    assert HOMOG.evaluate(1.0, 0.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-14
    )


@pytest.mark.parametrize("params,t,x,y,expected", HIGH_PRECISION_CASES)
def test_high_precision_oracle_values(params, t, x, y, expected):
    kernel = GreenKernel(MediumParams(*params))
    assert kernel.evaluate(t, x, y) == pytest.approx(expected, rel=1e-14)


def test_nonpositive_lag_rejected():
    for fn in (
        lambda: K14.evaluate(0.0, 0.1, 0.2),
        lambda: K14.evaluate(-1.0, 0.1, 0.2),
        lambda: K14.cross_integral(0.5, 0.0, 0.1),
    ):
        with pytest.raises(ValueError):
            fn()


def test_homogeneous_integral_identities():
    t, x = 0.7, 1.3
    assert HOMOG.cross_integral(t, t, x) == pytest.approx(1.0 / (2 * math.sqrt(math.pi * t)), rel=1e-14)
    assert HOMOG.cross_integral(0.3, 0.9, 0.4) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi * 1.2), rel=1e-14
    )


def test_cross_integral_symmetry_and_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2 = rng.uniform(0.05, 2.0, size=2)
        x = rng.uniform(-2, 2)
        assert K14.cross_integral(t1, t2, x) == pytest.approx(
            K14.cross_integral(t2, t1, x), rel=1e-13
        )
        assert K14.cross_integral(t1, t1, x) == pytest.approx(
            quad_cross(K14, t1, t1, x), rel=1e-10
        )


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e300])
def test_cross_integral_scales_at_extreme_lags(scale):
    # G_{c t}(sqrt(c) x, sqrt(c) y) = G_t(x, y) / sqrt(c).  At these lags
    # 2*t1*t2 underflows or overflows a double, where the plain erfc argument
    # s / sqrt(2 t1 t2 / (t1 + t2)) warns, and is 0/0 at x = 0 on underflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 0.5, -0.3):
            got = K14.cross_integral(scale, 3.0 * scale, math.sqrt(scale) * x) * math.sqrt(scale)
            assert got == pytest.approx(K14.cross_integral(1.0, 3.0, x), rel=1e-14), x


def test_closed_forms_match_quadrature_randomized():
    for medium, t, t2, x in random_cases(seed=11, count=20):
        kernel = GreenKernel(medium)
        assert quad_l1(kernel, t, x) == pytest.approx(1.0, abs=1e-10)
        assert kernel.cross_integral(t, t, x) == pytest.approx(quad_cross(kernel, t, t, x), abs=1e-10)
        assert kernel.cross_integral(t, t2, x) == pytest.approx(
            quad_cross(kernel, t, t2, x), abs=1e-10
        )


def test_l1_bound_holds_on_sampled_cases():
    c_l1 = bound_constants(K14.params)[1]
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = rng.uniform(0.01, 3.0)
        x = rng.uniform(-4, 4)
        assert quad_l1(K14, t, x) <= c_l1


def test_l2_bound_holds_on_sampled_cases():
    c_l2 = bound_constants(K14.params)[2]
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = rng.uniform(0.01, 3.0)
        x = rng.uniform(-4, 4)
        assert K14.cross_integral(t, t, x) <= c_l2**2 / (2 * math.sqrt(math.pi)) / math.sqrt(t)


def test_pointwise_bound_randomized():
    rng = np.random.default_rng(8)
    t = rng.uniform(0.01, 2.0, size=10_000)
    x = rng.uniform(-4, 4, size=10_000)
    y = rng.uniform(-4, 4, size=10_000)
    assert pointwise_bound_violations(GreenKernel(MediumParams(1, 4, 1, 2)), t, x, y) == 0
    assert pointwise_bound_violations(HOMOG, t, x, y) == 0


def test_pointwise_bound_at_boundary_sign_convention():
    # y = 0 takes sign -1, the left-branch pairing.
    assert pointwise_bound_violations(K14, 0.4, 0.9, 0.0) == 0
    val = K14.evaluate(0.4, 0.9, 0.0)
    fx = 0.9 / 2.0
    expected = (1 - K14.params.beta) * math.exp(-(fx**2) / 0.8) / math.sqrt(2 * math.pi * 0.4)
    assert val == pytest.approx(expected, rel=1e-14)


def test_positivity_when_beta_below_one():
    rng = np.random.default_rng(9)
    t = rng.uniform(0.01, 2.0, size=5000)
    x = rng.uniform(-4, 4, size=5000)
    y = rng.uniform(-4, 4, size=5000)
    for kernel in (K14, GreenKernel(MediumParams(3, 0.5, 2, 0.7))):
        vals = kernel.evaluate(t, x, y)
        assert np.all(vals >= 0)
        # Strict positivity wherever the direct Gaussian is representable at
        # all; far in the tails both terms underflow to an exact float zero.
        fx = np.asarray([position_map(v, kernel.params) for v in x])
        fy = np.asarray([position_map(v, kernel.params) for v in y])
        representable = (fx - fy) ** 2 / (2 * t) < 700.0
        assert np.all(vals[representable] > 0)


def test_reduction_to_classical_heat_kernel():
    grid = np.linspace(0.01, 1.0, 12)
    xy = np.linspace(-3, 3, 12)
    assert reduction_max_rel_error(1.0, 1.0, grid, xy, xy) <= 1e-12
    assert reduction_max_rel_error(4.0, 2.0, grid, xy, xy) <= 1e-12


def test_continuity_across_interface_in_x():
    for t in (0.05, 0.5, 1.5):
        for y in (-1.0, 0.0, 0.7):
            lhs = K14.evaluate(t, -1e-10, y)
            rhs = K14.evaluate(t, 1e-10, y)
            assert abs(lhs - rhs) <= 1e-8


def test_pde_residual_homogeneous_point():
    res = pde_residual(HOMOG, 0.5, 1.0, 0.0, 1e-3)
    dt = abs(time_derivative_fd(HOMOG, 0.5, 1.0, 0.0, 1e-3))
    assert res / dt < 1e-4


def test_pde_residual_grid_normalized():
    worst = pde_residual_sweep(
        K14,
        np.linspace(0.25, 1.0, 5),
        np.concatenate([np.linspace(-2, -0.25, 6), np.linspace(0.25, 2, 6)]),
        y=0.0,
        h=1e-3,
    )
    assert worst < 1e-3


def test_pde_residual_interface_trend_recorded(capsys):
    # Diagnostic only: the off-interface assumption degrades as x -> 0.
    values = [(x, pde_residual(K14, 0.5, x, 0.0, 1e-3)) for x in (1.0, 0.5, 0.25, 0.1, 0.05)]
    print("pde residual toward interface:", values)


def test_pde_residual_preconditions():
    with pytest.raises(ValueError):
        pde_residual(K14, 1e-4, 1.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        pde_residual(K14, 0.5, 1e-4, 0.0, 1e-3)


def test_bound_constants_formulas():
    c_pointwise, c_l1, c_l2 = bound_constants(K14.params)
    beta = 1.0 / 3.0
    inv = 1.0 + 0.5
    assert c_pointwise == pytest.approx((1 + beta) / math.sqrt(2 * math.pi) * inv, rel=1e-14)
    assert c_l1 == pytest.approx(inv * (1 + beta) * 2.0, rel=1e-14)
    assert c_l2 == pytest.approx(4 ** 0.25 * (1 + beta) * inv, rel=1e-14)
    assert c_pointwise > 0 and c_l1 > 0 and c_l2 > 0


# -- cross_integral's one-erfc closed form -----------------------------------------


def _reference_cross_integral(kernel, t1, t2, x):
    """The eight-erfc form of cross_integral: each product term's half-line mass."""
    from scipy.special import erfc

    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    p, beta = kernel.params, kernel.params.beta
    b = np.asarray(position_map(x, kernel.params), dtype=float)
    s = np.abs(b)
    tsum = t1 + t2
    scale = np.sqrt(2.0 * t1 * t2 / tsum)

    def center(c1, c2):
        return (c1 * t2 + c2 * t1) / tsum

    def lower(mu):
        return 0.5 * erfc(mu / scale)

    def upper(mu):
        return 0.5 * erfc(-mu / scale)

    damp_ds = np.exp(-((b - s) ** 2) / (2.0 * tsum))
    damp_dr = np.exp(-((b + s) ** 2) / (2.0 * tsum))
    left = (lower(center(b, b)) - beta * damp_ds * (lower(center(b, s)) + lower(center(s, b)))
            + beta**2 * lower(s)) / math.sqrt(p.a1)
    right = (upper(center(b, b)) + beta * damp_dr * (upper(center(b, -s)) + upper(center(-s, b)))
             + beta**2 * upper(-s)) / math.sqrt(p.a2)
    return (left + right) / np.sqrt(2.0 * math.pi * tsum)


ORACLE_MEDIA = [(1, 4, 1, 1), (4, 1, 1, 2), (1, 1, 1, 1), (2, 0.5, 3, 1)]
TINY_X = [0.0, -0.0, 1e-9, -1e-9, 1e-300, -1e-300, 5e-324, -5e-324]


@pytest.mark.parametrize("params", ORACLE_MEDIA, ids=str)
def test_cross_integral_matches_eight_erfc_reference(params):
    kernel = GreenKernel(MediumParams(*params))
    rng = np.random.default_rng(41)
    count = 30_000
    t1 = 10.0 ** rng.uniform(-6.0, 1.0, count)
    t2 = 10.0 ** rng.uniform(-6.0, 1.0, count)
    # Half on a uniform range, half within a few lags of the interface.
    x = np.concatenate([rng.uniform(-4.0, 4.0, count // 2),
                        rng.choice([-1.0, 1.0], count // 2) * 10.0 ** rng.uniform(-12, 0, count // 2)])
    x[: len(TINY_X)] = TINY_X
    got = kernel.cross_integral(t1, t2, x)
    ref = _reference_cross_integral(kernel, t1, t2, x)
    assert np.all(ref > 0.0)
    assert np.max(np.abs(got - ref) / ref) <= 2e-15


def test_cross_integral_exactly_symmetric_and_scalar():
    rng = np.random.default_rng(42)
    t1 = 10.0 ** rng.uniform(-6.0, 1.0, 1000)
    t2 = 10.0 ** rng.uniform(-6.0, 1.0, 1000)
    x = rng.uniform(-3.0, 3.0, 1000)
    for params in ORACLE_MEDIA:
        kernel = GreenKernel(MediumParams(*params))
        assert np.array_equal(kernel.cross_integral(t1, t2, x), kernel.cross_integral(t2, t1, x))
        for xs in (0.5, -0.5, *TINY_X):
            assert type(kernel.cross_integral(0.3, 0.7, xs)) is float
    # Broadcasting over a column of lags and a row of points.
    assert K14.cross_integral(t1[:5, None], 0.4, x[None, :7]).shape == (5, 7)


def test_covariance_matrix_matches_eight_erfc_reference(monkeypatch):
    # The quadrature runs only where the density jumps.
    from skewheat import covariance_matrix

    times = np.linspace(0.0, 1.0, 513)
    medium = MediumParams(1, 4, 1, 2)
    got, got_level = covariance_matrix(times, 0.5, medium)
    monkeypatch.setattr(GreenKernel, "cross_integral", _reference_cross_integral)
    ref, ref_level = covariance_matrix(times, 0.5, medium)
    assert got_level == ref_level
    assert np.max(np.abs(got - ref)) <= 1e-15


def test_cross_integral_is_the_diagonal_plus_the_interface_term():
    rng = np.random.default_rng(43)
    t1 = 10.0 ** rng.uniform(-6.0, 1.0, 2000)
    t2 = 10.0 ** rng.uniform(-6.0, 1.0, 2000)
    x = np.concatenate([rng.uniform(-8.0, 8.0, 1000),
                        rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-12, 0, 1000)])
    x[: len(TINY_X)] = TINY_X
    # Equal densities: G is symmetric, and Chapman-Kolmogorov leaves G_{t1+t2}(x, x).
    for params in ((1, 4, 1, 1), (100, 0.01, 1, 1), (2, 0.5, 3, 3), (1, 1, 1, 1)):
        kernel = GreenKernel(MediumParams(*params))
        diagonal = kernel.evaluate(t1 + t2, x, x)
        assert np.max(np.abs(kernel.cross_integral(t1, t2, x) - diagonal) / diagonal) <= 1e-15
        assert np.all(kernel.interface_cross(t1, t2, x) == 0.0)
    for params in ((1, 4, 1, 2), (0.01, 100, 3, 0.2)):
        kernel = GreenKernel(MediumParams(*params))
        term = kernel.interface_cross(t1, t2, x)
        assert np.array_equal(kernel.cross_integral(t1, t2, x), kernel.evaluate(t1 + t2, x, x) + term)
        assert np.max(np.abs(term)) > 0.1


@pytest.mark.parametrize("params", ORACLE_MEDIA, ids=str)
def test_diagonal_integral_matches_quadrature(params):
    from scipy.integrate import quad

    kernel = GreenKernel(MediumParams(*params))
    for x in (-0.5, -1e-7, 0.0, 1e-7, 0.5, 7.9):
        for u in (1e-4, 2.0):
            # The integrand is r**-1/2 near 0: integrate in v = sqrt(r), on dyadic
            # panels that resolve the reflected term's onset at v ~ |f(x)|.
            edges = [0.0] + [math.sqrt(u) * 2.0**k for k in range(-30, 1)]
            ref = math.fsum(quad(lambda v: 2.0 * v * kernel.evaluate(v * v, x, x), lo, hi,
                                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
                            for lo, hi in zip(edges[:-1], edges[1:]))
            assert kernel.diagonal_integral(u, x) == pytest.approx(ref, rel=1e-12), (x, u)


def test_diagonal_integral_edges():
    # u = 0 and points whose f(x)**2 overflows form no inf * 0 and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (0.0, 0.5, -1e200, 1e200, -math.inf, math.inf):
            assert K14.diagonal_integral(0.0, x) == 0.0
        u = np.array([0.25, 1.0])
        assert np.array_equal(K14.diagonal_integral(u, 1e200), np.sqrt(2.0 * u / math.pi) / 2.0)
        assert np.array_equal(K14.diagonal_integral(u, -1e200), np.sqrt(2.0 * u / math.pi))
        assert K14.diagonal_integral(u[:, None], np.array([-1.0, 0.0, 1.0])).shape == (2, 3)
    assert type(K14.diagonal_integral(0.5, 0.5)) is float
    with pytest.raises(ValueError):
        K14.diagonal_integral(-1e-300, 0.5)


def test_cross_integral_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(0.25, 4.0)
    lag = st.floats(1e-6, 10.0)
    point = st.one_of(st.floats(-5.0, 5.0), st.sampled_from(TINY_X))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(positive, positive, positive, positive, lag, lag, point)
    def check(a1, a2, rho1, rho2, t1, t2, x):
        kernel = GreenKernel(MediumParams(a1, a2, rho1, rho2))
        got = kernel.cross_integral(t1, t2, x)
        ref = float(_reference_cross_integral(kernel, t1, t2, x))
        assert got == pytest.approx(ref, rel=2e-15, abs=0.0)
        assert got == kernel.cross_integral(t2, t1, x)

    check()


# -- the numpy erfc ------------------------------------------------------------------

# Frozen 40-digit evaluations of erfc (mpmath), rounded to float64.
ERFC_CASES = [
    (0.0, 1.0),
    (1e-300, 1.0),
    (-1e-300, 1.0),
    (0.1, 8.875370839817151015952877489856959382766e-1),
    (-0.3, 1.328626759459127416189617985318203033258),
    (0.46875, 5.073865267820620084118238980646533430763e-1),
    (-0.46875, 1.492613473217937991588176101935346656924),
    (0.5, 4.795001221869534623172533461080354712635e-1),
    (1.0, 1.572992070502851306587793649173907407039e-1),
    (-1.0, 1.842700792949714869341220635082609259296),
    (2.5, 4.069520174449589395642157399749127203487e-4),
    (4.0, 1.541725790028001885215967348688404857215e-8),
    (-4.0, 1.999999984582742099719981147840326513116),
    (4.5, 1.966160441542887476279160367664332660578e-10),
    (10.0, 2.088487583762544757000786294957788611561e-45),
    (-10.0, 2.0),
    (26.5, 2.210907664263734275929239022915826039075e-307),
    (27.0, 5.237048923789255685016067682849547090934e-319),
    (-27.0, 2.0),
    (math.inf, 0.0),
    (-math.inf, 2.0),
]


def _assert_erfc_close(got, ref):
    """At most 1e-15 absolute error, and 2e-15 relative wherever erfc >= 1e-300."""
    err = np.abs(got - ref)
    assert np.max(err) <= 1e-15
    big = ref >= 1e-300
    assert np.max(err[big] / ref[big]) <= 2e-15


def test_erfc_matches_frozen_high_precision_values():
    xs = np.array([x for x, _ in ERFC_CASES])
    _assert_erfc_close(_erfc(xs), np.array([v for _, v in ERFC_CASES]))
    assert np.isnan(_erfc(np.nan)) and np.all(np.isnan(_erfc(np.array([np.nan, -np.nan]))))
    assert _erfc(0.5).shape == () and _erfc(xs.reshape(3, 7)).shape == (3, 7)
    assert np.array_equal(_erfc(xs.reshape(3, 7)).ravel(), _erfc(xs))


def test_erfc_matches_live_mpmath_sweep():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    # Every rational form, both signs, each region edge and the subnormal tail.
    xs = np.concatenate([
        rng.uniform(-6.0, 28.0, 2000),
        rng.uniform(-0.5, 0.5, 300),
        rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-300.0, 0.0, 300),
        rng.choice([0.46875, 4.0, -0.46875, -4.0], 400) + rng.uniform(-1e-3, 1e-3, 400),
        rng.uniform(25.5, 27.5, 200),
    ])
    with mpmath.workdps(40):
        ref = [mpmath.erfc(mpmath.mpf(float(x))) for x in xs]
        err = np.array([float(abs(mpmath.mpf(float(g)) - r)) for g, r in zip(_erfc(xs), ref)])
        rel = np.array([float(e / r) if r >= 1e-300 else 0.0 for e, r in zip(err, ref)])
    assert np.max(err) <= 1e-15
    assert np.max(rel) <= 2e-15


def test_erfc_reflection_and_monotone_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    edges = [0.46875, 4.0, 27.0, -0.46875, -4.0, -27.0]
    point = st.one_of(st.floats(-30.0, 30.0), st.sampled_from(edges))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(point, st.floats(0.0, 60.0), st.integers(1, 64))
    def check(x, gap, ulps):
        ex = float(_erfc(x))
        assert abs(ex + float(_erfc(-x)) - 2.0) <= 2 * np.spacing(2.0)
        y = x + gap
        y += ulps * abs(np.spacing(y))
        # Not exactly monotone: rounding at Cody's region edges can rise by 2 ulp.
        assert float(_erfc(y)) <= ex + 2 * np.spacing(ex)

    check()


def test_cell_mass_adjacent_cells_add_up_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(0.25, 4.0)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(positive, positive, positive, positive, st.floats(1e-4, 2.0),
                      st.floats(0.5, 8.0), st.floats(-1.0, 1.0), st.integers(2, 64))
    def check(a1, a2, rho1, rho2, t, half_width, where, cells):
        kernel = GreenKernel(MediumParams(a1, a2, rho1, rho2))
        edges = np.linspace(-half_width, half_width, cells + 1)
        x = where * half_width
        single = kernel.cell_mass(t, x, edges[:-1], edges[1:])
        pairs = kernel.cell_mass(t, x, edges[:-2], edges[2:])
        assert np.min(single) >= 0.0
        assert np.max(np.abs(single[:-1] + single[1:] - pairs)) <= 4e-16

    check()


def _two_branch_cell_mass(kernel, t, x, lo, hi):
    """cell_mass with both half-line branches evaluated on every cell."""
    p, beta = kernel.params, kernel.params.beta
    b = np.asarray(position_map(x, p), dtype=float)
    s = np.abs(b)
    rt = np.sqrt(2.0 * t)

    def mass(c, u0, u1):
        a, z = (u0 - c) / rt, (u1 - c) / rt
        upper = a >= 0
        return 0.5 * (_erfc(np.where(upper, a, -z)) - _erfc(np.where(upper, z, -a)))

    l0, l1 = np.minimum(lo, 0.0) / math.sqrt(p.a1), np.minimum(hi, 0.0) / math.sqrt(p.a1)
    r0, r1 = np.maximum(lo, 0.0) / math.sqrt(p.a2), np.maximum(hi, 0.0) / math.sqrt(p.a2)
    return (mass(b, l0, l1) - beta * mass(s, l0, l1)) + (mass(b, r0, r1) + beta * mass(-s, r0, r1))


def test_cell_mass_skipped_branches_are_bitwise_exact_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(0.25, 4.0)
    edge = st.one_of(st.floats(-8.0, 8.0), st.just(0.0))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(positive, st.one_of(positive, st.none()), positive,
                      st.one_of(positive, st.none()), st.floats(1e-4, 2.0),
                      st.lists(edge, min_size=2, max_size=40), st.booleans(),
                      st.lists(edge, min_size=1, max_size=5))
    def check(a1, a2, rho1, rho2, t, edges, with_zero, xs):
        # None draws a2 = a1 or rho2 = rho1; both at once give beta = 0.
        kernel = GreenKernel(MediumParams(a1, a1 if a2 is None else a2,
                                          rho1, rho1 if rho2 is None else rho2))
        edges = np.unique(np.array(edges + [0.0] * with_zero))
        if len(edges) < 2:
            return
        x = np.array(xs)[:, None]
        lo, hi = edges[None, :-1], edges[None, 1:]
        got = kernel.cell_mass(t, x, lo, hi)
        assert got.tobytes() == _two_branch_cell_mass(kernel, t, x, lo, hi).tobytes()
        scalar = kernel.cell_mass(t, float(x[0, 0]), float(edges[0]), float(edges[1]))
        assert scalar == float(_two_branch_cell_mass(kernel, t, x[0, 0], edges[0], edges[1]))

    check()
