import numpy as np
import pytest

from skewheat import MediumParams, position_map, tau, A_of


def test_homogeneous_collapses_all_corrections():
    p = MediumParams(1, 1, 1, 1)
    assert p.alpha == 0.0
    assert p.beta == 0.0
    assert p.eta == 1.0


def test_hand_derived_constants_one_four():
    # alpha = 1 - 1/4; beta = (1 - 1/2)/(1 + 1/2) = 1/3;
    # eta = ((2/3)^2 + (1/2)(4/3)^2)/2 = 2/3.
    p = MediumParams(1, 4, 1, 1)
    assert p.alpha == pytest.approx(0.75, rel=1e-15)
    assert p.beta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p.eta == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_eta_positive_on_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a1, a2 = np.exp(rng.uniform(-2, 2, size=2))
        r1, r2 = np.exp(rng.uniform(-1, 1, size=2))
        p = MediumParams(a1, a2, r1, r2)
        assert p.eta > 0.0


def test_beta_strictly_inside_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a1, a2 = np.exp(rng.uniform(-3, 3, size=2))
        r1, r2 = np.exp(rng.uniform(-2, 2, size=2))
        p = MediumParams(a1, a2, r1, r2)
        assert abs(p.beta) < 1.0


def test_density_scale_invariance():
    rng = np.random.default_rng(3)
    base = MediumParams(0.7, 2.2, 0.9, 1.8)
    for _ in range(20):
        c = float(np.exp(rng.uniform(-3, 3)))
        p = MediumParams(base.a1, base.a2, c * base.rho1, c * base.rho2)
        assert p.alpha == pytest.approx(base.alpha, rel=1e-12)
        assert p.beta == pytest.approx(base.beta, rel=1e-12)
        assert p.eta == pytest.approx(base.eta, rel=1e-12)


def test_position_map_examples():
    assert position_map(0.0, MediumParams(2, 3, 1, 1)) == 0.0
    assert position_map(-2.0, MediumParams(4, 1, 1, 1)) == -1.0
    assert position_map(3.0, MediumParams(1, 9, 1, 1)) == 1.0


def test_position_map_monotone():
    rng = np.random.default_rng(4)
    p = MediumParams(0.5, 3.0, 1.0, 2.0)
    y = np.sort(rng.uniform(-5, 5, size=200))
    f = position_map(y, p)
    assert np.all(np.diff(f) > 0)


def test_tau_values():
    assert tau(1.0, MediumParams(1, 4, 1, 1)) == 1.0
    assert tau(0.0, MediumParams(1, 1, 1, 1)) == 1.0
    assert tau(0.0, MediumParams(1, 4, 1, 1)) == pytest.approx(4.0 / 9.0, rel=1e-14)


def test_left_branch_convention_at_zero():
    p = MediumParams(1.5, 2.5, 0.3, 0.8)
    assert A_of(0.0, p) == p.a1
    assert A_of(0.5, p) == p.a2


@pytest.mark.parametrize("bad", [
    dict(a1=0.0, a2=1, rho1=1, rho2=1),
    dict(a1=1, a2=-2.0, rho1=1, rho2=1),
    dict(a1=1, a2=1, rho1=float("nan"), rho2=1),
    dict(a1=1, a2=1, rho1=1, rho2=float("inf")),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        MediumParams(**bad)
