import math

import numpy as np
import pytest
from numpy.random import Philox

from skewheat import GridSpec, sample_noise
from skewheat.noise import standard_normals, STREAM_FIELD_NOISE, STREAM_EXACT_PATHS


def test_grid_arithmetic():
    g = GridSpec(T=1.0, n=4, L=2.0, m=4)
    assert g.dt == 0.25
    assert g.dx == 1.0
    assert np.allclose(g.cell_centers, [-1.5, -0.5, 0.5, 1.5])
    assert g.time_nodes[-1] == 1.0
    assert np.all(np.abs(g.cell_centers) < g.L)


def test_degenerate_single_cell_grid_accepted():
    g = GridSpec(T=1.0, n=1, L=1.0, m=1)
    assert g.dx == 2.0
    assert g.cell_centers.tolist() == [0.0]


@pytest.mark.parametrize("kwargs", [
    dict(T=0.0, n=4, L=2.0, m=4),
    dict(T=1.0, n=0, L=2.0, m=4),
    dict(T=1.0, n=4, L=0.0, m=4),
    dict(T=1.0, n=4, L=2.0, m=0),
])
def test_invalid_grid_rejected(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_snap_prefers_left_on_ties():
    g = GridSpec(T=1.0, n=2, L=8.0, m=128)
    j, xs = g.snap(0.5)
    assert xs == 0.4375
    j0, xs0 = g.snap(0.0)
    assert xs0 == -0.0625


def test_same_stream_is_bit_identical():
    g = GridSpec(T=1.0, n=16, L=4.0, m=32)
    a = sample_noise(g, seed=123, replicate=5)
    b = sample_noise(g, seed=123, replicate=5)
    assert np.array_equal(a, b)
    c = sample_noise(g, seed=123, replicate=6)
    assert not np.array_equal(a, c)


def test_entry_depends_only_on_cell_index():
    # Recompute one cell's value straight from its own Philox block: the
    # matrix entry must match without generating any neighbors.
    g = GridSpec(T=1.0, n=8, L=4.0, m=16)
    field = sample_noise(g, seed=99, replicate=3)
    assert field.shape == (g.n, g.m)
    k, l = 5, 11
    cell = k * g.m + l
    bg = Philox(
        key=np.array([99, 3], dtype=np.uint64),
        counter=np.array([cell, 0, STREAM_FIELD_NOISE, 0], dtype=np.uint64),
    )
    w = bg.random_raw(4)
    u1 = float(((w[0] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53)
    u2 = float((w[1] >> np.uint64(11)) * 2.0**-53)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert field[k, l] == z * math.sqrt(g.dt * g.dx)


def test_sample_mean_within_clt_band():
    g = GridSpec(T=1.0, n=1000, L=5.0, m=1000)
    field = sample_noise(g, seed=7, replicate=0)
    band = 4.0 * math.sqrt(g.dt * g.dx) / 1e3
    assert abs(field.mean()) < band


def test_sample_variance_within_one_percent():
    g = GridSpec(T=1.0, n=400, L=5.0, m=256)
    field = sample_noise(g, seed=8, replicate=0)
    target = g.dt * g.dx
    assert abs(field.var() / target - 1.0) < 0.01


def test_cross_replicate_independence():
    g = GridSpec(T=1.0, n=400, L=5.0, m=256)
    a = sample_noise(g, seed=9, replicate=0).ravel()
    b = sample_noise(g, seed=9, replicate=1).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_total_mass_variance_matches_measure():
    # The sum of all increments is N(0, T * 2L); check its variance by MC.
    g = GridSpec(T=0.5, n=8, L=2.0, m=8)
    totals = np.array([
        sample_noise(g, seed=10, replicate=r).sum() for r in range(2000)
    ])
    target = g.T * 2 * g.L
    assert abs(totals.var() / target - 1.0) < 0.1


def test_refinement_variance_additivity():
    # Summing the four sub-increments of a 2x-refined grid has the coarse
    # cell variance.
    coarse = GridSpec(T=1.0, n=64, L=4.0, m=64)
    fine = GridSpec(T=1.0, n=128, L=4.0, m=128)
    inc = sample_noise(fine, seed=11, replicate=0)
    summed = (
        inc[0::2, 0::2] + inc[0::2, 1::2] + inc[1::2, 0::2] + inc[1::2, 1::2]
    )
    target = coarse.dt * coarse.dx
    assert abs(summed.var() / target - 1.0) < 0.05


def test_stream_key_validation():
    with pytest.raises(ValueError):
        standard_normals(-1, 0, 4, kind=STREAM_FIELD_NOISE)
    with pytest.raises(ValueError):
        standard_normals(2**64, 0, 4, kind=STREAM_FIELD_NOISE)
    with pytest.raises(ValueError):
        standard_normals(0, -2, 4, kind=STREAM_FIELD_NOISE)


def test_standard_normals_moments():
    z = standard_normals(12, 0, 200_000, kind=STREAM_FIELD_NOISE)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs((z**4).mean() / z.var() ** 2 - 3.0) < 0.05


def test_standard_normals_prefix_is_chunk_invariant_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
        st.sampled_from([STREAM_FIELD_NOISE, STREAM_EXACT_PATHS]), st.integers(0, 2**64 - 1),
        st.integers(0, 2000), st.data(),
    )
    def check(seed, replicate, kind, subkey, count, data):
        k = data.draw(st.integers(0, count))
        whole = standard_normals(seed, replicate, count, kind=kind, subkey=subkey)
        assert np.array_equal(whole[:k], standard_normals(seed, replicate, k, kind=kind,
                                                          subkey=subkey))

    check()
