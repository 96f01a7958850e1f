import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from skewheat import GridSpec, NoiseRows, noise, sample_noise
from skewheat.kernel import _erfc
from skewheat.noise import (
    GAUSS_TRANSFORM_ID,
    STREAM_EXACT_PATHS,
    STREAM_FIELD_NOISE,
    position_subkey,
    standard_normals,
)


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
    # Entry (k, l) is draw k*m + l of the replicate's field stream, and a
    # request that stops at that draw returns the same prefix.
    g = GridSpec(T=1.0, n=8, L=4.0, m=16)
    field = sample_noise(g, seed=99, replicate=3)
    assert field.shape == (g.n, g.m)
    stream = standard_normals(99, 3, g.n * g.m, kind=STREAM_FIELD_NOISE)
    assert np.array_equal(field, (stream * math.sqrt(g.dt * g.dx)).reshape(g.n, g.m))
    k, l = 5, 11
    cell = k * g.m + l
    prefix = standard_normals(99, 3, cell + 1, kind=STREAM_FIELD_NOISE)
    assert np.array_equal(prefix, stream[: cell + 1])
    assert field[k, l] == prefix[cell] * math.sqrt(g.dt * g.dx)


def test_stream_is_numpy_ziggurat_on_keyed_philox():
    z = standard_normals(5, 6, 100, kind=STREAM_EXACT_PATHS, subkey=7)
    bg = Philox(key=np.array([5, 6], dtype=np.uint64),
                counter=np.array([0, 0, STREAM_EXACT_PATHS, 7], dtype=np.uint64))
    assert np.array_equal(z, Generator(bg).standard_normal(100))


# The first draws of one field stream and one exact-path stream, pinned bit
# for bit.  They come from numpy's Generator.standard_normal; a numpy release
# that changes it fails here instead of moving every CSV silently.
GOLDEN_FIELD = [0.8643578532904193, -0.5966570816345947, -2.7334048553079415,
                -1.3509760903115522]
GOLDEN_EXACT_PATH = [0.5783506335823094, -0.6630157872548903, -0.28170647241176444,
                     0.6524186286246734]


def test_golden_draws_pin_the_transform():
    assert GAUSS_TRANSFORM_ID == "philox4x64-ziggurat-v2"
    field = standard_normals(20240601, 0, 4, kind=STREAM_FIELD_NOISE)
    path = standard_normals(20240601, 7, 4, kind=STREAM_EXACT_PATHS,
                            subkey=position_subkey(0.5))
    assert field.tolist() == GOLDEN_FIELD, f"numpy {np.__version__}"
    assert path.tolist() == GOLDEN_EXACT_PATH, f"numpy {np.__version__}"


def test_transform_statistics():
    # N(0, 1) checks of the transform, each a 4-sigma band (or a KS level of
    # about 1e-3) at N draws: moments, the CDF, the ziggurat's tail beyond
    # its base-strip cutoff r, and correlations along and across streams.
    N = 1_000_000
    z = standard_normals(2024, 0, N, kind=STREAM_FIELD_NOISE)
    assert abs(z.mean()) < 4.0 / math.sqrt(N)
    assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / N)
    assert abs(np.mean(z**4) - 3.0) < 4.0 * math.sqrt(96.0 / N)

    def phi(x):
        return 0.5 * _erfc(-np.asarray(x) / math.sqrt(2.0))

    cdf = phi(np.sort(z))
    ranks = np.arange(1, N + 1) / N
    ks = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / N)))
    assert ks * math.sqrt(N) < 1.95

    r = 3.6541528853610088
    p_tail = float(_erfc(np.array([r / math.sqrt(2.0)]))[0])
    tail = int(np.count_nonzero(np.abs(z) > r))
    assert abs(tail - N * p_tail) < 4.0 * math.sqrt(N * p_tail)

    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 4.0 / math.sqrt(N)
    other = standard_normals(2024, 1, N, kind=STREAM_FIELD_NOISE)
    assert abs(np.corrcoef(z, other)[0, 1]) < 4.0 / math.sqrt(N)
    path = standard_normals(2024, 0, N, kind=STREAM_EXACT_PATHS)
    assert abs(np.corrcoef(z, path)[0, 1]) < 4.0 / math.sqrt(N)


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


@pytest.mark.parametrize("first", [0, 2**64 - 3])
@pytest.mark.parametrize("block", [1, 7, "n"])
def test_noise_rows_equal_sample_noise_bit_for_bit(monkeypatch, block, first):
    # 20 rows in blocks of 1, of 7 (the last one partial) and of all n, for
    # replicates at both ends of the 64-bit key range.
    grid = GridSpec(T=1.0, n=20, L=2.0, m=6)
    monkeypatch.setattr(noise, "NOISE_ROWS", grid.n if block == "n" else block)
    stream = NoiseRows(grid, 9, first, 3)
    rows = [row.copy() for row in stream]
    whole = np.stack([sample_noise(grid, 9, first + j) for j in range(3)], axis=2)
    assert stream.shape == whole.shape
    assert np.array_equal(np.stack(rows).view(np.uint64), whole.view(np.uint64))
    assert stream.nbytes == 8 * 3 * stream.rows * 6 == 8 * 3 * min(noise.NOISE_ROWS, 20) * 6
    # Iterating again starts again from row 0.
    assert np.array_equal(next(iter(stream)), whole[0])


def test_noise_rows_reuse_one_block_buffer(monkeypatch):
    # Row 4 opens the second 4-row block, drawn over the first one.
    monkeypatch.setattr(noise, "NOISE_ROWS", 4)
    rows = list(NoiseRows(GridSpec(T=1.0, n=10, L=2.0, m=5), 1, 0, 2))
    assert np.shares_memory(rows[0], rows[4]) and np.shares_memory(rows[0], rows[8])
    assert not np.shares_memory(rows[0], rows[1])
