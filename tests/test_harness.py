import functools
import json
import math
import os

import numpy as np
import pytest

from skewheat import harness, solver
from skewheat.config import load_config, parse_config
from skewheat.noise import sample_noise
from skewheat.cli import main
from skewheat.harness import CSV_COLUMNS

MEDIUM_14 = "[medium]\na1 = 1.0\na2 = 4.0\nrho1 = 1.0\nrho2 = 1.0\n"
MEDIUM_HOMOG = "[medium]\na1 = 1.0\na2 = 1.0\nrho1 = 1.0\nrho2 = 1.0\n"
GRID_SMALL = "[grid]\nT = 1.0\nn = 8\nL = 8.0\nm = 32\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(csv_path):
    rows = []
    with open(csv_path) as fh:
        lines = [ln.strip() for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    assert tuple(header) == CSV_COLUMNS
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_kernel_selftest_homogeneous_passes(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_HOMOG + GRID_SMALL + f"[experiment]\nseed = 5\nout = {tmp_path}/out\n",
    )
    assert main(["kernel-selftest", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "kernel-selftest.csv")
    names = {r["statistic"] for r in rows}
    assert "pde_rel_residual_max" in names
    assert "diag_chapman_kolmogorov_lebesgue" in names


def test_kernel_selftest_two_material_passes(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL + f"[experiment]\nseed = 5\nout = {tmp_path}/out\n",
    )
    assert main(["kernel-selftest", "--config", cfg]) == 0


def test_negative_diffusivity_rejected_before_running(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14.replace("a1 = 1.0", "a1 = -1.0") + GRID_SMALL
        + f"[experiment]\nout = {tmp_path}/out\n",
    )
    assert main(["kernel-selftest", "--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "out")


def test_zero_noise_simulate_gives_zero_summary(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 1\nzero_noise = true\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    by_stat = {r["statistic"]: r for r in rows}
    assert float(by_stat["mean_u_T"]["value"]) == 0.0
    assert float(by_stat["variance_u_T"]["value"]) == 0.0
    paths = (tmp_path / "out" / "paths_x000.csv").read_text()
    data = [ln for ln in paths.splitlines() if not ln.startswith("#")][1:]
    assert all(float(v) == 0.0 for ln in data for v in ln.split(",")[1:])


def test_simulate_variance_column_tracks_oracle(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 16\nL = 8.0\nm = 64\n"
        + "[experiment]\nx = 0.5\nreplicates = 96\nseed = 20240601\n"
        + f"check_tolerance = 0.5\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    var_row = next(r for r in rows if r["statistic"] == "variance_u_T")
    assert float(var_row["rel_error"]) < 0.5
    assert float(var_row["target"]) > 0


def test_simulate_is_bit_reproducible(tmp_path):
    base = MEDIUM_14 + GRID_SMALL + "[experiment]\nx = 0.5\nreplicates = 6\nseed = 99\n"
    cfg = _write(tmp_path, "c.ini", base + f"out = {tmp_path}/out_a\n")
    cfg2 = _write(tmp_path, "c2.ini", base + f"out = {tmp_path}/out_b\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg2]) == 0
    a = (tmp_path / "out_a" / "simulate.csv").read_bytes()
    b = (tmp_path / "out_b" / "simulate.csv").read_bytes()
    assert a == b
    pa = (tmp_path / "out_a" / "paths_x000.csv").read_bytes()
    pb = (tmp_path / "out_b" / "paths_x000.csv").read_bytes()
    assert pa == pb


def test_quartic_csv_identical_across_workers(tmp_path):
    base = (
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 10\nseed = 3\n"
        + "replicate_chunk = 3\n"
    )
    cfg = _write(tmp_path, "c.ini", base)
    assert main(["quartic", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert main(["quartic", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    a = (tmp_path / "w1" / "quartic.csv").read_bytes()
    b = (tmp_path / "w2" / "quartic.csv").read_bytes()
    assert a == b


def test_estimate_targets_left_and_right_diffusivity(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nx = 0.5, -0.5, 0.0\nreplicates = 8\nseed = 4\n"
        + f"backend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["estimate", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "estimate.csv")
    med = {float(r["x"]): float(r["target"]) for r in rows if r["statistic"] == "A_hat_median"}
    assert med[0.5] == 4.0
    assert med[-0.5] == 1.0
    assert med[0.0] == 1.0  # left branch at the interface


def test_convergence_rows_and_slope(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nx = 0.5\nreplicates = 12\nseed = 6\nbackend = exact-linear\n"
        + f"n_list = 8, 16\nm_list = 2, 4\nout = {tmp_path}/out\n"
        + "L_note =",
    )
    # unknown key must be rejected
    assert main(["convergence", "--config", cfg]) == 2
    cfg2 = _write(
        tmp_path, "c2.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 2.0\nm = 32\n"
        + "[experiment]\nx = 0.5\nreplicates = 12\nseed = 6\nbackend = exact-linear\n"
        + f"n_list = 8, 16\nm_list = 2, 4\nout = {tmp_path}/out\n",
    )
    assert main(["convergence", "--config", cfg2]) == 0
    rows = _read_rows(tmp_path / "out" / "convergence.csv")
    slope_rows = [r for r in rows if r["statistic"] == "loglog_slope"]
    assert len(slope_rows) == 1
    assert math.isfinite(float(slope_rows[0]["value"]))
    avg_rows = [(int(r["n"]), int(r["m"])) for r in rows if r["statistic"] == "v_avg"]
    assert sorted(avg_rows) == [(8, 2), (8, 4), (16, 2), (16, 4)]


def test_exact_backend_requires_sigma_one(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nbackend = exact-linear\n"
        + f"out = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 2


def test_kind_mismatch_rejected(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL + f"[experiment]\nkind = estimate\nx = 0.5\nout = {tmp_path}/o\n",
    )
    assert main(["quartic", "--config", cfg]) == 2


def test_missing_observation_points_rejected(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL + f"[experiment]\nout = {tmp_path}/o\n",
    )
    assert main(["quartic", "--config", cfg]) == 2


def test_summary_json_embeds_config_and_versions(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "quartic_summary.json").read_text())
    assert payload["format_version"] == 1
    assert payload["version"]
    assert payload["seed"] == 11
    assert payload["config"]["medium"]["a2"] == 4.0
    assert payload["config"]["x_points"] == [0.5]
    assert len(payload["config_sha256"]) == 64
    assert payload["gaussian_transform"] == "philox4x64-boxmuller-v1"
    assert payload["timings"]["total_seconds"] >= 0


def test_summary_json_records_exact_sampler_per_point(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, -0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "quartic_summary.json").read_text())
    records = payload["exact_sampler"]
    assert [(r["x"], r["n"]) for r in records] == [(0.5, 8), (-0.5, 8)]
    for r in records:
        assert r["cholesky_jitter"] == 0.0
        assert r["covariance_node_level"] >= 16


def test_covariance_nonconvergence_exits_one_with_one_line(tmp_path, monkeypatch, capsys):
    strict = functools.partial(solver.covariance_matrix, max_nodes=4)
    monkeypatch.setattr(solver, "covariance_matrix", strict)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: covariance quadrature did not reach")
    assert err.count("\n") == 1


def test_csv_seconds_column_reserved_zero(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "quartic.csv")
    assert all(float(r["seconds"]) == 0.0 for r in rows)


def test_csv_preamble_embeds_provenance(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    text = (tmp_path / "out" / "quartic.csv").read_text()
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    keys = {ln.split("=")[0].strip("# ") for ln in comments}
    assert {"config_sha256", "seed", "version", "generator"} <= keys
    assert "# seed=11" in comments


def test_quartic_target_columns(tmp_path):
    # sigma = one on the exact backend targets the closed-form limit; a
    # nonlinear sigma targets the mean pathwise limit functional instead.
    cfg = _write(
        tmp_path, "one.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 6\nseed = 12\nbackend = exact-linear\nout = {tmp_path}/o1\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "o1" / "quartic.csv")
    vrow = next(r for r in rows if r["statistic"] == "v_quartic")
    assert float(vrow["target"]) == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)

    cfg2 = _write(
        tmp_path, "sin.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 6\nseed = 12\nout = {tmp_path}/o2\n",
    )
    assert main(["quartic", "--config", cfg2]) == 0
    rows2 = _read_rows(tmp_path / "o2" / "quartic.csv")
    vrow2 = next(r for r in rows2 if r["statistic"] == "v_quartic")
    lrow2 = next(r for r in rows2 if r["statistic"] == "limit_functional")
    assert float(vrow2["target"]) == float(lrow2["value"])
    assert lrow2["target"] == "nan"


def _conv_config(sigma, replicates, chunk):
    return parse_config(
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 10\nL = 4.0\nm = 24\n"
        + f"[experiment]\nsigma = {sigma}\nx = 0.5, -0.5, 0.5\nreplicates = {replicates}\n"
        + f"seed = 8\nreplicate_chunk = {chunk}\n"
    )


@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
def test_convolution_paths_equal_full_field_columns(sigma):
    cfg = _conv_config(sigma, 7, 3)
    grid = harness._grid(cfg)
    xs = [grid.snap(x)[1] for x in cfg.x_points]
    log = {}
    paths = harness._convolution_paths(cfg, grid, xs, log)
    # Full-field reference, solved in the same fixed chunks of 3 replicates.
    full = np.concatenate([
        solver.solve_field_batch(cfg.medium, grid, solver.parse_sigma(sigma), np.stack(
            [sample_noise(grid, cfg.seed, r).increments for r in range(first, min(first + 3, 7))],
            axis=2))
        for first in (0, 3, 6)
    ], axis=2)
    cols = [grid.snap(x)[0] for x in xs]
    expected = np.transpose(full[:, cols, :], (2, 1, 0))
    if sigma == "one":  # row-restricted BLAS products: rounding-level deviation
        np.testing.assert_allclose(paths, expected, rtol=1e-13,
                                   atol=1e-14 * np.abs(full).max())
    else:
        assert np.array_equal(paths, expected)
    rows = 2 if sigma == "one" else 24
    assert [(r["first_replicate"], r["replicates"], r["rows_per_step"]) for r in log["convolution"]] \
        == [(0, 3, rows), (3, 3, rows), (6, 1, rows)]


def test_summary_json_records_convolution_chunks(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nx = 0.5, -0.5\nreplicates = 5\nseed = 11\nreplicate_chunk = 4\n"
        + f"memory_budget_mb = 1\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert payload["exact_sampler"] == []
    assert payload["convolution"] == [
        {"n": 8, "m": 32, "first_replicate": first, "replicates": count, "rows_per_step": 2,
         "kernel_stack": "cached", "stack_mib": 8 * 2 * 32 * 8 / 2**20}
        for first, count in ((0, 4), (4, 1))
    ]
    big = _write(tmp_path, "big.ini", MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 8.0\nm = 256\n"
                 + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 2\nseed = 11\n"
                 + f"memory_budget_mb = 1\nout = {tmp_path}/sin\n")
    assert main(["quartic", "--config", big]) == 0
    payload = json.loads((tmp_path / "sin" / "quartic_summary.json").read_text())
    assert [(r["rows_per_step"], r["kernel_stack"]) for r in payload["convolution"]] \
        == [(256, "recomputed")]


def test_simulate_disc_variance_row_uses_scheme_variance(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, -0.5\nreplicates = 3\nseed = 11\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    assert [r["statistic"] for r in rows] == ["mean_u_T", "variance_u_T", "disc_variance_u_T"] * 2
    resolved = load_config(cfg)
    grid = harness._grid(resolved)
    for var_row, disc_row in ((rows[1], rows[2]), (rows[4], rows[5])):
        x = float(disc_row["x"])
        assert float(disc_row["value"]) == solver.scheme_variance(resolved.medium, grid, x)
        assert disc_row["target"] == var_row["target"]
        assert disc_row["std_error"] == "nan"
    cfg_sin = _write(
        tmp_path, "sin.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 3\nseed = 11\nout = {tmp_path}/sin\n",
    )
    assert main(["simulate", "--config", cfg_sin]) == 0
    assert "disc_variance_u_T" not in {r["statistic"] for r in _read_rows(tmp_path / "sin" / "simulate.csv")}
