import errno
import gc
import importlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from functools import partial

import numpy as np
import pytest

from conftest import exact_paths, point_stats
from skewheat import harness, kernel, solver
from skewheat.config import ConfigError, load_config, parse_config
from skewheat.noise import sample_noise
from skewheat.stats import PointAccumulator, averaged_points, averaged_statistics
from skewheat.cli import main
from skewheat.harness import CSV_COLUMNS

MEDIUM_14 = "[medium]\na1 = 1.0\na2 = 4.0\nrho1 = 1.0\nrho2 = 1.0\n"
# The density jumps at the interface, so the exact covariance integrates its interface term.
MEDIUM_14_JUMP = MEDIUM_14.replace("rho2 = 1.0", "rho2 = 2.0")
MEDIUM_HOMOG = "[medium]\na1 = 1.0\na2 = 1.0\nrho1 = 1.0\nrho2 = 1.0\n"
GRID_SMALL = "[grid]\nT = 1.0\nn = 8\nL = 8.0\nm = 32\n"
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


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


def _convolution_paths(cfg, grid, cols, log):
    """The (R, len(cols), n+1) paths that harness._convolution_blocks yields, gathered."""
    paths = np.full((cfg.replicates, len(cols), grid.n + 1), np.nan)
    for j, first, rows in harness._convolution_blocks(cfg, grid, cols, log):
        paths[first : first + len(rows), j] = rows
    return paths


def test_kernel_selftest_homogeneous_passes(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_HOMOG + GRID_SMALL + f"[experiment]\nseed = 5\nout = {tmp_path}/out\n",
    )
    assert main(["kernel-selftest", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "kernel-selftest.csv")
    names = [r["statistic"] for r in rows]
    assert "pde_rel_residual_max" in names
    assert [s for s in names if s.startswith("diag_")] == [
        "diag_chapman_kolmogorov_lebesgue", "diag_flux_transmission_gap",
        "diag_interface_continuity_gap"]


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
    # The sample variance of one path is undefined: NaN at R = 1, not 0.0.
    for replicates in (1, 2):
        out = tmp_path / f"out{replicates}"
        cfg = _write(
            tmp_path, f"c{replicates}.ini",
            MEDIUM_14 + GRID_SMALL
            + f"[experiment]\nx = 0.5\nreplicates = {replicates}\nsigma = affine:0,0\nout = {out}\n",
        )
        assert main(["simulate", "--config", cfg]) == 0
        rows = _read_rows(out / "simulate.csv")
        by_stat = {r["statistic"]: r for r in rows}
        assert float(by_stat["mean_u_T"]["value"]) == 0.0
        variance = float(by_stat["variance_u_T"]["value"])
        assert math.isnan(variance) if replicates == 1 else variance == 0.0
        paths = (out / "paths_x000.csv").read_text()
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


def test_quartic_csv_identical_across_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 3)
    base = (
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 10\nseed = 3\n"
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


def test_convergence_builds_each_exact_sampler_once(tmp_path, monkeypatch):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 2.0\nm = 32\n"
        + "[experiment]\nx = 0.5\nreplicates = 6\nseed = 6\nbackend = exact-linear\n"
        + f"n_list = 8, 16\nm_list = 1, 2, 4, 8\nout = {tmp_path}/out\n",
    )
    built = []

    class Counting(solver.ExactLinearSampler):
        def __init__(self, medium, x, T, n):
            built.append((x, n))
            super().__init__(medium, x, T, n)

    monkeypatch.setattr(harness, "ExactLinearSampler", Counting)
    assert main(["convergence", "--config", cfg]) == 0
    records = json.loads((tmp_path / "out" / "convergence_summary.json").read_text())["exact_sampler"]
    # Per n: x = 0.5 plus the 8 distinct snapped points of m_list = 1, 2, 4, 8.
    assert len(built) == len(set(built)) == 18
    assert [(r["x"], r["n"]) for r in records] == built


CONVERGENCE_SMALL = (
    MEDIUM_14 + "[grid]\nT = 1.0\nn = 16\nL = 2.0\nm = 32\n"
    + "[experiment]\nx = 0.5, -0.5\nreplicates = 70\nseed = 3\nn_list = 16, 32\nm_list = 1, 2\n"
)


def test_convolution_convergence_solves_each_n_once(tmp_path):
    cfg = _write(tmp_path, "c.ini", CONVERGENCE_SMALL + "sigma = sin1:0.5\n")
    for workers in ("1", "2"):
        assert main(["convergence", "--config", cfg, "--workers", workers,
                     "--out", str(tmp_path / f"w{workers}")]) == 0
    csv_bytes = (tmp_path / "w1" / "convergence.csv").read_bytes()
    assert csv_bytes == (tmp_path / "w2" / "convergence.csv").read_bytes()
    records = json.loads((tmp_path / "w1" / "convergence_summary.json").read_text())["convolution"]
    # 70 replicates are two chunks, and each n is one solve for both kinds of point.
    assert [(r["n"], r["first_replicate"]) for r in records] == [(16, 0), (16, 64), (32, 0), (32, 64)]


@pytest.mark.parametrize("replicates", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("backend, sigma", [
    ("convolution", "one"), ("convolution", "affine:0,2"), ("convolution", "affine:0.5,1"),
    ("convolution", "sin1:0.5"), ("exact-linear", "one"), ("exact-linear", "affine:0,2"),
])
def test_streamed_point_stats_equal_whole_array_stats(backend, sigma, replicates):
    # Each block goes into its point's sums as it comes; the statistics are
    # those of the point's whole (R, n+1) array fed as one block, bit for bit.
    cfg = parse_config(MEDIUM_14 + "[grid]\nT = 1.0\nn = 16\nL = 2.0\nm = 32\n"
                       + f"[experiment]\nsigma = {sigma}\nx = 0.5, -0.5, 0.0\n"
                       + f"replicates = {replicates}\nseed = 5\nbackend = {backend}\n")
    grid = cfg.grid
    points, blocks = harness._point_paths(cfg, {}, grid, cfg.x_points)
    streamed = harness._point_stats(cfg, grid, points, blocks)
    if backend == "convolution":
        paths = _convolution_paths(cfg, grid, [grid.snap(x)[0] for x in points], {})
    else:
        paths = cfg.sigma.constant * np.stack(
            [exact_paths(solver.ExactLinearSampler(cfg.medium, x, grid.T, grid.n), cfg.seed, replicates)
             for x in points], axis=1)
    for j, st in enumerate(streamed):
        whole = point_stats(paths[:, j], points[j], grid.T, cfg.sigma, cfg.medium)
        for field in fields(whole):
            got, want = getattr(st, field.name), getattr(whole, field.name)
            assert (got is None and want is None) or np.array_equal(got, want), (j, field.name)


def test_exact_quartic_holds_no_array_of_every_path(tmp_path):
    # R = 2000 paths at n = 256 take R (n+1) 8 bytes = 4.1 MB; streamed in
    # blocks of 64 replicates, the run peaks at the sampler build.
    n, replicates = 256, 2000
    cfg = parse_config(MEDIUM_14 + f"[grid]\nT = 1.0\nn = {n}\nL = 4.0\nm = 32\n"
                       + f"[experiment]\nx = 0.5\nreplicates = {replicates}\nseed = 3\n"
                       + f"backend = exact-linear\nout = {tmp_path}/out\n")
    harness.run_command("quartic", replace(cfg, replicates=2))  # first-call caches are not the run's
    tracemalloc.start()
    try:
        harness.run_command("quartic", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < replicates * (n + 1) * 8 / 2


@pytest.mark.parametrize("backend, sigma", [("convolution", "sin1:0.5"), ("exact-linear", "one"),
                                            ("exact-linear", "affine:0,2")])
def test_convergence_v_avg_matches_paths_requested_alone(tmp_path, backend, sigma):
    cfg = _write(tmp_path, "c.ini", CONVERGENCE_SMALL
                 + f"backend = {backend}\nsigma = {sigma}\nout = {tmp_path}/out\n")
    assert main(["convergence", "--config", cfg]) == 0
    rows = [r for r in _read_rows(tmp_path / "out" / "convergence.csv") if r["statistic"] == "v_avg"]
    resolved = load_config(cfg)
    expected = []
    for n in resolved.n_list:
        grid = replace(resolved.grid, n=n)
        for num_points in resolved.m_list:
            # The whole (R, P, n+1) array of these points' paths, each point's
            # statistics taken from its column.
            cols, xs = zip(*(grid.snap(x) for x in averaged_points(grid, num_points)))
            if backend == "convolution":
                paths = _convolution_paths(resolved, grid, list(cols), {})
            else:
                paths = resolved.sigma.constant * np.stack(
                    [exact_paths(solver.ExactLinearSampler(resolved.medium, x, grid.T, n),
                                 resolved.seed, resolved.replicates) for x in xs], axis=1)
            v_nm, target = averaged_statistics([
                point_stats(paths[:, j], x, grid.T, resolved.sigma, resolved.medium)
                for j, x in enumerate(xs)])
            expected.append([str(n), str(num_points),
                             *("%.17g" % v for v in (*harness._mean_se(v_nm), target))])
    assert [[r["n"], r["m"], r["value"], r["std_error"], r["target"]] for r in rows] == expected


def test_convergence_without_x_exits_two_with_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", MEDIUM_14 + GRID_SMALL
                 + f"[experiment]\nreplicates = 2\nn_list = 8\nm_list = 2\nout = {tmp_path}/out\n")
    assert main(["convergence", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: this command needs at least one observation point in [experiment] x\n")


@pytest.mark.parametrize("command,demo,edit,flags,message", [
    ("convergence", "demo_convergence", ("n_list = 16, 32", "n_list = 16, 16"), [],
     "[experiment] n_list entries must be >= 1 and distinct"),
    ("convergence", "demo_convergence", ("n_list = 16, 32", ""), [],
     "convergence needs a nonempty [experiment] n_list"),
    ("simulate", "demo_simulate_linear", None, ["--backend", "exact-linear"],
     "simulate runs the convolution scheme; set backend = convolution"),
    ("quartic", "demo_quartic", ("T = 1.0", "T = abc"), [], "[grid] T: expected a number, got 'abc'"),
    ("quartic", "demo_quartic", ("T = 1.0", "T = inf"), [], "[grid] T: must be finite, got 'inf'"),
    ("quartic", "demo_quartic", ("n = 512", "n = abc"), [], "[grid] n: expected an integer, got 'abc'"),
    ("quartic", None, None, [], "cannot read config "),
    ("convergence", "demo_convergence", ("m_list = 1, 2, 4", "m_list = 2, 2"), [],
     "[experiment] m_list entries must be >= 1 and distinct"),
    ("quartic", "demo_quartic", ("x = 0.5", "x = 0.5, 0.5"), [],
     "[experiment] x entries must be distinct"),
    ("quartic", "demo_quartic", ("L = 8.0", "L = 0"), [],
     "half-width L must be finite and > 0, got 0.0"),
])
def test_documented_config_errors_exit_two_with_one_line(tmp_path, capsys, command, demo, edit,
                                                         flags, message):
    cfg = str(tmp_path / "missing.ini")
    if demo is not None:
        text = (CONFIGS / f"{demo}.ini").read_text()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        cfg = _write(tmp_path, "c.ini", text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


def test_failed_simulate_checks_exit_one_and_still_write_outputs(tmp_path, capsys):
    text = (CONFIGS / "demo_simulate_linear.ini").read_text()
    cfg = _write(tmp_path, "c.ini", text + "check_tolerance = 1e-9\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"simulate: checks failed (see {out})\n"
    assert len(list(out.glob("*.csv"))) == 3
    assert json.loads((out / "simulate_summary.json").read_text())["ok"] is False


def test_run_command_rejects_an_unknown_command():
    cfg = load_config(str(CONFIGS / "demo_quartic.ini"))
    with pytest.raises(ConfigError, match="unknown command 'nope'"):
        harness.run_command("nope", cfg)


def test_summary_exact_sampler_records_stage_seconds(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, -0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    records = json.loads((tmp_path / "out" / "quartic_summary.json").read_text())["exact_sampler"]
    assert [r["x"] for r in records] == [0.5, -0.5]
    for r in records:
        for key in ("covariance_s", "cholesky_s", "paths_s"):
            assert isinstance(r[key], float) and math.isfinite(r[key]) and r[key] >= 0.0
    csv_text = (tmp_path / "out" / "quartic.csv").read_text()
    assert all(key not in csv_text for key in ("covariance_s", "cholesky_s", "paths_s"))


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
    assert payload["gaussian_transform"] == "philox4x64-ziggurat-v2"
    assert payload["numpy_version"] == np.__version__
    assert payload["timings"]["total_seconds"] >= 0


def test_summary_json_records_exact_sampler_per_point(tmp_path):
    # With equal densities the covariance is closed and its node level 0.
    for medium, name in ((MEDIUM_14, "equal"), (MEDIUM_14_JUMP, "jump")):
        cfg = _write(
            tmp_path, f"{name}.ini",
            medium + GRID_SMALL
            + f"[experiment]\nx = 0.5, -0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\n"
            + f"out = {tmp_path}/{name}\n",
        )
        assert main(["quartic", "--config", cfg]) == 0
        payload = json.loads((tmp_path / name / "quartic_summary.json").read_text())
        records = payload["exact_sampler"]
        assert [(r["x"], r["n"]) for r in records] == [(0.5, 8), (-0.5, 8)]
        for r in records:
            assert set(r) == {"x", "n", "covariance_node_level", "covariance_s", "cholesky_s",
                              "paths_s", "sampled_independently"}
            if name == "equal":
                assert r["covariance_node_level"] == 0
            else:
                assert r["covariance_node_level"] >= 16


@pytest.mark.parametrize("command", ["quartic", "convergence"])
def test_exact_sampler_records_say_each_point_was_sampled_independently(tmp_path, command):
    # The exact backend samples every point from its own streams, so no
    # record may claim the joint law; the CSVs do not carry the flag.
    extra = "n_list = 8, 16\nm_list = 2\n" if command == "convergence" else ""
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nkind = {command}\nx = 0.5, -0.5\nreplicates = 4\nseed = 11\n"
        + f"backend = exact-linear\n{extra}out = {tmp_path}/out\n",
    )
    assert main([command, "--config", cfg]) == 0
    records = json.loads((tmp_path / "out" / f"{command}_summary.json").read_text())["exact_sampler"]
    assert len(records) >= 2
    assert all(r["sampled_independently"] is True for r in records)
    assert "sampled_independently" not in (tmp_path / "out" / f"{command}.csv").read_text()


def test_exact_quartic_near_interface_exits_zero(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL.replace("n = 8", "n = 64")
        + f"[experiment]\nx = 1e-4\nreplicates = 8\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "quartic.csv")
    assert rows and all(math.isfinite(float(r["value"])) for r in rows)


def test_covariance_nonconvergence_exits_one_with_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "COV_CELL_MAX_NODES", 4)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14_JUMP + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: covariance cell rule did not converge with 4 nodes per cell at x = ")
    assert err.count("\n") == 1


def test_exact_backend_at_x0_and_horizon_1e_minus_300_exits_zero(tmp_path, capsys):
    # The covariance is built at the unit horizon and scaled by sqrt(T), so
    # no quadrature lag underflows to 0.  The sixth increment moment does
    # underflow, and its one row is named by the non-finite warning.
    text = (CONFIGS / "demo_quartic.ini").read_text()
    text = text.replace("x = 0.5", "x = 0.0").replace("T = 1.0", "T = 1e-300")
    assert "x = 0.0" in text and "T = 1e-300" in text
    cfg = _write(tmp_path, "c.ini", text)
    assert main(["quartic", "--config", cfg, "--replicates", "64",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "warning: 1 of 9 result rows have a value that is not finite\n"
    rows = {r["statistic"]: r for r in _read_rows(tmp_path / "out" / "quartic.csv")}
    assert float(rows["A_hat_mean"]["value"]) == pytest.approx(1.0, abs=0.05)
    assert rows["incr_ratio6"]["value"] == "nan"


@pytest.mark.parametrize("T", ["1e-310", "5e-324"])
def test_exact_quartic_at_a_subnormal_horizon_exits_zero(tmp_path, T):
    # np.linspace(0, T, 513) is not uniform to 1e-9 of its step once the
    # step is subnormal (at 5e-324 every inner point is 0); the covariance
    # reads only the grid's length and last entry.
    text = (CONFIGS / "demo_quartic.ini").read_text().replace("T = 1.0", f"T = {T}")
    assert f"T = {T}" in text and "n = 512" in text
    lines = _assert_cli_prints_one_line_messages(
        tmp_path, "quartic", text.replace("replicates = 1000", "replicates = 64"), codes=(0,))
    assert len(lines) == 1 and lines[0].endswith("result rows have a value that is not finite")


@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
@pytest.mark.parametrize("T", ["1e-310", "5e-324"])
def test_convolution_quartic_at_a_subnormal_lag_exits_two_with_one_line(tmp_path, T, sigma):
    # The newest lag 0.25*T/n is subnormal at 1e-310 (where sigma = one's
    # kernel would overflow in its square) and 0 at 5e-324: a config error
    # before any chunk is solved.
    text = ((CONFIGS / "demo_quartic.ini").read_text().replace("T = 1.0", f"T = {T}")
            .replace("n = 512", "n = 1").replace("sigma = one", f"sigma = {sigma}")
            .replace("backend = exact-linear", "backend = convolution"))
    assert f"T = {T}\nn = 1\n" in text and "backend = convolution" in text
    lines = _assert_cli_prints_one_line_messages(
        tmp_path, "quartic", text.replace("replicates = 1000", "replicates = 64"), codes=(2,),
        prefix="config error: the convolution scheme's newest lag 0.25*T/n = ")
    assert len(lines) == 1 and f"at T/n = {float(T)!r} (n = 1)" in lines[0]
    assert not (tmp_path / "out" / "quartic.csv").exists()


def test_fft_variance_whose_kernel_squares_overflow_is_finite(tmp_path):
    # a1 = 0.01 at the normal newest lag 0.25*T/n = 2.25e-308: the kernel's
    # peak, 2.66e154, squares past a double's range, but the scheme's exact
    # Var u(T) at x = -0.5 is about 3.979.  The run's one line is the
    # resolution warning.
    text = (CONFIGS / "demo_simulate.ini").read_text()
    for old, new in (("kind = simulate", "kind = quartic"), ("sigma = sin1:0.5", "sigma = one"),
                     ("n = 32\n", "n = 1\n"), ("T = 1.0", "T = 9e-308"), ("a1 = 1.0", "a1 = 0.01")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    lines = _assert_cli_prints_one_line_messages(tmp_path, "quartic", text, codes=(0,))
    assert len(lines) == 1 and lines[0].startswith("warning: dx = ")
    records = json.loads((tmp_path / "out" / "quartic_summary.json").read_text())["convolution"]
    cfg = parse_config(text)
    grid, y = cfg.grid, cfg.grid.cell_centers
    lags = solver._cell_lags(grid.dt, grid.n)[:, None]
    for record in records:
        for x, got in zip(cfg.x_points, record["disc_variance_u_T"]):
            k = kernel.GreenKernel(cfg.medium).evaluate(lags, y[grid.snap(x)[0]], y[None, :])
            want = math.fsum((k.ravel() * math.sqrt(grid.dt * grid.dx)) ** 2)
            assert got == pytest.approx(want, rel=1e-12), x
    assert records[0]["disc_variance_u_T"][0] == pytest.approx(3.979, rel=1e-3)


def test_fft_variance_past_a_doubles_range_is_inf_with_no_numpy_warning(tmp_path):
    # a1 = 3e-308, lag 25, dx = 1e6: the kernel's peak is about 1e152, so the
    # exact Var u(T) is about 1e304 * dt * dx = 1e312, past a double's range.
    text = (MEDIUM_14.replace("a1 = 1.0", "a1 = 3e-308") + "[grid]\nT = 100.0\nn = 1\nL = 1e6\nm = 2\n"
            + "[experiment]\nx = -0.5\nreplicates = 4\nseed = 0\n")
    lines = _assert_cli_prints_one_line_messages(tmp_path, "quartic", text, codes=(0,))
    assert len(lines) == 2 and lines[0].startswith("warning: dx = ")
    [record] = json.loads((tmp_path / "out" / "quartic_summary.json").read_text())["convolution"]
    assert record["kernel_stack"] == "fft" and record["disc_variance_u_T"] == [math.inf]


def test_convergence_with_a_subnormal_lag_at_its_largest_n_exits_two_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # T/n = 2e-306 at n = 1 is normal; at n = 32 the lag is 1.5625e-308.
    solved = []
    monkeypatch.setattr(harness, "solve_field_batch", lambda *args, **kwargs: solved.append(args))
    text = ((CONFIGS / "demo_convergence.ini").read_text().replace("T = 1.0", "T = 2e-306")
            .replace("n_list = 16, 32", "n_list = 1, 32"))
    cfg = _write(tmp_path, "c.ini", text)
    assert main(["convergence", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: the convolution scheme's newest lag 0.25*T/n = 1.5625e-308 at "
        "T/n = 6.25e-308 (n = 32) is not a normal double; it needs T/n >= 8.900295434028806e-308\n")
    assert solved == []
    assert not (tmp_path / "out" / "convergence.csv").exists()


def test_indefinite_covariance_exits_one_naming_the_pivot(tmp_path, monkeypatch, capsys):
    # No diagonal shift is tried: the first non-positive pivot is the failure.
    exact = solver.covariance_matrix

    def negated(*args):
        cov, level = exact(*args)
        return -cov, level

    monkeypatch.setattr(solver, "covariance_matrix", negated)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 4\nseed = 11\nbackend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: covariance is not positive definite: pivot 0 is -")
    assert err.count("\n") == 1


def test_under_resolved_grid_warns_with_one_line(tmp_path, capsys):
    # GRID_SMALL has dx = 0.5 against sqrt(min(a1, a2)*dt/4) = 0.1768 at n = 8.
    coarse = _write(
        tmp_path, "coarse.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 3\nseed = 3\nout = {tmp_path}/coarse\n",
    )
    assert main(["quartic", "--config", coarse]) == 0
    err = capsys.readouterr().err
    assert err == ("warning: dx = 0.5 exceeds sqrt(min(a1, a2)*dt/4) = 0.176777 at n = 8; "
                   "the convolution statistics are biased by the spatial resolution\n")
    # A sweep names its tightest bound, at the largest under-resolved n.
    sweep = _write(
        tmp_path, "sweep.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 3\nn_list = 8, 32\nout = {tmp_path}/sweep\n",
    )
    assert main(["convergence", "--config", sweep]) == 0
    assert capsys.readouterr().err.startswith(
        "warning: dx = 0.5 exceeds sqrt(min(a1, a2)*dt/4) = 0.0883883 at n = 32;")
    fine = _write(
        tmp_path, "fine.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 1.0\nm = 16\n"
        + f"[experiment]\nx = 0.5\nreplicates = 3\nseed = 3\nout = {tmp_path}/fine\n",
    )
    assert main(["quartic", "--config", fine]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
def test_convolution_paths_equal_full_field_columns(sigma, monkeypatch):
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 3)
    cfg = parse_config(
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 10\nL = 4.0\nm = 24\n"
        + f"[experiment]\nsigma = {sigma}\nx = 0.5, -0.5\nreplicates = 7\nseed = 8\n"
    )
    grid = cfg.grid
    cols = [grid.snap(x)[0] for x in (0.5, -0.5, 0.5)]  # a cell asked for twice
    log = {}
    paths = _convolution_paths(cfg, grid, cols, log)
    # Full-field reference, solved in the same fixed chunks of 3 replicates,
    # the last one's 1 replicate padded with 2 of zero noise.
    def chunk(first):
        noise = np.zeros((grid.n, grid.m, 3))
        for k, r in enumerate(range(first, min(first + 3, 7))):
            noise[:, :, k] = sample_noise(grid, cfg.seed, r)
        return solver.solve_field_batch(cfg.medium, grid, cfg.sigma, noise)

    full = np.concatenate([chunk(first) for first in (0, 3, 6)])[:7]
    assert np.array_equal(paths, full[:, cols])
    rows = 2 if sigma == "one" else 24
    assert [(r["first_replicate"], r["replicates"], r["rows_per_step"]) for r in log["convolution"]] \
        == [(0, 3, rows), (3, 3, rows), (6, 1, rows)]


@pytest.mark.parametrize("count", [1, 5, 64])
@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
def test_chunk_worker_paths_equal_contiguous_stack_solve(sigma, count):
    # The worker's noise, drawn one replicate at a time for the FFT product
    # or as REPLICATE_CHUNK-wide time rows for the semigroup recursion, gives
    # the bits of a solve on the contiguous (n, m, REPLICATE_CHUNK) stack,
    # its columns past count zero noise.
    cfg = parse_config(MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 4.0\nm = 16\n"
                       + f"[experiment]\nsigma = {sigma}\nx = 0.5\nseed = 21\n")
    grid, first, cols = cfg.grid, 3, [11, 4, 11]
    sig = solver.parse_sigma(sigma)
    paths, report = harness._solve_chunk(replace(cfg, replicates=first + count), grid, cols, first)
    width = harness.REPLICATE_CHUNK
    stack = np.zeros((grid.n, grid.m, width))
    stack[:, :, :count] = np.stack([sample_noise(grid, cfg.seed, first + k)
                                    for k in range(count)], axis=2)
    expected_report: dict = {}
    full = solver.solve_field_batch(cfg.medium, grid, sig, stack, columns=cols,
                                    report=expected_report)
    resolved = grid.dx <= harness.dx_bound(cfg.medium, grid)
    assert [report.pop(k) for k in ("n", "m", "dx_resolved", "first_replicate", "replicates")] == [
        8, 16, resolved, first, count]
    assert paths.flags.c_contiguous
    assert np.array_equal(paths, full[:count])
    # The stack holds every column's n = 8 rows; the worker, one
    # replicate's (sigma = 1), or all n = 8 rows in its one NOISE_ROWS block.
    assert expected_report.pop("noise_mib") == 8 * 16 * width * 8 / 2**20
    assert report.pop("noise_mib") == 8 * 16 * (1 if sigma == "one" else width) * 8 / 2**20
    assert report == expected_report


@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
def test_one_worker_blocks_are_views_of_the_solvers_paths(sigma, monkeypatch):
    # No chunk's paths are copied on their way to the statistics: at one
    # worker, each (count, n+1) block of cell j is a view of the array that
    # solve_field_batch returned for its chunk.
    solve, solved = harness.solve_field_batch, []

    def recording(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(harness, "solve_field_batch", recording)
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 3)
    cfg = parse_config(MEDIUM_14 + GRID_SMALL
                       + f"[experiment]\nsigma = {sigma}\nx = 0.5\nreplicates = 7\nseed = 3\n")
    assert cfg.workers == 1
    blocks = list(harness._convolution_blocks(cfg, cfg.grid, [16, 4], {}))
    assert len(solved) == 3 and [(j, first) for j, first, _ in blocks] == [
        (0, 0), (1, 0), (0, 3), (1, 3), (0, 6), (1, 6)]
    for j, first, rows in blocks:
        paths = solved[first // 3]
        assert np.shares_memory(rows, paths) and rows.shape == (len(paths), cfg.grid.n + 1)
        assert np.array_equal(rows, paths[:, j])


@pytest.mark.parametrize("sigma, held_rows", [("one", 40), ("sin1:0.5", 16)])
def test_convolution_records_the_noise_each_chunk_held(sigma, held_rows):
    # The FFT product holds all n = 40 rows of one replicate's noise; the
    # semigroup recursion, NOISE_ROWS = 16 rows of the chunk's 64 columns,
    # 3 replicates and 61 of zero noise.
    cfg = parse_config(MEDIUM_14 + "[grid]\nT = 1.0\nn = 40\nL = 4.0\nm = 16\n"
                       + f"[experiment]\nsigma = {sigma}\nx = 0.5\nreplicates = 3\nseed = 2\n")
    log: dict = {}
    _convolution_paths(cfg, cfg.grid, [11], log)
    [record] = log["convolution"]
    held_columns = 1 if sigma == "one" else harness.REPLICATE_CHUNK
    assert record["replicates"] == 3
    assert record["noise_mib"] == held_rows * 16 * held_columns * 8 / 2**20


def test_semigroup_chunk_holds_one_block_of_noise_rows():
    # field-quartic-sin's chunk: n = 128, m = 256, 64 replicates, 3 columns.
    # The whole (64, 128, 256) noise would be 16 MiB; 16-row blocks are 2 MiB.
    cfg = parse_config(MEDIUM_14 + "[grid]\nT = 1.0\nn = 128\nL = 4.0\nm = 256\n"
                       + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nseed = 1\n")
    assert _chunk_worker_peak(cfg, 64) < 6 * 2**20


def test_fft_chunk_holds_one_replicate_of_noise():
    # field-simulate-linear's chunk: n = 192, m = 256, 32 replicates, 3
    # columns.  The whole (32, 192, 256) noise would be 12 MiB; the product
    # holds one replicate's 0.375 MiB, next to its 2.3 MiB of kernel
    # transforms.
    cfg = parse_config(MEDIUM_14 + "[grid]\nT = 1.0\nn = 192\nL = 4.0\nm = 256\n"
                       + "[experiment]\nsigma = one\nx = 0.5\nseed = 1\n")
    assert _chunk_worker_peak(cfg, 32) < 6 * 2**20


def _chunk_worker_peak(cfg, count):
    """tracemalloc peak of one chunk of count replicates at the cells 112, 128 and 143."""
    solve = partial(harness._solve_chunk, replace(cfg, replicates=count), cfg.grid, [112, 128, 143])
    solve(0)  # warm-up: numpy's and the kernel's first-call caches
    tracemalloc.start()
    try:
        solve(0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sigma", ["one", "sin1:0.5"])
def test_convolution_paths_do_not_depend_on_the_replicate_count(sigma):
    # demo_simulate.ini's grid at x = -0.5, 0.5: all 100 replicates' paths
    # are the same at R = 100 and R = 128.  The FFT product solves every
    # replicate alone; the semigroup recursion solves replicates 64..99 in
    # a 64-column chunk at both counts, at R = 100 with 28 of zero noise.
    text = (MEDIUM_14 + "[grid]\nT = 1.0\nn = 32\nL = 2.0\nm = 64\n"
            + f"[experiment]\nsigma = {sigma}\nx = -0.5, 0.5\nseed = 20250601\n")
    paths = {}
    for r in (100, 128):
        cfg = parse_config(text + f"replicates = {r}\n")
        grid = cfg.grid
        paths[r] = _convolution_paths(cfg, grid, [grid.snap(x)[0] for x in cfg.x_points], {})
    assert np.array_equal(paths[100].view(np.uint64), paths[128][:100].view(np.uint64))


def test_csv_rows_are_one_template_per_file(tmp_path):
    # Results rows format each field by its type; floats, there and in the
    # path files, at 17 significant digits.
    assert harness.ROW_TEMPLATE == "%s,%s,%d,%d,%.17g,%d,%s,%.17g,%.17g,%.17g,%.17g,%.17g"
    row = harness.ResultRow("quartic", "convolution", np.int64(8), 16, -0.0, 3, "v_quartic",
                            1.0 / 3.0, math.nan, 5e-324, -math.inf)
    harness._write_csv(str(tmp_path / "r.csv"), {"seed": 1}, harness.CSV_COLUMNS,
                       harness.ROW_TEMPLATE, [astuple(row)])
    assert (tmp_path / "r.csv").read_text().splitlines()[2] == (
        "quartic,convolution,8,16,-0,3,v_quartic,0.33333333333333331,nan,"
        "4.9406564584124654e-324,-inf,0")
    block = np.array([[0.0, -0.0, 5e-324, 1e300],
                      [-1.2345678901234567e-5, -5e-324, -1e300, 1.0 / 3.0]])
    expected = (
        "# seed=1\nc0,c1,c2,c3\n0,-0,4.9406564584124654e-324,1.0000000000000001e+300\n"
        "-1.2345678901234568e-05,-4.9406564584124654e-324,-1.0000000000000001e+300,"
        "0.33333333333333331\n")
    harness._write_csv(str(tmp_path / "a.csv"), {"seed": 1}, ["c0", "c1", "c2", "c3"],
                       "%.17g,%.17g,%.17g,%.17g", map(tuple, block.tolist()))
    assert (tmp_path / "a.csv").read_text() == expected
    # Rows and header given as generators, each taken once as the file is written.
    harness._write_csv(str(tmp_path / "g.csv"), {"seed": 1}, (f"c{k}" for k in range(4)),
                       "%.17g,%.17g,%.17g,%.17g", (tuple(row) for row in block.tolist()))
    assert (tmp_path / "g.csv").read_text() == expected
    # A path file's time rows, formed one at a time from its (R, n+1) block.
    harness._write_csv(str(tmp_path / "t.csv"), {"seed": 1}, ["c0", "c1", "c2"], "%.17g,%.17g,%.17g",
                       harness._time_rows(block[0], block[1:].repeat(2, axis=0)))
    assert (tmp_path / "t.csv").read_text().splitlines()[2:] == [
        "%.17g,%.17g,%.17g" % (t, v, v) for t, v in zip(block[0].tolist(), block[1].tolist())]


def test_simulate_holds_its_paths_and_one_csv_line(tmp_path):
    # demo_simulate_linear.ini's grid (n = 32, two points) at R = 5000: the
    # (R, 2, n+1) paths take 2.6 MB.  Each path file is written a time row
    # at a time, so the run peaks below twice the paths; every path file
    # formed as float lists and joined text at once would take about three
    # times them.
    replicates = 5000
    cfg = replace(load_config(str(CONFIGS / "demo_simulate_linear.ini")), replicates=replicates,
                  out_dir=str(tmp_path / "out"))
    harness.run_command("simulate", replace(cfg, replicates=2))  # first-call caches are not the run's
    tracemalloc.start()
    try:
        summary = harness.run_command("simulate", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["ok"] and len(summary["files"]) == 3
    assert peak < 2 * replicates * len(cfg.x_points) * (cfg.grid.n + 1) * 8


def test_summary_json_records_convolution_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 4)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nx = 0.5, -0.5\nreplicates = 5\nseed = 11\n"
        + f"out = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert payload["exact_sampler"] == []
    # Constant sigma: the 2 rows' kernel transforms at every source cell,
    # (n+1) x 2 x m complex, next to one replicate's (n+1) x m transform of
    # its n x m noise; every chunk gives the scheme's exact variance at both
    # cells, the simulate rows' disc_variance_u_T.
    disc = [float(r["value"]) for r in _read_rows(tmp_path / "out" / "simulate.csv")
            if r["statistic"] == "disc_variance_u_T"]
    assert payload["convolution"] == [
        {"n": 8, "m": 32, "dx_resolved": False, "first_replicate": first, "replicates": count,
         "noise_mib": 8 * 32 * 8 / 2**20, "rows_per_step": 2, "kernel_stack": "fft",
         "stack_mib": 9 * 32 * (2 + 1) * 16 / 2**20, "disc_variance_u_T": disc}
        for first, count in ((0, 4), (4, 1))
    ]
    big = _write(tmp_path, "big.ini", MEDIUM_14 + "[grid]\nT = 1.0\nn = 8\nL = 8.0\nm = 256\n"
                 + "[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 2\nseed = 11\n"
                 + f"out = {tmp_path}/sin\n")
    assert main(["quartic", "--config", big]) == 0
    payload = json.loads((tmp_path / "sin" / "quartic_summary.json").read_text())
    # The semigroup recursion holds two banded operators, [K_{dt/4}; K_{3dt/2}]
    # ((m + 2m) x m) and P (2m x 2m), as 64-row blocks over their column
    # spans; at m = 256 the band leaves most of the dense entries out.
    [record] = payload["convolution"]
    assert (record["rows_per_step"], record["kernel_stack"], record["dx_resolved"]) \
        == (256, "semigroup", True)
    # n = 8 time rows fit in one NOISE_ROWS block: the chunk holds them all,
    # for its 2 replicates and 2 columns of zero noise (REPLICATE_CHUNK = 4).
    assert record["replicates"] == 2
    assert record["noise_mib"] == 8 * 256 * 4 * 8 / 2**20
    resolved = load_config(big)
    ops = solver._semigroup_operators(kernel.GreenKernel(resolved.medium), resolved.grid)
    stored = sum(a.size for op in ops for _, _, _, a in op)
    assert record["stack_mib"] == stored * 8 / 2**20
    assert record["band_fraction"] == stored / (256 * 256 + 512 * 256 + 512 * 512) < 0.5


def test_simulate_disc_variance_rows_come_from_the_first_convolution_record(tmp_path):
    # R = 96 is two chunks, solved in two forked workers.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, -0.5\nreplicates = 96\nseed = 11\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg, "--workers", "2"]) == 0
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    assert [r["statistic"] for r in rows] == ["mean_u_T", "variance_u_T", "disc_variance_u_T"] * 2
    records = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())["convolution"]
    assert [r["replicates"] for r in records] == [64, 32]
    assert records[0]["disc_variance_u_T"] == records[1]["disc_variance_u_T"]
    assert [float(r["value"]) for r in (rows[2], rows[5])] == records[0]["disc_variance_u_T"]
    for var_row, disc_row in ((rows[1], rows[2]), (rows[4], rows[5])):
        assert disc_row["target"] == var_row["target"]
        assert disc_row["std_error"] == "nan"
    cfg_sin = _write(
        tmp_path, "sin.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 3\nseed = 11\nout = {tmp_path}/sin\n",
    )
    assert main(["simulate", "--config", cfg_sin]) == 0
    assert "disc_variance_u_T" not in {r["statistic"] for r in _read_rows(tmp_path / "sin" / "simulate.csv")}
    # The semigroup recursion has no exact variance to record.
    [record] = json.loads((tmp_path / "sin" / "simulate_summary.json").read_text())["convolution"]
    assert record["kernel_stack"] == "semigroup" and "disc_variance_u_T" not in record


def test_sigma_one_simulate_evaluates_the_observed_cells_kernel_rows_once_per_chunk(
        tmp_path, monkeypatch):
    counted = [0]
    evaluate = kernel.GreenKernel.evaluate

    def counting(self, t, x, y):
        counted[0] += np.broadcast(t, x, y).size
        return evaluate(self, t, x, y)

    monkeypatch.setattr(kernel.GreenKernel, "evaluate", counting)
    config = str(CONFIGS / "demo_simulate_linear.ini")
    assert main(["simulate", "--config", config, "--workers", "1", "--out", str(tmp_path)]) == 0
    cfg = load_config(config)
    # Two chunks of 64 and 32 replicates, each evaluating the n x m kernel
    # rows of the 2 observed cells once; the exact variance reuses them.
    assert (cfg.replicates, len(cfg.x_points), cfg.sigma.constant) == (96, 2, 1.0)
    assert counted[0] == 2 * cfg.grid.n * 2 * cfg.grid.m


def test_simulate_variance_band_comes_from_the_scheme_for_constant_sigma(tmp_path):
    def rows_for(sigma, seed):
        name = f"{sigma.replace(':', '_')}_{seed}"
        cfg = _write(tmp_path, f"{name}.ini", MEDIUM_14 + GRID_SMALL
                     + f"[experiment]\nsigma = {sigma}\nx = 0.5, -0.5\nreplicates = 8\n"
                     + f"seed = {seed}\nout = {tmp_path}/{name}\n")
        assert main(["simulate", "--config", cfg]) == 0
        rows = _read_rows(tmp_path / name / "simulate.csv")
        return [r for r in rows if r["statistic"] == "variance_u_T"], rows

    bands = []
    for seed in (11, 12):
        var_rows, rows = rows_for("one", seed)
        disc = [float(r["value"]) for r in rows if r["statistic"] == "disc_variance_u_T"]
        assert [float(r["std_error"]) for r in var_rows] == [d * math.sqrt(2.0 / 7) for d in disc]
        bands.append([r["std_error"] for r in var_rows])
    assert bands[0] == bands[1]
    # A nonlinear sigma has no exact variance and keeps the sample's own band.
    var_rows, _ = rows_for("sin1:0.5", 11)
    assert [float(r["std_error"]) for r in var_rows] == [
        float(r["value"]) * math.sqrt(2.0 / 7) for r in var_rows]


def test_simulate_targets_scale_with_constant_sigma(tmp_path):
    def rows_for(sigma, name):
        cfg = _write(
            tmp_path, f"{name}.ini",
            MEDIUM_14 + GRID_SMALL
            + f"[experiment]\nsigma = {sigma}\nx = 0.5, -0.5\nreplicates = 3\nseed = 11\n"
            + f"out = {tmp_path}/{name}\n",
        )
        assert main(["simulate", "--config", cfg]) == 0
        return _read_rows(tmp_path / name / "simulate.csv"), load_config(cfg)

    rows, resolved = rows_for("affine:0,0.7", "aff")
    assert [r["statistic"] for r in rows] == ["mean_u_T", "variance_u_T", "disc_variance_u_T"] * 2
    medium = resolved.medium
    for var_row, disc_row in ((rows[1], rows[2]), (rows[4], rows[5])):
        x = float(var_row["x"])
        target = 0.7 * 0.7 * solver.covariance_linear(1.0, 1.0, x, medium)
        assert float(var_row["target"]) == float(disc_row["target"]) == target
    one_rows, _ = rows_for("one", "one")
    assert [float(rows[k]["value"]) for k in (2, 5)] == [
        0.7 * 0.7 * float(one_rows[k]["value"]) for k in (2, 5)]
    rows, _ = rows_for("sin1:0.5", "sin")
    assert [r["target"] for r in rows if r["statistic"] == "variance_u_T"] == ["nan", "nan"]


def test_constant_sigma_quartic_scales_sigma_one_paths(tmp_path):
    def data_lines(sigma, backend, name):
        cfg = _write(
            tmp_path, f"{name}.ini",
            MEDIUM_14 + GRID_SMALL
            + f"[experiment]\nsigma = {sigma}\nbackend = {backend}\nx = 0.5, -0.5\n"
            + f"replicates = 4\nseed = 12\nout = {tmp_path}/{name}\n",
        )
        assert main(["quartic", "--config", cfg]) == 0
        text = (tmp_path / name / "quartic.csv").read_text()
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    assert data_lines("affine:0,1", "convolution", "c1") == data_lines("one", "convolution", "c0")
    one = _read_rows(tmp_path / "c0" / "quartic.csv")
    assert all(r["target"] != "nan" for r in one if r["statistic"] == "limit_functional")

    data_lines("one", "exact-linear", "e1")
    data_lines("affine:0,2", "exact-linear", "e2")
    data_lines("affine:0,0.7", "exact-linear", "e3")
    rows = {name: _read_rows(tmp_path / name / "quartic.csv") for name in ("e1", "e2", "e3")}

    def column(name, statistic, key="value"):
        return [float(r[key]) for r in rows[name] if r["statistic"] == statistic]

    assert len(column("e1", "v_quartic")) == 2
    assert column("e2", "v_quartic") == [16.0 * val for val in column("e1", "v_quartic")]
    # The increment-moment targets scale by c^2 and c^4 as well.
    for statistic, factor in (("incr_m2", 0.49), ("incr_m4", 0.2401)):
        assert column("e3", statistic, "target") == pytest.approx(
            [factor * t for t in column("e1", statistic, "target")], rel=1e-14)


@pytest.mark.parametrize("command", ["quartic", "estimate", "convergence"])
def test_zero_noise_statistics_exit_zero(tmp_path, capsys, command):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + "[experiment]\nx = 0.5, -0.5\nreplicates = 3\nsigma = affine:0,0\n"
        + f"n_list = 8, 16\nm_list = 2, 4\nout = {tmp_path}/out\n",
    )
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_rows(tmp_path / "out" / f"{command}.csv")
    degenerate = [r for r in rows if r["statistic"] == "degenerate_count"]
    assert degenerate and all(float(r["value"]) == 3.0 for r in degenerate)
    assert not any(r["statistic"].startswith("A_hat") for r in rows)
    if command == "quartic":
        ratios = [r["value"] for r in rows if r["statistic"] in ("incr_ratio4", "incr_ratio6")]
        assert ratios == ["nan"] * 4
    if command == "convergence":
        averaged = [r for r in rows if r["statistic"] == "v_avg"]
        assert len(averaged) == 4 and all(float(r["value"]) == 0.0 for r in averaged)


def test_averaged_grid_coverage_exits_two_with_one_line(tmp_path, capsys):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 0.4\nm = 8\n"
        + f"[experiment]\nx = 0.0\nreplicates = 2\nn_list = 4\nm_list = 8\nout = {tmp_path}/out\n",
    )
    assert main(["convergence", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cover" in err
    assert err.count("\n") == 1


def test_out_path_that_is_a_file_exits_two_before_running(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(harness._RUNNERS, "quartic", lambda cfg: ran.append(cfg))
    (tmp_path / "taken").write_text("not a directory\n")
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL + "[experiment]\nx = 0.5\nreplicates = 2\n",
    )
    assert main(["quartic", "--config", cfg, "--out", str(tmp_path / "taken")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create out directory ")
    assert err.count("\n") == 1
    assert ran == []


@pytest.mark.parametrize("command, blocked, written", [
    ("quartic", "quartic.csv", []),
    ("simulate", "paths_x000.csv", ["simulate.csv"]),
    ("quartic", "quartic_summary.json", ["quartic.csv"]),
], ids=["results-csv", "path-csv", "summary-json"])
def test_blocked_output_file_exits_two_with_one_line(tmp_path, command, blocked, written):
    # Found only when the run writes: the outputs written before it stay.
    (tmp_path / "out" / blocked).mkdir(parents=True)
    lines = _assert_cli_prints_one_line_messages(
        tmp_path, command, MEDIUM_14 + GRID_SMALL + "[experiment]\nx = 0.5\nreplicates = 2\n",
        codes=(2,), prefix="config error: cannot write ")
    assert lines == [f"config error: cannot write {str(tmp_path / 'out' / blocked)!r}: Is a directory"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written + [blocked])


def test_perfbench_layer_hooks_resolve(monkeypatch):
    # The traced benchmark run wraps these attributes by name; a missing one
    # silently reads 0 for its per-layer metric.  Only the two hooks on the
    # whole-array path and statistics functions, which the library no longer
    # has, are missing: no command called them, so their metrics read 0
    # before they went too.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    traced = importlib.import_module("traced")
    missing = []
    for owner, attr, name, elements in traced.layer_hooks(harness, solver, kernel):
        hooked = getattr(owner, attr, None)
        if hooked is None:
            missing.append(name)
        elif elements is not None:
            # Each element count reads the hooked call's bound arguments by name.
            parameters = inspect.signature(hooked).parameters
            for arg in (c for c in elements.__code__.co_consts if isinstance(c, str)):
                assert arg in parameters, f"{name}: {attr} has no parameter {arg!r}"
    assert missing == ["solver.paths", "stats.point"]


def test_point_accumulators_are_fed_through_harness(tmp_path, monkeypatch):
    # One chunk of 2 replicates gives one (2, n+1) block per point.
    calls = []

    original = PointAccumulator.add

    def counting(self, first, rows):
        calls.append((first, np.shape(rows)))
        return original(self, first, rows)

    monkeypatch.setattr(PointAccumulator, "add", counting)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, -0.5\nreplicates = 2\nseed = 3\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    assert calls == [(0, (2, 9)), (0, (2, 9))]


def test_removed_zero_noise_key_exits_two_with_one_line(tmp_path, capsys):
    # sigma = affine:0,0 is the zero-noise run now, and the convolution chunk
    # width is the fixed harness.REPLICATE_CHUNK.
    for line in ("zero_noise = true", "replicate_chunk = 64"):
        cfg = _write(
            tmp_path, "c.ini",
            MEDIUM_14 + GRID_SMALL
            + f"[experiment]\nx = 0.5\nreplicates = 3\n{line}\nout = {tmp_path}/out\n",
        )
        assert main(["quartic", "--config", cfg]) == 2
        err = capsys.readouterr().err
        key = line.split(" ")[0]
        assert err.startswith(f"config error: unknown key {key!r} in section [experiment]")
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "out")


# Wraps the convolution chunk worker so that each chunk reports whether its
# process had loaded scipy, and which process ran it.
_SCIPY_PROBE = """\
import os, sys
from skewheat import harness

_solve = harness._solve_chunk


def chunk_reporting_scipy(*args):
    paths, record = _solve(*args)
    return paths, {**record, "scipy": "scipy" in sys.modules, "pid": os.getpid()}


harness._solve_chunk = chunk_reporting_scipy
"""


def test_cli_import_leaves_scipy_special_and_integrate_unloaded(tmp_path):
    exact = (MEDIUM_14 + GRID_SMALL
             + "[experiment]\nx = 0.5\nreplicates = 4\nseed = 3\nbackend = exact-linear\n")
    runs = [
        ("quartic", exact),
        ("quartic", MEDIUM_14 + GRID_SMALL + "[experiment]\nx = 0.5\nreplicates = 130\n"
         "seed = 3\nsigma = sin1:0.5\nworkers = 2\n"),
        ("estimate", exact),
        ("convergence", exact + "n_list = 4, 8\nm_list = 2\n"),
    ]
    argvs = [[command, "--config", _write(tmp_path, f"c{i}.ini", text),
              "--out", str(tmp_path / f"out{i}")] for i, (command, text) in enumerate(runs)]
    (tmp_path / "scipy_probe.py").write_text(_SCIPY_PROBE)
    probe = ("import json, os, sys, skewheat.cli; "
             "print(sorted(m for m in ('scipy.special', 'scipy.integrate') if m in sys.modules)); "
             "import scipy_probe; "
             f"print(json.dumps([[skewheat.cli.main(a), 'scipy' in sys.modules, "
             "sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing'))] "
             f"for a in {argvs!r}])); "
             "print(os.getpid())")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    imported, after_runs, pid = out.stdout.strip().splitlines()
    assert imported == "[]"
    # The 2-worker quartic forks its workers without concurrent.futures or multiprocessing.
    assert json.loads(after_runs) == [[0, False, []]] * len(runs)
    chunks = json.loads((tmp_path / "out1" / "quartic_summary.json").read_text())["convolution"]
    assert len(chunks) == 3 and not any(c["scipy"] for c in chunks)
    # The chunks ran in two forked workers, the first and third in the same one.
    pids = [c["pid"] for c in chunks]
    assert int(pid) not in pids and pids[0] == pids[2] != pids[1]


def test_simulate_next_to_the_interface_exits_zero_with_finite_rows(tmp_path, capsys):
    # x = -0.0002 snaps to -1.9998e-4, where the target's quadrature once
    # evaluated the kernel at a zero lag.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 1.0\nm = 10001\n"
        + f"[experiment]\nx = -0.0002\nreplicates = 2\nseed = 3\nout = {tmp_path}/out\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    rows = _read_rows(tmp_path / "out" / "simulate.csv")
    assert float(rows[0]["x"]) == pytest.approx(-1.9998e-4)
    assert all(math.isfinite(float(r[k])) for r in rows for k in ("value", "target"))


def test_semigroup_operators_over_the_memory_limit_exit_one_with_one_line(tmp_path, capsys,
                                                                          monkeypatch):
    # The same grid with a nonlinear sigma: at dt = 0.25 every row's band
    # spans the whole grid, so K_1, K_2 and P need 7*m**2 doubles (5.2 GiB).
    def unexpected(*args, **kwargs):
        raise AssertionError("an operator entry was evaluated")

    monkeypatch.setattr(kernel.GreenKernel, "evaluate", unexpected)
    monkeypatch.setattr(kernel.GreenKernel, "cell_mass", unexpected)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 1.0\nm = 10001\n"
        + f"[experiment]\nsigma = sin1:0.5\nx = -0.0002\nreplicates = 2\nseed = 3\n"
        + f"out = {tmp_path}/out\n",
    )
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", cfg]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert capsys.readouterr().err == (
        "solver failure: the semigroup operators need 5600720024 bytes (5.2 GiB) on the grid "
        f"n = 4, m = 10001, L = 1.0, over the limit of {solver.BAND_MAX_BYTES} bytes\n")


def test_sigma_one_simulate_leaves_scipy_integrate_unloaded(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5, 0.0\nreplicates = 2\nseed = 3\nout = {tmp_path}/out\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    probe = ("import sys, skewheat.solver, skewheat.harness; "
             "loaded = ['scipy.integrate' in sys.modules]; "
             "from skewheat.cli import main; "
             f"loaded.append(main(['simulate', '--config', {cfg!r}])); "
             "loaded.append('scipy.integrate' in sys.modules); "
             "loaded.append('scipy' in sys.modules); print(loaded)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[False, 0, False, False]"


def test_cli_import_and_one_worker_run_leave_process_pool_unloaded(tmp_path):
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nx = 0.5\nreplicates = 2\nseed = 3\nsigma = sin1:0.5\n"
        f"out = {tmp_path}/out\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    # Only kernel-selftest runs the check suites, so only it imports skewheat.checks.
    probe = ("import sys, skewheat.cli; "
             "unloaded = lambda: [m not in sys.modules for m in "
             "('concurrent.futures.process', 'skewheat.checks')]; "
             "loaded = [unloaded()]; "
             f"loaded.append(skewheat.cli.main(['quartic', '--config', {cfg!r}])); "
             "loaded.append(unloaded()); print(loaded)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[[True, True], 0, [True, True]]"


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # 2-replicate chunks: 4 replicates at 8 workers start 2 children, and 10
    # at 2 or 3 workers deal 5 chunks round-robin to 2 or 3 children.  Each
    # chunk records the pid that solved it; the records come in replicate
    # order with the 1-worker paths.
    solve = harness._solve_chunk

    def reporting(*args):
        paths, record = solve(*args)
        return paths, {**record, "pid": os.getpid()}

    monkeypatch.setattr(harness, "_solve_chunk", reporting)
    monkeypatch.setattr(harness, "REPLICATE_CHUNK", 2)
    for replicates, workers, children in ((4, 8, 2), (10, 2, 2), (10, 3, 3)):
        cfg = parse_config(MEDIUM_14 + GRID_SMALL + f"[experiment]\nx = 0.5\nreplicates = {replicates}\n"
                           f"seed = 3\nworkers = {workers}\n")
        log, serial_log = {}, {}
        paths = _convolution_paths(cfg, cfg.grid, [16], log)
        serial = _convolution_paths(replace(cfg, workers=1), cfg.grid, [16], serial_log)
        assert np.array_equal(paths, serial) and not np.isnan(paths).any()
        records = log["convolution"]
        assert [r["first_replicate"] for r in records] == list(range(0, replicates, 2))
        pids = [r["pid"] for r in records]
        assert len(set(pids)) == children and os.getpid() not in pids
        assert pids == [pids[k % children] for k in range(len(pids))]
        assert {r["pid"] for r in serial_log["convolution"]} == {os.getpid()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_a_failed_or_abandoned_run(tmp_path, capsys):
    # sigma = affine:1e200,1 overflows in the first chunk's worker; the
    # parent raises its error, kills the other worker and reaps both.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = affine:1e200,1\nx = 0.5\nreplicates = 256\nseed = 3\n"
        + f"out = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg, "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: non-finite field value") and err.count("\n") == 1
    _no_child_left()
    # A consumer that stops after the first block.
    sane = replace(load_config(cfg), sigma=solver.parse_sigma("sin1:0.5"), workers=2)
    blocks = harness._convolution_blocks(sane, sane.grid, [16], {})
    j, first, rows = next(blocks)
    assert (j, first, rows.shape) == (0, 0, (64, 9))
    blocks.close()
    _no_child_left()


def test_fork_failure_exits_one_with_one_line_and_reaps_the_started_worker(tmp_path, capsys,
                                                                         monkeypatch):
    forks = []
    fork = os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 128\nseed = 3\n"
        + f"out = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg, "--workers", "2"]) == 1
    assert capsys.readouterr().err == (
        "solver failure: cannot start worker process 2 of 2: Resource temporarily unavailable\n")
    assert len(forks) == 2
    _no_child_left()


def test_pipe_failure_exits_one_with_one_line_and_reaps_the_started_worker(tmp_path, capsys,
                                                                         monkeypatch):
    # Out of file descriptors (EMFILE) at the second worker's pipe: the first
    # worker is already forked, the second is never forked.
    pipes = []
    pipe = os.pipe

    def second_pipe_fails():
        pipes.append(None)
        if len(pipes) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()

    monkeypatch.setattr(os, "pipe", second_pipe_fails)
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 128\nseed = 3\n"
        + f"out = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg, "--workers", "2"]) == 1
    assert capsys.readouterr().err == (
        "solver failure: cannot start worker process 2 of 2: Too many open files\n")
    assert len(pipes) == 2
    _no_child_left()


def test_workers_without_fork_exit_two_before_any_chunk(tmp_path, capsys, monkeypatch):
    solved = []
    solve = harness._solve_chunk
    monkeypatch.setattr(harness, "_solve_chunk",
                        lambda *args: solved.append(args[-1]) or solve(*args))
    monkeypatch.delattr(os, "fork")
    text = (MEDIUM_14 + GRID_SMALL
            + f"[experiment]\nx = 0.5\nseed = 3\nworkers = 2\nout = {tmp_path}/out\n")
    # Two chunks would start two workers: a config error, before any solve.
    cfg = _write(tmp_path, "c.ini", text + "replicates = 128\n")
    assert main(["quartic", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: workers = 2 needs os.fork, which this platform lacks; set workers = 1\n")
    assert solved == []
    # One chunk runs in this process at any worker count.
    cfg = _write(tmp_path, "one.ini", text + "replicates = 64\n")
    assert main(["quartic", "--config", cfg]) == 0
    assert solved == [0]


# Makes the worker of the second chunk (replicates 64..127) kill itself.
_KILL_PROBE = """\
import os, signal
from skewheat import harness

_solve = harness._solve_chunk


def chunk_killing_the_second(cfg, grid, cols, first):
    if first == 64:
        os.kill(os.getpid(), signal.SIGKILL)
    return _solve(cfg, grid, cols, first)


harness._solve_chunk = chunk_killing_the_second
"""


# Makes the worker of the second chunk (replicates 64..127) write the first
# half of its result's pickle, then exit with status 3.
_CUT_PROBE = """\
import os, pickle

_dump = pickle.dump


def dump_cut_short(message, out, protocol):
    ok, value = message
    if ok and value[1]["first_replicate"] == 64:
        data = pickle.dumps(message, protocol=protocol)
        out.write(data[: len(data) // 2])
        out.flush()
        os._exit(3)
    _dump(message, out, protocol=protocol)


pickle.dump = dump_cut_short
"""


def _run_worker_probe(tmp_path, probe_source):
    """A 3-chunk, 2-worker sin1:0.5 quartic in a fresh interpreter that first imports probe_source.

    Prints "reaped" when the run leaves no child behind; exits with the run's code.
    """
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + GRID_SMALL
        + f"[experiment]\nsigma = sin1:0.5\nx = 0.5\nreplicates = 192\nseed = 3\nworkers = 2\n"
        + f"out = {tmp_path}/out\n",
    )
    (tmp_path / "worker_probe.py").write_text(probe_source)
    probe = ("import os, sys, worker_probe, skewheat.cli; "
             f"code = skewheat.cli.main(['quartic', '--config', {cfg!r}])\n"
             "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n    print('reaped')\n"
             "sys.exit(code)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120)


def test_killed_worker_exits_one_with_one_line(tmp_path):
    out = _run_worker_probe(tmp_path, _KILL_PROBE)
    assert out.returncode == 1
    assert out.stderr == ("solver failure: the worker solving replicates 64..127 ended without "
                          "a result (killed by signal 9)\n")
    assert out.stdout == "reaped\n"


def test_worker_cut_off_in_its_result_exits_one_with_one_line(tmp_path):
    # The parent reads a pickle that ends early, then EOF.
    out = _run_worker_probe(tmp_path, _CUT_PROBE)
    assert out.returncode == 1
    assert out.stderr == ("solver failure: the worker solving replicates 64..127 ended without "
                          "a result (exit status 3)\n")
    assert out.stdout == "reaped\n"


def test_convolution_point_outside_domain_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(harness, "solve_field_batch", lambda *args, **kwargs: solved.append(args))
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 2.0\nm = 16\n"
        + f"[experiment]\nx = 0.5, 100.0\nreplicates = 2\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: observation point x = 100.0 lies outside [-L, L] = "
                   "[-2.0, 2.0] on the convolution backend\n")
    assert solved == []
    monkeypatch.undo()
    edges = _write(
        tmp_path, "edges.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 2.0\nm = 16\n"
        + f"[experiment]\nx = -2.0, 2.0\nreplicates = 2\nout = {tmp_path}/edges\n",
    )
    assert main(["quartic", "--config", edges]) == 0
    rows = _read_rows(tmp_path / "edges" / "quartic.csv")
    assert sorted({float(r["x"]) for r in rows}) == [-1.875, 1.875]


def test_two_observation_points_in_one_cell_exit_two_with_one_line(tmp_path, capsys):
    # On m = 64, L = 2 both 0.52 and 0.53 snap to cell 40, centered at 0.53125.
    demo = (CONFIGS / "demo_simulate_linear.ini").read_text()
    assert "\nx = -0.5, 0.5\n" in demo
    for command, text in (("simulate", demo),
                          ("convergence", demo.replace("kind = simulate", "kind = convergence")
                           + "n_list = 8\nm_list = 2\n")):
        cfg = _write(tmp_path, f"{command}.ini", text.replace("\nx = -0.5, 0.5\n", "\nx = 0.52, 0.53\n"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == (
            "config error: observation points x = 0.52 and x = 0.53 snap to the same "
            "convolution cell 40 (center 0.53125)\n")
        assert not (tmp_path / command / f"{command}.csv").exists()
    # Convergence's averaged point 0.5 snaps to cell 39 (center 0.46875), as
    # does the observation point 0.47: only the observation points must lie
    # in distinct cells.
    cfg = _write(tmp_path, "shared.ini", demo.replace("kind = simulate", "kind = convergence")
                 .replace("\nx = -0.5, 0.5\n", "\nx = 0.47\n") + "n_list = 8\nm_list = 2\n")
    assert main(["convergence", "--config", cfg, "--replicates", "4", "--out", str(tmp_path / "shared")]) == 0
    rows = _read_rows(tmp_path / "shared" / "convergence.csv")
    assert {float(r["x"]) for r in rows if r["statistic"] == "v_quartic"} == {0.46875}
    assert [r["statistic"] for r in rows if r["statistic"] == "v_avg"] == ["v_avg"]


def test_exact_quartic_csv_identical_at_one_and_two_blas_threads(tmp_path):
    # n = 512 is large enough that a threaded LAPACK Cholesky rounds
    # differently at 1 and 2 threads; 100 replicates end in a partial
    # 64-row path block.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 512\nL = 8.0\nm = 128\n"
        + "[experiment]\nx = 0.5\nreplicates = 100\nseed = 20250601\nbackend = exact-linear\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "skewheat", "quartic", "--config", cfg,
                        "--out", str(out)], env=env, capture_output=True, check=True)
        csvs.append((out / "quartic.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("backend, L, x, sigma", [
    ("exact-linear", "8.0", "0.5", "affine:0,1e-100"),
    ("exact-linear", "8.0", "0.5", "affine:0,1e100"),
    ("exact-linear", "8.0", "0.5", "affine:0,1e300"),
    ("convolution", "1e-300", "0.0", "one"),
    ("convolution", "1e300", "0.0", "one"),
    # |f(x)| past sqrt of the largest double: the kernel's cross integral
    # takes exp(-inf) = 0 for its reflected term.
    ("exact-linear", "8.0", "1e200, -1e200", "one"),
])
def test_quartic_at_unrepresentable_moments_exits_without_traceback(tmp_path, backend, L, x, sigma):
    # Increment moments, their ratios and sigma**4 that underflow or overflow
    # a double are inf or NaN rows, not a crash in the statistics.
    _assert_cli_prints_one_line_messages(tmp_path, "quartic", (
        MEDIUM_14 + f"[grid]\nT = 1.0\nn = 4\nL = {L}\nm = 16\n"
        + f"[experiment]\nsigma = {sigma}\nx = {x}\nreplicates = 4\nseed = 1\nbackend = {backend}\n"))


def test_simulate_at_the_largest_half_width_exits_without_runtime_warnings(tmp_path):
    # L = 1e300 snaps x = 0 to a cell center near -6e298, where the variance
    # target's cross integral squares |f(x)| past the largest double.
    _assert_cli_prints_one_line_messages(tmp_path, "simulate", (
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 1e300\nm = 16\n"
        + "[experiment]\nx = 0.0\nreplicates = 4\nseed = 1\n"))


@pytest.mark.parametrize("command, medium, sigma", [
    # The spread of the replicates' A-hat or u(T) squares past the largest double.
    ("estimate", "[medium]\na1 = 1.0\na2 = 1e300\nrho1 = 1.0\nrho2 = 1.0\n", "one"),
    ("simulate", MEDIUM_14, "sin1:1e300"),
], ids=["estimate", "simulate"])
def test_spread_past_the_largest_double_exits_without_runtime_warnings(tmp_path, command, medium, sigma):
    backend = "exact-linear" if command == "estimate" else "convolution"
    _assert_cli_prints_one_line_messages(tmp_path, command, (
        medium + "[grid]\nT = 1.0\nn = 8\nL = 2.0\nm = 16\n"
        + f"[experiment]\nsigma = {sigma}\nx = -0.5, 0.5\nreplicates = 16\nseed = 1\nbackend = {backend}\n"))


def test_exact_quartic_at_a_lag_below_1e_162_exits_without_runtime_warnings(tmp_path):
    # At x = 0 the kernel's 2*t1*t2 underflows to 0 in the first cells.
    _assert_cli_prints_one_line_messages(tmp_path, "quartic", (
        MEDIUM_14 + "[grid]\nT = 1e-140\nn = 16\nL = 8.0\nm = 16\n"
        + "[experiment]\nx = 0.0\nreplicates = 16\nseed = 1\nbackend = exact-linear\n"))
    rows = _read_rows(tmp_path / "out" / "quartic.csv")
    assert all(math.isfinite(float(r["value"])) for r in rows if r["statistic"] == "A_hat_mean")


def _assert_cli_prints_one_line_messages(tmp_path, command, text, codes=(0, 1),
                                         prefix="warning: "):
    cfg = _write(tmp_path, "c.ini", text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    # Under PYTHONWARNINGS=error a warning would end the run in a traceback.
    done = subprocess.run([sys.executable, "-m", "skewheat", command, "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error"),
                          capture_output=True, text=True)
    assert done.returncode in codes, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    # No numpy RuntimeWarning: one-line messages only, at most one of them
    # counting the rows that are not finite.
    assert "RuntimeWarning" not in done.stderr, done.stderr
    lines = done.stderr.splitlines()
    assert all(line.startswith(prefix) for line in lines), done.stderr
    assert sum("not finite" in line for line in lines) <= 1, done.stderr
    return lines


GRID_HUGE = "[grid]\nT = 1.0\nn = 1000000000\nL = 8.0\nm = 1000000\n"
GRID_OVERFLOW = "[grid]\nT = 1.0\nn = 8\nL = 2.0\nm = 16\n"


@pytest.mark.parametrize("code, prefix, grid, experiment", [
    (0, "", GRID_SMALL, "x = 0.5\nreplicates = 4\nseed = 1\nbackend = exact-linear\n"),
    # A 64-replicate noise chunk of 5e17 bytes, refused before any page is touched.
    (1, "solver failure: Unable to allocate ", GRID_HUGE, "x = 0.5\nreplicates = 4\nseed = 1\n"),
    (2, "config error: ", GRID_SMALL, "x = 0.5\nreplicates = 4\nseed = 1\nsigma = nope\n"),
    # Fields that overflow, on the semigroup path and on the FFT path: sigma's
    # constant comes after the inverse transform, so the FFT path stops at the
    # row where the direct lag sum overflows (in replicate 2), not at i=1.
    (1, "solver failure: non-finite field value at time row i=3, cell j=0", GRID_OVERFLOW,
     "sigma = affine:1e200,1\nx = 0.5\nreplicates = 4\nseed = 0\n"),
    (1, "solver failure: non-finite field value at time row i=7, cell j=9", GRID_OVERFLOW,
     "sigma = affine:0,1.7e308\nx = 0.5\nreplicates = 4\nseed = 0\n"),
], ids=["exit0", "exit1", "exit2", "overflow-semigroup", "overflow-fft"])
def test_cli_process_keeps_its_exit_codes_and_one_line_messages(tmp_path, code, prefix, grid, experiment):
    lines = _assert_cli_prints_one_line_messages(
        tmp_path, "quartic", MEDIUM_14 + grid + "[experiment]\n" + experiment,
        codes=(code,), prefix=prefix)
    assert len(lines) == (code != 0)


def test_python_m_skewheat_goes_through_the_entry_function(tmp_path):
    # The entry function runs main and then freezes the collector, so the
    # interpreter's finalization does not walk the run's objects.
    cfg = _write(tmp_path, "c.ini", MEDIUM_14 + GRID_SMALL
                 + "[experiment]\nx = 0.5\nreplicates = 4\nseed = 1\nbackend = exact-linear\n")
    argv = ["skewheat", "quartic", "--config", cfg, "--out", str(tmp_path / "out")]
    probe = ("import gc, json, runpy, sys, skewheat.cli as cli\n"
             "calls, entry = [], cli.entry\n"
             "cli.entry = lambda: calls.append(gc.get_freeze_count()) or entry()\n"
             f"sys.argv = {argv!r}\n"
             "try:\n    runpy.run_module('skewheat', run_name='__main__')\n"
             "except SystemExit as done:\n"
             "    print(json.dumps([done.code, calls, gc.get_freeze_count()]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    code, calls, frozen = json.loads(done.stdout)
    assert code == 0 and calls == [0] and frozen > 0


def test_console_script_is_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"skewheat": "skewheat.cli:entry"}
    module, name = scripts["skewheat"].split(":")
    from skewheat import cli
    assert getattr(importlib.import_module(module), name) is cli.entry


def test_main_in_process_does_not_freeze_the_collector(tmp_path):
    cfg = _write(tmp_path, "c.ini", MEDIUM_14 + GRID_SMALL
                 + "[experiment]\nx = 0.5\nreplicates = 4\nseed = 1\nbackend = exact-linear\n"
                 + f"out = {tmp_path}/out\n")
    frozen = gc.get_freeze_count()
    assert main(["quartic", "--config", cfg]) == 0
    assert main(["quartic", "--config", cfg, "--seed", "-1"]) == 2
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("workers", ["1", "2"])
def test_allocation_numpy_refuses_exits_one_with_one_line(tmp_path, capsys, workers):
    # n = 1e9 steps on m = 1e6 cells: a 64-replicate chunk's noise would be
    # 5e17 bytes, past any address space, so numpy refuses it before any
    # page is touched.  128 replicates are two chunks, one per worker.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 1000000000\nL = 8.0\nm = 1000000\n"
        + f"[experiment]\nx = 0.5\nreplicates = 128\nseed = 1\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg, "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: Unable to allocate ") and err.count("\n") == 1


def test_overflowing_moments_print_one_line_counting_the_rows(tmp_path, capsys):
    # In process, where a numpy RuntimeWarning fails the test.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 4\nL = 8.0\nm = 16\n"
        + "[experiment]\nsigma = affine:0,1e100\nx = 0.5\nreplicates = 4\nseed = 1\n"
        + f"backend = exact-linear\nout = {tmp_path}/out\n",
    )
    assert main(["quartic", "--config", cfg]) == 0
    rows = _read_rows(tmp_path / "out" / "quartic.csv")
    bad = sum(not math.isfinite(float(r["value"])) for r in rows)
    assert bad > 0
    assert capsys.readouterr().err == (
        f"warning: {bad} of {len(rows)} result rows have a value that is not finite\n")


@pytest.mark.parametrize("sigma", ["sin1:0.5", "one"])
def test_convolution_quartic_csv_identical_at_any_blas_threads_and_workers(tmp_path, sigma):
    # Both field schemes.  m = 128 gives each banded operator of the
    # semigroup several 64-row blocks with distinct column spans, and the FFT
    # product four blocks of source cells; 100 replicates are two chunks,
    # the second partial.
    cfg = _write(
        tmp_path, "c.ini",
        MEDIUM_14 + "[grid]\nT = 1.0\nn = 32\nL = 4.0\nm = 128\n"
        + f"[experiment]\nsigma = {sigma}\nx = -0.5, 0.0, 0.5\nreplicates = 100\nseed = 20250602\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    csvs = []
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"threads{threads}-workers{workers}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "skewheat", "quartic", "--config", cfg,
                            "--workers", workers, "--out", str(out)],
                           env=env, capture_output=True, check=True)
            csvs.append((out / "quartic.csv").read_bytes())
    assert csvs[1:] == csvs[:1] * 3
