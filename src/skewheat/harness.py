"""Experiment drivers: Monte Carlo replication, aggregation, CSV/JSON outputs.

Every command writes one CSV with a fixed column schema plus a JSON run
summary embedding the resolved configuration, its SHA-256, the seed and the
tool version.  All scientific output is bit-reproducible for a fixed config
and seed, independent of the worker count: replicates are keyed individually
by (seed, replicate), work is split into fixed-size chunks regardless of the
worker pool, and results are assembled by replicate index.  Wall-clock
timings therefore live only in the JSON summary's `timings` block; the CSV
`seconds` column is reserved and always zero.  Exact-linear runs also record,
per observation point, the Cholesky jitter and the covariance quadrature's
node level in the summary's `exact_sampler` block; convolution runs record,
per replicate chunk, the rows solved per time step and whether the kernel
stack was cached or recomputed in its `convolution` block.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .medium import MediumParams, derive_constants, tau, A_of
from .kernel import GreenKernel
from .noise import GridSpec, sample_noise, GAUSS_TRANSFORM_ID
from .solver import (
    SigmaSpec,
    parse_sigma,
    solve_field_batch,
    scheme_variance,
    covariance_linear,
    ExactLinearSampler,
)
from .config import ExperimentConfig, ConfigError, config_sha256, FORMAT_VERSION
from . import checks

CSV_COLUMNS = (
    "experiment",
    "backend",
    "n",
    "m",
    "x",
    "R",
    "statistic",
    "value",
    "std_error",
    "target",
    "rel_error",
    "seconds",
)


@dataclass(frozen=True)
class ResultRow:
    """One aggregated statistic of one experiment, in the fixed CSV schema."""

    experiment: str
    backend: str
    n: int
    m: int
    x: float
    R: int
    statistic: str
    value: float
    std_error: float
    target: float
    rel_error: float
    seconds: float = 0.0


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def _rel_error(value: float, target: float) -> float:
    if not math.isfinite(target) or target == 0.0:
        return math.nan
    return abs(value - target) / abs(target)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.nan
    return mean, se


def make_row(cfg: ExperimentConfig, experiment, n, m, x, statistic, value,
             std_error=math.nan, target=math.nan) -> ResultRow:
    return ResultRow(
        experiment=experiment,
        backend=cfg.backend,
        n=n,
        m=m,
        x=x,
        R=cfg.replicates,
        statistic=statistic,
        value=value,
        std_error=std_error,
        target=target,
        rel_error=_rel_error(value, target),
    )


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def write_csv(path: str, rows: list[ResultRow], meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        d = asdict(row)
        lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path: str, command: str, cfg: ExperimentConfig, rows: list[ResultRow],
                  ok: bool, files: dict, timings: dict, exact_sampler: list[dict],
                  convolution: list[dict]) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "tool": "skewheat",
        "version": __version__,
        "command": command,
        "ok": ok,
        "seed": cfg.seed,
        "config_sha256": config_sha256(cfg),
        "gaussian_transform": GAUSS_TRANSFORM_ID,
        "config": cfg.to_dict(),
        "files": files,
        "rows": [asdict(r) for r in rows],
        "timings": timings,
        "exact_sampler": exact_sampler,
        "convolution": convolution,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "config_sha256": config_sha256(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "generator": GAUSS_TRANSFORM_ID,
    }


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------


def _grid(cfg: ExperimentConfig, n: int | None = None) -> GridSpec:
    return GridSpec(T=cfg.T, n=int(n if n is not None else cfg.n), L=cfg.L, m=cfg.m)


def _conv_chunk_worker(payload) -> tuple[int, np.ndarray, dict]:
    """Solve one fixed-size chunk of replicates; returns (first_replicate, paths, report).

    paths has shape (count, n_points, n+1); report is what solve_field_batch
    says about the rows it solved and its kernel stack.  Everything a chunk
    computes is a pure function of (seed, replicate index, grid, medium,
    sigma), so chunk scheduling cannot change results.
    """
    (medium_fields, grid_fields, sigma_str, seed, first_rep, count,
     col_indices, budget_bytes, zero_noise) = payload
    medium = MediumParams(*medium_fields)
    grid = GridSpec(*grid_fields)
    sigma = parse_sigma(sigma_str)
    dw = np.zeros((grid.n, grid.m, count))
    if not zero_noise:
        for k in range(count):
            dw[:, :, k] = sample_noise(grid, seed, first_rep + k).increments
    report: dict = {}
    u = solve_field_batch(medium, grid, sigma, dw, budget_bytes, columns=col_indices,
                          report=report)
    return first_rep, np.ascontiguousarray(np.transpose(u, (2, 1, 0))), report


def _convolution_paths(cfg: ExperimentConfig, grid: GridSpec, xs: list[float],
                       log: dict) -> np.ndarray:
    """Paths at the snapped observation points, shape (R, n_points, n+1).

    Appends one record per replicate chunk to log["convolution"].
    """
    cols = [grid.snap(x)[0] for x in xs]
    budget = cfg.memory_budget_mb * 1024 * 1024
    payloads = []
    first = 0
    while first < cfg.replicates:
        count = min(cfg.replicate_chunk, cfg.replicates - first)
        payloads.append((
            (cfg.medium.a1, cfg.medium.a2, cfg.medium.rho1, cfg.medium.rho2),
            (grid.T, grid.n, grid.L, grid.m),
            cfg.sigma, cfg.seed, first, count, cols, budget, cfg.zero_noise,
        ))
        first += count
    if cfg.workers <= 1 or len(payloads) <= 1:
        results = [_conv_chunk_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_conv_chunk_worker, payloads))
    out = np.empty((cfg.replicates, len(xs), grid.n + 1))
    records = log.setdefault("convolution", [])
    for first_rep, block, report in results:
        out[first_rep : first_rep + block.shape[0]] = block
        records.append({"n": grid.n, "m": grid.m, "first_replicate": first_rep,
                        "replicates": block.shape[0], **report})
    return out


def _exact_paths(cfg: ExperimentConfig, n: int, x: float, log: dict) -> np.ndarray:
    """Exact Gaussian paths at the point x, shape (R, n+1); sigma must be one.

    Appends what the sampler did (jitter, quadrature node level) to
    log["exact_sampler"].
    """
    if cfg.sigma != "one":
        raise ConfigError("the exact-linear backend is valid only for sigma = one")
    sampler = ExactLinearSampler(cfg.medium, x, cfg.T, n)
    log.setdefault("exact_sampler", []).append(
        {"x": x, "n": n, "cholesky_jitter": sampler.jitter,
         "covariance_node_level": sampler.node_level})
    return sampler.paths_array(cfg.seed, cfg.replicates)


def _observation_points(cfg: ExperimentConfig, grid: GridSpec) -> list[tuple[float, float]]:
    """Pairs (x_requested, x_effective): snapped for convolution, exact otherwise."""
    if not cfg.x_points:
        raise ConfigError("this command needs at least one observation point in [experiment] x")
    if cfg.backend == "convolution":
        return [(x, grid.snap(x)[1]) for x in cfg.x_points]
    return [(x, float(x)) for x in cfg.x_points]


# ---------------------------------------------------------------------------
# per-point statistics shared by the quartic/convergence/estimate commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointStats:
    """Vectorized per-replicate statistics of paths observed at one point."""

    x: float
    n: int
    v: np.ndarray
    limit: np.ndarray
    a_hat: np.ndarray  # NaN where degenerate
    degenerate: int
    m2: float
    m4: float
    ratio4: float
    ratio6: float
    closed_target: float | None  # limit value for sigma = one, else None


def point_statistics(paths: np.ndarray, x: float, T: float, sigma: SigmaSpec,
                     medium: MediumParams) -> PointStats:
    paths = np.asarray(paths, dtype=float)
    n = paths.shape[1] - 1
    delta = T / n
    d = np.diff(paths, axis=1)
    v = np.sum(d**4, axis=1)
    dc = derive_constants(medium)
    coef = 6.0 * tau(x, dc) / (math.pi * A_of(x, medium))
    s4_left = sigma.evaluate(paths[:, :-1]) ** 4
    limit = coef * delta * np.sum(s4_left, axis=1)
    s4_right = sigma.evaluate(paths[:, 1:]) ** 4
    with np.errstate(divide="ignore", invalid="ignore"):
        a_hat = np.where(
            v > 0.0,
            6.0 * T * tau(x, dc) * np.sum(s4_right, axis=1) / (n * math.pi * v),
            math.nan,
        )
    start = max(1, math.ceil(n / 4))
    dint = d[:, start - 1 :].ravel()
    m2 = float(np.mean(dint**2))
    m4 = float(np.mean(dint**4))
    m6 = float(np.mean(dint**6))
    closed = coef * T if sigma.label == "one" else None
    return PointStats(
        x=x,
        n=n,
        v=v,
        limit=limit,
        a_hat=a_hat,
        degenerate=int(np.sum(~(v > 0.0))),
        m2=m2,
        m4=m4,
        ratio4=m4 / m2**2,
        ratio6=m6 / m2**3,
        closed_target=closed,
    )


def _gather_point_paths(cfg: ExperimentConfig, grid: GridSpec,
                        points: list[tuple[float, float]], log: dict) -> np.ndarray:
    """(R, n_points, n+1) array of paths at the effective points.

    Appends what the backend did to log: one sampler record per point under
    "exact_sampler", or one record per replicate chunk under "convolution".
    """
    if cfg.backend == "convolution":
        return _convolution_paths(cfg, grid, [xe for _, xe in points], log)
    blocks = [_exact_paths(cfg, grid.n, xe, log) for _, xe in points]
    return np.stack(blocks, axis=1)


def _quartic_rows(cfg: ExperimentConfig, experiment: str, grid: GridSpec,
                  stats: PointStats, sigma: SigmaSpec) -> list[ResultRow]:
    medium = cfg.medium
    dc = derive_constants(medium)
    delta = grid.T / stats.n
    x = stats.x
    n, m = stats.n, grid.m
    target_v = stats.closed_target if stats.closed_target is not None else float(np.mean(stats.limit))
    rows = []
    mean_v, se_v = _mean_se(stats.v)
    rows.append(make_row(cfg, experiment, n, m, x, "v_quartic", mean_v, se_v, target_v))
    mean_l, se_l = _mean_se(stats.limit)
    rows.append(make_row(cfg, experiment, n, m, x, "limit_functional", mean_l, se_l,
                         stats.closed_target if stats.closed_target is not None else math.nan))
    abs_err = np.abs(stats.v - stats.limit)
    mean_e, se_e = _mean_se(abs_err)
    rows.append(make_row(cfg, experiment, n, m, x, "mean_abs_error", mean_e, se_e))
    valid = stats.a_hat[np.isfinite(stats.a_hat)]
    if len(valid):
        mean_a, se_a = _mean_se(valid)
        rows.append(make_row(cfg, experiment, n, m, x, "A_hat_mean", mean_a, se_a,
                             A_of(x, medium)))
    rows.append(make_row(cfg, experiment, n, m, x, "incr_m2", stats.m2,
                         target=math.sqrt(delta) * math.sqrt(2.0 * tau(x, dc) / (math.pi * A_of(x, medium)))))
    rows.append(make_row(cfg, experiment, n, m, x, "incr_m4", stats.m4,
                         target=6.0 * delta * tau(x, dc) / (A_of(x, medium) * math.pi)))
    rows.append(make_row(cfg, experiment, n, m, x, "incr_ratio4", stats.ratio4, target=3.0))
    rows.append(make_row(cfg, experiment, n, m, x, "incr_ratio6", stats.ratio6, target=15.0))
    rows.append(make_row(cfg, experiment, n, m, x, "degenerate_count",
                         float(stats.degenerate), target=0.0))
    return rows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_quartic(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    sigma = parse_sigma(cfg.sigma)
    grid = _grid(cfg)
    points = _observation_points(cfg, grid)
    log: dict = {}
    paths = _gather_point_paths(cfg, grid, points, log)
    rows = []
    for idx, (_, xe) in enumerate(points):
        st = point_statistics(paths[:, idx, :], xe, cfg.T, sigma, cfg.medium)
        rows.extend(_quartic_rows(cfg, "quartic", grid, st, sigma))
    return rows, True, log


def run_estimate(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    sigma = parse_sigma(cfg.sigma)
    grid = _grid(cfg)
    points = _observation_points(cfg, grid)
    log: dict = {}
    paths = _gather_point_paths(cfg, grid, points, log)
    rows = []
    for idx, (_, xe) in enumerate(points):
        st = point_statistics(paths[:, idx, :], xe, cfg.T, sigma, cfg.medium)
        valid = st.a_hat[np.isfinite(st.a_hat)]
        target = A_of(xe, cfg.medium)
        if len(valid):
            med = float(np.median(valid))
            q75, q25 = np.percentile(valid, [75.0, 25.0])
            se_med = 1.2533 * float(np.std(valid, ddof=1)) / math.sqrt(len(valid)) if len(valid) > 1 else math.nan
            rows.append(make_row(cfg, "estimate", st.n, grid.m, xe, "A_hat_median",
                                 med, se_med, target))
            rows.append(make_row(cfg, "estimate", st.n, grid.m, xe, "A_hat_iqr",
                                 float(q75 - q25)))
        rows.append(make_row(cfg, "estimate", st.n, grid.m, xe, "degenerate_count",
                             float(st.degenerate), target=0.0))
    return rows, True, log


def _averaged_points(cfg: ExperimentConfig, grid: GridSpec, num_points: int) -> list[tuple[float, float]]:
    centers = grid.cell_centers
    hi = (num_points - 1) / num_points
    if centers[0] > 0.0 or centers[-1] < hi:
        raise ConfigError("grid does not cover [0, 1) for the averaged statistic")
    return [(j / num_points, grid.snap(j / num_points)[1]) for j in range(num_points)]


def run_convergence(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    if not cfg.n_list:
        raise ConfigError("convergence needs a nonempty [experiment] n_list")
    sigma = parse_sigma(cfg.sigma)
    rows = []
    log: dict = {}
    trend: dict[float, list[tuple[int, float]]] = {}
    for n in cfg.n_list:
        grid = _grid(cfg, n)
        points = _observation_points(cfg, grid)
        paths = _gather_point_paths(cfg, grid, points, log)
        for idx, (_, xe) in enumerate(points):
            st = point_statistics(paths[:, idx, :], xe, cfg.T, sigma, cfg.medium)
            rows.extend(_quartic_rows(cfg, "convergence", grid, st, sigma))
            err = float(np.mean(np.abs(st.v - st.limit)))
            trend.setdefault(xe, []).append((n, err))
    for xe, pairs in trend.items():
        if len(pairs) >= 2:
            ln = np.log([p[0] for p in pairs])
            le = np.log([max(p[1], 1e-300) for p in pairs])
            slope = float(np.polyfit(ln, le, 1)[0])
            rows.append(make_row(cfg, "convergence", 0, cfg.m, xe, "loglog_slope", slope))
    # Averaged-statistic sweep over spatial point counts, when requested.
    for n in cfg.n_list if cfg.m_list else ():
        grid = _grid(cfg, n)
        for num_points in cfg.m_list:
            pts = _averaged_points(cfg, grid, num_points)
            paths = _gather_point_paths(cfg, grid, pts, log)
            v_per_point = np.sum(np.diff(paths, axis=2) ** 4, axis=2)  # (R, num_points)
            v_nm = np.mean(v_per_point, axis=1)
            mean_v, se_v = _mean_se(v_nm)
            if sigma.label == "one":
                dc = derive_constants(cfg.medium)
                target = float(np.mean([
                    6.0 * tau(xe, dc) / (math.pi * A_of(xe, cfg.medium)) * cfg.T
                    for _, xe in pts
                ]))
            else:
                target = math.nan
            rows.append(make_row(cfg, "convergence", n, num_points, math.nan,
                                 "v_avg", mean_v, se_v, target))
    return rows, True, log


def run_simulate(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    if cfg.backend != "convolution":
        raise ConfigError("simulate runs the convolution scheme; set backend = convolution")
    sigma = parse_sigma(cfg.sigma)
    grid = _grid(cfg)
    points = _observation_points(cfg, grid)
    log: dict = {}
    paths = _gather_point_paths(cfg, grid, points, log)
    rows = []
    ok = True
    path_files = {}
    times = grid.time_nodes
    for idx, (_, xe) in enumerate(points):
        block = paths[:, idx, :]  # (R, n+1)
        mean_t = float(np.mean(block[:, -1]))
        if cfg.replicates > 1:
            var_t = float(np.var(block[:, -1], ddof=1))
            var_se = var_t * math.sqrt(2.0 / (cfg.replicates - 1))
        else:
            var_t, var_se = 0.0, math.nan
        target = 0.0 if cfg.zero_noise else covariance_linear(cfg.T, cfg.T, xe, cfg.medium)
        rows.append(make_row(cfg, "simulate", grid.n, grid.m, xe, "mean_u_T", mean_t,
                             target=0.0))
        row = make_row(cfg, "simulate", grid.n, grid.m, xe, "variance_u_T", var_t,
                       var_se, target)
        rows.append(row)
        if sigma.label == "one" and not cfg.zero_noise:
            rows.append(make_row(cfg, "simulate", grid.n, grid.m, xe, "disc_variance_u_T",
                                 scheme_variance(cfg.medium, grid, xe), target=target))
        if (cfg.check_tolerance is not None and sigma.label == "one"
                and not cfg.zero_noise and not (row.rel_error <= cfg.check_tolerance)):
            ok = False
        path_files[f"paths_x{idx:03d}.csv"] = (xe, block)
    log.update(path_files=path_files, times=times)
    return rows, ok, log


def run_kernel_selftest(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    kernel = GreenKernel(cfg.medium)
    rows = []
    ok = True

    def check(statistic, value, target, passed, x=math.nan):
        nonlocal ok
        ok = ok and passed
        rows.append(make_row(cfg, "kernel-selftest", cfg.n, cfg.m, x, statistic,
                             value, target=target))

    t_grid = np.linspace(0.01, 1.0, 20)
    xy = np.linspace(-3.0, 3.0, 20)
    for a in (1.0, 4.0):
        err = checks.reduction_max_rel_error(a, 1.0, t_grid, xy, xy)
        check(f"reduction_max_rel_err_a{a:g}", err, 1e-12, err <= 1e-12)

    gaps = checks.closed_form_vs_quadrature(cfg.seed, 20)
    for name in ("l1", "l2", "cross"):
        check(f"{name}_vs_quadrature_max_abs", gaps[name], 1e-8, gaps[name] <= 1e-8)

    margins = checks.integral_bound_margins(cfg.seed, 1000)
    check("l1_bound_margin_min", margins["l1"], 0.0, margins["l1"] > 0.0)
    check("l2_bound_margin_min", margins["l2"], 0.0, margins["l2"] > 0.0)

    violations = checks.pointwise_bound_violations(kernel, cfg.seed, 10_000)
    check("pointwise_bound_violations", float(violations), 0.0, violations == 0)

    res = checks.pde_residual_sweep(
        kernel,
        np.linspace(0.25, 1.0, 6),
        np.concatenate([np.linspace(-2.0, -0.25, 8), np.linspace(0.25, 2.0, 8)]),
        y=0.0,
        h=1e-3,
    )
    check("pde_rel_residual_max", res, 1e-3, res <= 1e-3)

    # Recorded diagnostics: not pinned behavior, never gate the exit status.
    info = checks.chapman_kolmogorov_gap(cfg.medium, 0.3, 0.5, 0.4, -0.6)
    rows.append(make_row(cfg, "kernel-selftest", cfg.n, cfg.m, math.nan,
                         "diag_chapman_kolmogorov_lebesgue", info["lebesgue"]))
    rows.append(make_row(cfg, "kernel-selftest", cfg.n, cfg.m, math.nan,
                         "diag_chapman_kolmogorov_rho_weighted", info["rho_weighted"]))
    rows.append(make_row(cfg, "kernel-selftest", cfg.n, cfg.m, math.nan,
                         "diag_flux_transmission_gap",
                         checks.flux_transmission_gap(cfg.medium, 0.5, 0.7)))
    rows.append(make_row(cfg, "kernel-selftest", cfg.n, cfg.m, 0.0,
                         "diag_interface_continuity_gap",
                         checks.interface_continuity_gap(kernel, 0.5, 0.7)))
    return rows, ok, {}


_RUNNERS = {
    "kernel-selftest": run_kernel_selftest,
    "simulate": run_simulate,
    "quartic": run_quartic,
    "convergence": run_convergence,
    "estimate": run_estimate,
}


def run_command(command: str, cfg: ExperimentConfig) -> bool:
    """Run one command and write its outputs; returns the overall pass flag."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}")
    if cfg.kind is not None and cfg.kind != command:
        raise ConfigError(f"config kind {cfg.kind!r} does not match command {command!r}")
    started = time.perf_counter()
    rows, ok, extras = _RUNNERS[command](cfg)
    elapsed = time.perf_counter() - started

    os.makedirs(cfg.out_dir, exist_ok=True)
    meta = _meta(cfg)
    csv_name = f"{command}.csv"
    write_csv(os.path.join(cfg.out_dir, csv_name), rows, meta)
    files = {"results_csv": csv_name}

    for name, (xe, block) in extras.get("path_files", {}).items():
        times = extras["times"]
        lines = [f"# {k}={v}" for k, v in meta.items()]
        lines.append(f"# x={_fmt(xe)}")
        lines.append(",".join(["t"] + [f"rep_{r:06d}" for r in range(block.shape[0])]))
        for i, t in enumerate(times):
            lines.append(",".join([_fmt(t)] + [_fmt(v) for v in block[:, i]]))
        with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        files[name] = name

    write_summary(
        os.path.join(cfg.out_dir, f"{command}_summary.json"),
        command, cfg, rows, ok, files,
        timings={"total_seconds": elapsed},
        exact_sampler=extras.get("exact_sampler", []),
        convolution=extras.get("convolution", []),
    )
    return ok
