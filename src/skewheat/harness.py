"""Experiment drivers: Monte Carlo replication, aggregation, CSV/JSON outputs.

Every command writes one CSV with a fixed column schema plus a JSON run
summary embedding the resolved configuration, its SHA-256, the seed, the
tool version, the Gaussian transform and the numpy version that drew it.
All scientific output is bit-reproducible for a fixed config and seed,
independent of the worker count: replicates are keyed individually by
(seed, replicate), work is split into fixed-size chunks regardless of the
worker pool, and results are assembled by replicate index.  Wall-clock
timings therefore live only in the JSON summary's `timings` block; the CSV
`seconds` column is reserved and always zero.  Exact-linear runs also record,
per sampler build, the covariance quadrature's node level and the wall
seconds of both build stages (the covariance and its in-place Cholesky
factor) and of its path sampling in the summary's `exact_sampler` block; a
covariance that is not positive definite is a CovarianceError, with no
regularization.  Convolution runs record, per replicate chunk, the noise
increments its NoiseChunk held at once (a nonlinear sigma's are drawn as
the recursion steps, a constant sigma's one replicate at a time as the FFT
product takes them), the rows solved per time step, the kernel path taken (the
FFT-in-time product or the semigroup recursion), whether dx meets the
resolution bound and, for the recursion, its one-step semigroup gap in its
`convolution` block.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .medium import A_of, MediumParams
from .kernel import GreenKernel
from .noise import GridSpec, NoiseChunk, sample_noise, GAUSS_TRANSFORM_ID
from .solver import (
    format_sigma,
    solve_field_batch,
    scheme_variance,
    covariance_linear,
    ExactLinearSampler,
    NEWEST_LAG,
)
from .stats import PointAccumulator, PointStats, averaged_points, averaged_statistics
from .stats import point_statistics  # noqa: F401  (the traced benchmark run hooks it by name)
from .config import ExperimentConfig, ConfigError, config_sha256, FORMAT_VERSION
from . import checks

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


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))

# One "%" template per results line, from the fields' types: floats at 17
# significant digits, which round-trip every double.
ROW_TEMPLATE = ",".join({"str": "%s", "int": "%d", "float": "%.17g"}[f.type]
                        for f in fields(ResultRow))


def _rel_error(value: float, target: float) -> float:
    if not math.isfinite(target) or target == 0.0:
        return math.nan
    return abs(value - target) / abs(target)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error; inf or NaN where values overflow a double, without a warning."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.nan
    return mean, se


def _abs_error(st: PointStats) -> np.ndarray:
    """|V_n - limit| per replicate; NaN, without a warning, where both are inf."""
    with np.errstate(invalid="ignore"):
        return np.abs(st.v - st.limit)


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


def _write_csv(path: str, meta: dict, header, template: str, rows) -> None:
    """Write "# key=value" provenance lines, the header and template % row per row (a tuple)."""
    out = [f"# {k}={v}" for k, v in meta.items()]
    out.append(",".join(header))
    out.extend(template % row for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------


# Replicates per convolution chunk, fixed so that no worker count changes the chunks.
REPLICATE_CHUNK = 64


def dx_bound(medium: MediumParams, grid: GridSpec) -> float:
    """sqrt(min(a1, a2)*NEWEST_LAG*dt), the largest dx that resolves the convolution scheme."""
    return math.sqrt(min(medium.a1, medium.a2) * NEWEST_LAG * grid.dt)


def resolution_warning(cfg: ExperimentConfig, records: list[dict]) -> str | None:
    """One line naming dx and the bound when a convolution chunk ran with dx above it.

    At the largest such n (the tightest bound).  None when every chunk was
    resolved, and for sigma = 0, whose field is exactly zero on every grid.
    """
    coarse = [r["n"] for r in records if not r["dx_resolved"]]
    if not coarse or cfg.sigma.constant == 0.0:
        return None
    grid = replace(cfg.grid, n=max(coarse))
    return (f"warning: dx = {grid.dx:.6g} exceeds sqrt(min(a1, a2)*dt/{1 / NEWEST_LAG:g}) = "
            f"{dx_bound(cfg.medium, grid):.6g} at n = {grid.n}; the convolution statistics "
            f"are biased by the spatial resolution")


def nonfinite_warning(cfg: ExperimentConfig, rows: list[dict]) -> str | None:
    """One line counting the result rows whose value is inf or NaN (moments past a double).

    None when every value is finite, and for sigma = 0, whose increment
    ratios are 0/0 by definition.
    """
    bad = sum(not math.isfinite(row["value"]) for row in rows)
    if not bad or cfg.sigma.constant == 0.0:
        return None
    return f"warning: {bad} of {len(rows)} result rows have a value that is not finite"


def _conv_chunk_worker(payload) -> tuple[int, np.ndarray, dict]:
    """Solve one fixed-size chunk of replicates; returns (first_replicate, paths, report).

    paths has shape (count, n_points, n+1); report is what solve_field_batch
    says about the rows it solved and its kernel stack.  The noise is a
    NoiseChunk, never held whole: the semigroup recursion reads its rows,
    REPLICATE_CHUNK columns wide in every chunk, and the constant-sigma FFT
    product its replicates, each drawn by this module's sample_noise as the
    product reaches it.  Everything a chunk computes is a pure function of
    (seed, replicate index, grid, medium, sigma), so neither chunk
    scheduling nor the replicate count can change a replicate's path.
    """
    medium, grid, sigma, seed, first_rep, count, col_indices = payload
    noise = NoiseChunk(grid, seed, first_rep, count, width=REPLICATE_CHUNK, draw=sample_noise)
    report: dict = {}
    u = solve_field_batch(medium, grid, sigma, noise, columns=col_indices, report=report)
    return first_rep, np.ascontiguousarray(np.transpose(u, (2, 1, 0))), report


def _convolution_blocks(cfg: ExperimentConfig, grid: GridSpec, cols: list[int], log: dict):
    """Yield (j, first, rows): the (count, n+1) paths of replicates first.. at the cell cols[j].

    Chunks are solved one at a time at one worker, else taken as pool.map
    returns them.  Appends one record per chunk to log["convolution"] as it
    comes: the solver's report plus dx_resolved, whether dx <= dx_bound.
    """
    payloads = []
    first = 0
    while first < cfg.replicates:
        count = min(REPLICATE_CHUNK, cfg.replicates - first)
        payloads.append((cfg.medium, grid, cfg.sigma, cfg.seed, first, count, cols))
        first += count
    records = log.setdefault("convolution", [])
    resolved = grid.dx <= dx_bound(cfg.medium, grid)

    def blocks(results):
        for first_rep, chunk, report in results:
            records.append({"n": grid.n, "m": grid.m, "dx_resolved": resolved,
                            "first_replicate": first_rep, "replicates": chunk.shape[0], **report})
            for j in range(len(cols)):
                yield j, first_rep, chunk[:, j]

    if cfg.workers <= 1 or len(payloads) <= 1:
        yield from blocks(map(_conv_chunk_worker, payloads))
        return
    from concurrent.futures import ProcessPoolExecutor  # deferred: slow to import, unused by one worker

    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(payloads))) as pool:
        yield from blocks(pool.map(_conv_chunk_worker, payloads))


def _point_paths(cfg: ExperimentConfig, log: dict, grid: GridSpec, points):
    """Paths at the given distinct points on grid: (effective points, blocks).

    blocks yields (j, first, rows), the (count, n+1) paths of replicates
    first.. at point j, valid until the next block is taken; no array of
    every path is made.  A config without observation points is a
    ConfigError.  On the convolution backend the points are snapped to cell
    centers, and a point outside [-L, L] is a ConfigError raised before any
    solve.  The exact backend takes a constant sigma = c only; it samples
    each point independently of the others, one sampler at a time, in
    blocks of PATH_BLOCK replicates scaled by c.  What the backend did is
    appended to log as the blocks are taken: one record per replicate chunk
    under "convolution", or one record per exact sampler under
    "exact_sampler" (quadrature node level, and the wall seconds of the
    covariance and the Cholesky stages and of its path sampling).
    """
    if not cfg.x_points:
        raise ConfigError("this command needs at least one observation point in [experiment] x")
    if cfg.backend == "convolution":
        outside = [x for x in points if abs(x) > grid.L]
        if outside:
            raise ConfigError(f"observation point x = {outside[0]!r} lies outside [-L, L] = "
                              f"[{-grid.L!r}, {grid.L!r}] on the convolution backend")
        cols, points = zip(*(grid.snap(x) for x in points))
        return list(points), _convolution_blocks(cfg, grid, list(cols), log)
    if cfg.sigma.constant is None:
        raise ConfigError("the exact-linear backend needs a constant sigma, "
                          f"got {format_sigma(cfg.sigma)}")
    points = [float(x) for x in points]

    def exact_blocks():
        for j, xe in enumerate(points):
            sampler = ExactLinearSampler(cfg.medium, xe, grid.T, grid.n)
            for first, rows in sampler.path_blocks(cfg.seed, cfg.replicates):
                rows *= cfg.sigma.constant
                yield j, first, rows
            log.setdefault("exact_sampler", []).append(
                {"x": xe, "n": grid.n, "covariance_node_level": sampler.node_level,
                 "covariance_s": sampler.covariance_s, "cholesky_s": sampler.cholesky_s,
                 "paths_s": sampler.paths_s})
            del sampler  # its (n+1)**2 factor array is not held through the next point's build

    return points, exact_blocks()


def _point_stats(cfg: ExperimentConfig, grid: GridSpec, points, blocks) -> list[PointStats]:
    """One PointStats per point, each block of paths added to its point's sums as it comes."""
    sums = [PointAccumulator(cfg.replicates, grid.n, x, grid.T, cfg.sigma, cfg.medium) for x in points]
    for j, first, rows in blocks:
        sums[j].add(first, rows)
    return [acc.result() for acc in sums]


def _quartic_rows(cfg: ExperimentConfig, experiment: str, grid: GridSpec,
                  st: PointStats) -> list[ResultRow]:
    row = partial(make_row, cfg, experiment, st.n, grid.m, st.x)
    closed = st.closed_target
    rows = [
        row("v_quartic", *_mean_se(st.v), float(np.mean(st.limit)) if closed is None else closed),
        row("limit_functional", *_mean_se(st.limit), math.nan if closed is None else closed),
        row("mean_abs_error", *_mean_se(_abs_error(st))),
    ]
    valid = st.a_hat[np.isfinite(st.a_hat)]
    if len(valid):
        rows.append(row("A_hat_mean", *_mean_se(valid), A_of(st.x, cfg.medium)))
    return rows + [
        row("incr_m2", st.m2, target=st.m2_target),
        row("incr_m4", st.m4, target=st.m4_target),
        row("incr_ratio4", st.ratio4, target=3.0),
        row("incr_ratio6", st.ratio6, target=15.0),
        row("degenerate_count", float(st.degenerate), target=0.0),
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_quartic(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    log: dict = {}
    stats = _point_stats(cfg, cfg.grid, *_point_paths(cfg, log, cfg.grid, cfg.x_points))
    return [row for st in stats for row in _quartic_rows(cfg, "quartic", cfg.grid, st)], True, log


def run_estimate(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    log: dict = {}
    stats = _point_stats(cfg, cfg.grid, *_point_paths(cfg, log, cfg.grid, cfg.x_points))
    rows = []
    for st in stats:
        row = partial(make_row, cfg, "estimate", st.n, cfg.grid.m, st.x)
        valid = st.a_hat[np.isfinite(st.a_hat)]
        if len(valid):
            q75, q25 = np.percentile(valid, [75.0, 25.0])
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing spread is inf
                sd = float(np.std(valid, ddof=1)) if len(valid) > 1 else math.nan
            se_med = 1.2533 * sd / math.sqrt(len(valid))
            rows.append(row("A_hat_median", float(np.median(valid)), se_med, A_of(st.x, cfg.medium)))
            rows.append(row("A_hat_iqr", float(q75 - q25)))
        rows.append(row("degenerate_count", float(st.degenerate), target=0.0))
    return rows, True, log


def run_convergence(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    """Per n of n_list, one solve at the observation points and at the averaged points of m_list."""
    if not cfg.n_list:
        raise ConfigError("convergence needs a nonempty [experiment] n_list")
    rows, avg_rows = [], []
    log: dict = {}
    trend: dict[float, list[tuple[int, float]]] = {}
    for n in cfg.n_list:
        grid = replace(cfg.grid, n=n)
        try:
            averaged = [[grid.snap(x)[1] for x in averaged_points(grid, num_points)]
                        for num_points in cfg.m_list]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        request = list(cfg.x_points)
        request += [x for x in dict.fromkeys(sum(averaged, [])) if x not in request]
        stats = _point_stats(cfg, grid, *_point_paths(cfg, log, grid, request))
        for st in stats[:len(cfg.x_points)]:
            rows.extend(_quartic_rows(cfg, "convergence", grid, st))
            trend.setdefault(st.x, []).append((n, float(np.mean(_abs_error(st)))))
        for num_points, xs in zip(cfg.m_list, averaged):
            v_nm, target = averaged_statistics([stats[request.index(x)] for x in xs])
            avg_rows.append(make_row(cfg, "convergence", n, num_points, math.nan,
                                     "v_avg", *_mean_se(v_nm), target))
    for xe, pairs in trend.items():
        if len(pairs) >= 2:
            ln = np.log([p[0] for p in pairs])
            le = np.log([max(p[1], 1e-300) for p in pairs])
            slope = float(np.polyfit(ln, le, 1)[0])
            rows.append(make_row(cfg, "convergence", 0, cfg.grid.m, xe, "loglog_slope", slope))
    return rows + avg_rows, True, log


def run_simulate(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    if cfg.backend != "convolution":
        raise ConfigError("simulate runs the convolution scheme; set backend = convolution")
    log: dict = {}
    grid = cfg.grid
    points, blocks = _point_paths(cfg, log, grid, cfg.x_points)
    blocks = list(blocks)  # every path goes to a CSV: all chunks are solved, then gathered
    paths = np.empty((cfg.replicates, len(points), grid.n + 1))
    for j, first, part in blocks:
        paths[first : first + len(part), j] = part
    rows = []
    ok = True
    path_files = {}
    c = cfg.sigma.constant
    for idx, xe in enumerate(points):
        block = paths[:, idx, :]  # (R, n+1)
        mean_t = float(np.mean(block[:, -1]))
        disc = None if c is None else c * c * scheme_variance(cfg.medium, grid, xe)
        if cfg.replicates > 1:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing spread is inf
                var_t = float(np.var(block[:, -1], ddof=1))
            # From the scheme's exact variance when known, so that a low draw
            # cannot narrow its own band.
            var_se = (var_t if disc is None else disc) * math.sqrt(2.0 / (cfg.replicates - 1))
        else:
            var_t, var_se = 0.0, math.nan
        target = (math.nan if c is None
                  else c * c * covariance_linear(grid.T, grid.T, xe, cfg.medium))
        rows.append(make_row(cfg, "simulate", grid.n, grid.m, xe, "mean_u_T", mean_t,
                             target=0.0))
        row = make_row(cfg, "simulate", grid.n, grid.m, xe, "variance_u_T", var_t,
                       var_se, target)
        rows.append(row)
        if disc is not None:
            rows.append(make_row(cfg, "simulate", grid.n, grid.m, xe, "disc_variance_u_T",
                                 disc, target=target))
        # At c = 0 the target is 0 and rel_error NaN: nothing to gate.
        if (cfg.check_tolerance is not None and c is not None and c != 0.0
                and not (row.rel_error <= cfg.check_tolerance)):
            ok = False
        path_files[f"paths_x{idx:03d}.csv"] = (xe, block)
    log.update(path_files=path_files, times=grid.time_nodes)
    return rows, ok, log


def run_kernel_selftest(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    kernel = GreenKernel(cfg.medium)
    rows = []
    ok = True

    def check(statistic, value, target, passed, x=math.nan):
        nonlocal ok
        ok = ok and passed
        rows.append(make_row(cfg, "kernel-selftest", cfg.grid.n, cfg.grid.m, x, statistic,
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

    violations = checks.pointwise_bound_violations(kernel, *checks.bound_points(cfg.seed, 10_000))
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
    rows.append(make_row(cfg, "kernel-selftest", cfg.grid.n, cfg.grid.m, math.nan,
                         "diag_chapman_kolmogorov_lebesgue",
                         checks.chapman_kolmogorov_gap(cfg.medium, 0.3, 0.5, 0.4, -0.6)))
    rows.append(make_row(cfg, "kernel-selftest", cfg.grid.n, cfg.grid.m, math.nan,
                         "diag_flux_transmission_gap",
                         checks.flux_transmission_gap(cfg.medium, 0.5, 0.7)))
    rows.append(make_row(cfg, "kernel-selftest", cfg.grid.n, cfg.grid.m, 0.0,
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


def _make_out_dir(path: str) -> None:
    """Create the out directory, or raise ConfigError when it cannot hold the outputs."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out directory {path!r}: {exc.strerror}") from None
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"out directory {path!r} is not writable")


def run_command(command: str, cfg: ExperimentConfig) -> dict:
    """Run one command and write its outputs; returns the summary it wrote (pass flag "ok")."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}")
    if cfg.kind is not None and cfg.kind != command:
        raise ConfigError(f"config kind {cfg.kind!r} does not match command {command!r}")
    _make_out_dir(cfg.out_dir)
    started = time.perf_counter()
    rows, ok, extras = _RUNNERS[command](cfg)
    elapsed = time.perf_counter() - started

    sha = config_sha256(cfg)
    meta = {"config_sha256": sha, "seed": cfg.seed, "version": __version__,
            "generator": GAUSS_TRANSFORM_ID}
    files = {"results_csv": f"{command}.csv"}
    _write_csv(os.path.join(cfg.out_dir, files["results_csv"]), meta, CSV_COLUMNS,
               ROW_TEMPLATE, map(astuple, rows))
    times = extras.get("times")
    for name, (xe, block) in extras.get("path_files", {}).items():
        _write_csv(os.path.join(cfg.out_dir, name), {**meta, "x": "%.17g" % xe},
                   ["t"] + [f"rep_{r:06d}" for r in range(block.shape[0])],
                   ",".join(["%.17g"] * (block.shape[0] + 1)),
                   map(tuple, np.column_stack((times, block.T)).tolist()))
        files[name] = name

    payload = {
        "format_version": FORMAT_VERSION,
        "tool": "skewheat",
        "version": __version__,
        "command": command,
        "ok": ok,
        "seed": cfg.seed,
        "config_sha256": sha,
        "gaussian_transform": GAUSS_TRANSFORM_ID,
        "numpy_version": np.__version__,
        "config": asdict(cfg),
        "files": files,
        "rows": [asdict(r) for r in rows],
        "timings": {"total_seconds": elapsed},
        "exact_sampler": extras.get("exact_sampler", []),
        "convolution": extras.get("convolution", []),
    }
    with open(os.path.join(cfg.out_dir, f"{command}_summary.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")
    return payload
