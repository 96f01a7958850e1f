"""Experiment drivers: Monte Carlo replication, aggregation, CSV/JSON outputs.

Every command writes one CSV with a fixed column schema plus a JSON run
summary embedding the resolved configuration, its SHA-256, the seed, the
tool version, the Gaussian transform and the numpy version that drew it.
All scientific output is bit-reproducible for a fixed config and seed,
independent of the worker count: replicates are keyed individually by
(seed, replicate), work is split into fixed-size chunks regardless of the
worker count, and results are assembled by replicate index.  A chunk is
solved from its first replicate alone; at workers > 1 the chunks are dealt
round-robin to forked worker processes, each forked once, each sending one
pickle per chunk and each reaped however the run ends.  Wall-clock
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
resolution bound and the scheme's exact Var u(T) (FFT) or the bands'
share of the operators' dense entries (recursion), in its `convolution` block.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .medium import A_of, MediumParams
from .kernel import GreenKernel
from .noise import GridSpec, NoiseChunk, sample_noise, GAUSS_TRANSFORM_ID
from .solver import (
    SolverError,
    format_sigma,
    solve_field_batch,
    covariance_linear,
    ExactLinearSampler,
    NEWEST_LAG,
)
from .stats import PointAccumulator, PointStats, averaged_points, averaged_statistics
from .config import ExperimentConfig, ConfigError, config_sha256, FORMAT_VERSION

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


def _write_text(path: str, lines) -> None:
    """Write the strings of lines, each ending in its newline, to path, holding one at a time.

    An OSError (a directory in the way, a full disk) is a ConfigError.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


def _write_csv(path: str, meta: dict, header, template: str, rows) -> None:
    """Write "# key=value" provenance lines, the header and template % row per row (a tuple).

    rows may be any iterable; each line is formatted as it is written.
    """
    line = template + "\n"
    _write_text(path, chain((f"# {k}={v}\n" for k, v in meta.items()), [",".join(header) + "\n"],
                            (line % row for row in rows)))


def _time_rows(times: np.ndarray, block: np.ndarray):
    """(t_i, block[0, i], ..., block[R-1, i]) for each time node t_i of an (R, n+1) path block."""
    for i, t in enumerate(times.tolist()):
        yield (t, *block[:, i].tolist())


# ---------------------------------------------------------------------------
# path generation
# ---------------------------------------------------------------------------


# Replicates per convolution chunk, fixed so that no worker count changes the chunks.
REPLICATE_CHUNK = 64


def dx_bound(medium: MediumParams, grid: GridSpec) -> float:
    """sqrt(min(a1, a2)*NEWEST_LAG*dt), the largest dx that resolves the convolution scheme."""
    return math.sqrt(min(medium.a1, medium.a2) * NEWEST_LAG * grid.dt)


def _check_newest_lag(grid: GridSpec) -> None:
    """ConfigError when the newest lag NEWEST_LAG*T/n is subnormal (lost bits) or 0 (no kernel)."""
    lag = NEWEST_LAG * grid.dt
    if lag < sys.float_info.min:
        raise ConfigError(f"the convolution scheme's newest lag {NEWEST_LAG:g}*T/n = {lag!r} at "
                          f"T/n = {grid.dt!r} (n = {grid.n}) is not a normal double; it needs "
                          f"T/n >= {sys.float_info.min / NEWEST_LAG!r}")


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
    """One line counting the result rows whose value is inf or NaN.

    Such a value is a moment past the range of a double, or simulate's
    variance_u_T at R = 1.  None when every value is finite, and for
    sigma = 0, whose increment ratios are 0/0 by definition.
    """
    bad = sum(not math.isfinite(row["value"]) for row in rows)
    if not bad or cfg.sigma.constant == 0.0:
        return None
    return f"warning: {bad} of {len(rows)} result rows have a value that is not finite"


def _solve_chunk(cfg: ExperimentConfig, grid: GridSpec, cols: list[int], first: int):
    """Solve the chunk of replicates first.. at the cells cols; returns (paths, record).

    paths is solve_field_batch's (count, len(cols), n+1) array itself; record
    holds n, m, dx_resolved (whether dx <= dx_bound), first_replicate and
    replicates, then what solve_field_batch says of its rows and kernel stack.
    The noise is a NoiseChunk, never held whole: the semigroup recursion
    reads its rows, REPLICATE_CHUNK columns wide in every chunk, and the
    constant-sigma FFT product its replicates, each drawn by this module's
    sample_noise as the product reaches it.  Everything a chunk computes is
    a pure function of (seed, replicate index, grid, medium, sigma), so
    neither chunk scheduling nor the replicate count can change a path.
    """
    count = min(REPLICATE_CHUNK, cfg.replicates - first)
    noise = NoiseChunk(grid, cfg.seed, first, count, width=REPLICATE_CHUNK, draw=sample_noise)
    record = {"n": grid.n, "m": grid.m, "dx_resolved": grid.dx <= dx_bound(cfg.medium, grid),
              "first_replicate": first, "replicates": count}
    return solve_field_batch(cfg.medium, grid, cfg.sigma, noise, columns=cols, report=record), record


def _convolution_blocks(cfg: ExperimentConfig, grid: GridSpec, cols: list[int], log: dict):
    """Yield (j, first, rows): the (count, n+1) paths of replicates first.. at the cell cols[j].

    Each chunk is _solve_chunk of its first replicate.  With one worker or
    one chunk the chunks are solved here, one at a time.  Otherwise
    min(workers, chunks) forked children solve them round-robin
    (_forked_chunks), and their results are taken in chunk order; the
    children are killed and reaped however the generator is left.  Where
    os.fork does not exist, that is a ConfigError raised before any chunk is
    solved.  Appends each chunk's record to log["convolution"] as it comes.
    """
    firsts = range(0, cfg.replicates, REPLICATE_CHUNK)
    solve = partial(_solve_chunk, cfg, grid, cols)
    workers = min(cfg.workers, len(firsts))
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"workers = {cfg.workers} needs os.fork, which this platform lacks; "
                          "set workers = 1")
    chunks = map(solve, firsts) if workers <= 1 else _forked_chunks(solve, firsts, workers)
    records = log.setdefault("convolution", [])
    for paths, record in chunks:
        records.append(record)
        for j in range(len(cols)):
            yield j, record["first_replicate"], paths[:, j]


def _forked_chunks(solve, firsts: range, workers: int):
    """Yield solve(first) for each first of firsts in order, solved in forked children.

    Child w is forked once, inherits solve and its share firsts[w::workers]
    and solves them in turn, writing each (ok, value) to its own pipe as a
    pickle; the parent reads chunk k from child k % workers, so every child
    has at most one result waiting.  An exception in a child is raised here
    with its type and message.  A child that ends without its result (no
    pickle or a cut-off one), or a failed pipe or fork, is a SolverError
    naming the replicates or the worker, and the cause.  However the
    generator is left (a result, an error or a consumer that stops early),
    the pipes are closed, every child still running is killed, and every
    child is reaped.
    """
    from signal import SIGKILL  # deferred: unused by one worker

    for stream in (sys.stdout, sys.stderr):  # nothing buffered may be written twice
        if stream is not None:
            stream.flush()
    children = []  # (pid, read end of its pipe)
    reaped = set()
    try:
        for w in range(workers):
            opened = ()  # the pipe's two ends, once os.pipe returns them
            try:
                read_fd, write_fd = opened = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in opened:
                    os.close(fd)
                raise SolverError(f"cannot start worker process {w + 1} of {workers}: "
                                  f"{exc.strerror}") from None
            if pid == 0:  # never returns; each pipe's one reader is the parent
                _chunk_child(solve, firsts[w::workers], write_fd,
                             [read_fd] + [pipe.fileno() for _, pipe in children])
            os.close(write_fd)  # later children must not hold it: EOF marks this child's end
            children.append((pid, open(read_fd, "rb")))
        for k, first in enumerate(firsts):
            pid, pipe = children[k % workers]
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pid, 0)
                reaped.add(pid)
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                last = min(first + firsts.step, firsts.stop) - 1
                raise SolverError(f"the worker solving replicates {first}..{last} "
                                  f"ended without a result ({how})") from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, SIGKILL)
        for pid, _ in children:
            if pid not in reaped:
                os.waitpid(pid, 0)


def _chunk_child(solve, firsts: range, write_fd: int, inherited: list[int]):
    """Body of a forked child: send (ok, solve(first)) for each first in turn, then os._exit.

    The child first closes the inherited pipe ends it does not write, and
    stops after its first failure.  It never returns into the parent's code:
    no generator, finally block or atexit handler of the parent runs twice.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(write_fd, "wb") as out:
            for first in firsts:
                try:
                    message = (True, solve(first))
                except Exception as exc:  # sent to the parent, which raises it
                    message = (False, exc)
                pickle.dump(message, out, protocol=pickle.HIGHEST_PROTOCOL)
                out.flush()
                if not message[0]:
                    break
        status = 0
    finally:
        os._exit(status)


def _point_paths(cfg: ExperimentConfig, log: dict, grid: GridSpec, points):
    """Paths at the given distinct points on grid: (effective points, blocks).

    blocks yields (j, first, rows), the (count, n+1) paths of replicates
    first.. at point j, valid until the next block is taken; no array of
    every path is made.  A config without observation points is a
    ConfigError.  On the convolution backend the points are snapped to cell
    centers, and a point outside [-L, L] or two of cfg.x_points (not other
    points) in one cell is a ConfigError raised before any solve.  The exact
    backend takes a constant sigma = c only; it samples each point
    independently of the others, one sampler at a time, in blocks of
    PATH_BLOCK replicates scaled by c.  What the backend did is appended to
    log as the blocks are taken: one record per replicate chunk under
    "convolution", or one record per exact sampler under "exact_sampler"
    (quadrature node level, the wall seconds of the covariance and the
    Cholesky stages and of its path sampling, and
    "sampled_independently": True).
    """
    if not cfg.x_points:
        raise ConfigError("this command needs at least one observation point in [experiment] x")
    if cfg.backend == "convolution":
        _check_newest_lag(grid)
        outside = [x for x in points if abs(x) > grid.L]
        if outside:
            raise ConfigError(f"observation point x = {outside[0]!r} lies outside [-L, L] = "
                              f"[{-grid.L!r}, {grid.L!r}] on the convolution backend")
        cells: dict[int, float] = {}
        for x in cfg.x_points:
            col, center = grid.snap(x)
            if cells.setdefault(col, x) != x:
                raise ConfigError(f"observation points x = {cells[col]!r} and x = {x!r} snap to the "
                                  f"same convolution cell {col} (center {center!r})")
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
                 "paths_s": sampler.paths_s, "sampled_independently": True})
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
    if cfg.backend == "convolution":  # the largest n has the shortest lag
        _check_newest_lag(replace(cfg.grid, n=max(cfg.n_list)))
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
        disc = None if c is None else log["convolution"][0]["disc_variance_u_T"][idx]
        if cfg.replicates > 1:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing spread is inf
                var_t = float(np.var(block[:, -1], ddof=1))
            # From the scheme's exact variance when known, so that a low draw
            # cannot narrow its own band.
            var_se = (var_t if disc is None else disc) * math.sqrt(2.0 / (cfg.replicates - 1))
        else:
            var_t, var_se = math.nan, math.nan  # one path has no sample variance
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
    log["path_files"] = path_files
    return rows, ok, log


def run_kernel_selftest(cfg: ExperimentConfig) -> tuple[list[ResultRow], bool, dict]:
    from . import checks  # the one command that runs the check suites; other runs skip its import

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
    """Run one command and write its outputs; returns the summary it wrote (pass flag "ok").

    An output that cannot be written is a ConfigError naming its path, raised
    after the run; the outputs written before it stay.
    """
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
    for name, (xe, block) in extras.get("path_files", {}).items():
        _write_csv(os.path.join(cfg.out_dir, name), {**meta, "x": "%.17g" % xe},
                   chain(["t"], (f"rep_{r:06d}" for r in range(block.shape[0]))),
                   ",".join(["%.17g"] * (block.shape[0] + 1)), _time_rows(cfg.grid.time_nodes, block))
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
    _write_text(os.path.join(cfg.out_dir, f"{command}_summary.json"),
                [json.dumps(payload, indent=2, allow_nan=True) + "\n"])
    return payload
