"""Traced in-process run of one workload, giving the per-layer metrics.

Usage: python3 perfbench/traced.py SPEC.json RESULT.json

SPEC names the workload, its generated config and a work directory.  The
run loads the config, then alternates `harness.run_command` untraced and
traced, with a span around each call into the noise, kernel, solver and
harness layers, until the given seconds have passed (at least two pairs),
and writes the layer metrics to RESULT.  Spans come from wrappers installed
in this process only; forked pool workers inherit them and spool their
spans to files that are merged after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from workloads import BY_NAME

# Top-level spans that count as layer work; everything else inside
# run_command (dispatch, pool start, aggregation, output) is harness self time.
LAYER_SPANS = ("noise.field", "solver.field", "solver.sampler", "solver.paths",
               "stats.point", "solver.oracle")
# Per-layer metrics that are counts or computed sizes: they must repeat exactly.
EXACT_METRICS = ("kernel.stack_builds", "kernel.stack_mb", "solver.conv_flops", "solver.field_mb",
                 "solver.cov_entries", "solver.cov_integrand_evals", "harness.bytes_written")
MIB = 1024.0 * 1024.0


class Tracer:
    """Records spans in memory; a forked worker appends its spans to a spool file."""

    def __init__(self, spool_dir: str):
        self.owner = self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.events: list[dict] = []
        self.stack: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _enter_process(self):
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid, self.events, self.stack = os.getpid(), [], []

    def wrap(self, name, fn, elements=None):
        signature = inspect.signature(fn) if elements else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter_process()
            count = elements(signature.bind(*args, **kwargs).arguments) if elements else 0
            parent = self.stack[-1] if self.stack else None
            self.stack.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.events.append({"name": name, "parent": parent, "t0": t0, "t1": t1,
                                    "elements": int(count)})
                if self.pid != self.owner and not self.stack:
                    self._spool()

        return traced

    def _spool(self):
        path = os.path.join(self.spool_dir, f"events-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(e) + "\n" for e in self.events)
        self.events = []

    def collect(self) -> list[dict]:
        """This process's spans plus every spooled worker span; clears both."""
        events, self.events = self.events, []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as fh:
                events.extend(json.loads(line) for line in fh)
            os.remove(path)
        return events

    def install(self, hooks):
        self.missing = []
        for owner, attr, name, elements in hooks:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self.patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, elements))

    def uninstall(self):
        for owner, attr, fn in reversed(self.patched):
            setattr(owner, attr, fn)
        self.patched = []


def layer_hooks(harness, solver, kernel):
    """(object, attribute, span name, element count from bound arguments)."""
    green = kernel.GreenKernel
    return [
        (harness, "sample_noise", "noise.field", lambda a: a["grid"].n * a["grid"].m),
        (harness, "solve_field_batch", "solver.field", None),
        (green, "evaluate", "kernel.evaluate", lambda a: np.broadcast(a["t"], a["x"], a["y"]).size),
        (green, "cross_integral", "kernel.cross_integral",
         lambda a: np.broadcast(a["t1"], a["t2"], a["x"]).size),
        (solver, "covariance_matrix", "solver.cov",
         lambda a: len(a["times"]) * (len(a["times"]) + 1) // 2),
        (harness, "ExactLinearSampler", "solver.sampler", None),
        (solver.ExactLinearSampler, "paths_array", "solver.paths", lambda a: a["replicates"]),
        (harness, "point_statistics", "stats.point", lambda a: np.size(a["paths"])),
        (harness, "covariance_linear", "solver.oracle", None),
    ]


def _busy(events, name, parent=None):
    return sum(e["t1"] - e["t0"] for e in events
               if e["name"] == name and (parent is None or e["parent"] == parent))


def _elements(events, name, parent=None):
    return sum(e["elements"] for e in events
               if e["name"] == name and (parent is None or e["parent"] == parent))


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def run_metrics(w, workers, events, t0, t1, out_dir) -> dict:
    """Per-layer metrics of one traced run_command spanning [t0, t1]."""
    n, m, R = w.n, w.m, w.replicates
    conv = w.backend == "convolution"
    stack_s = _busy(events, "kernel.evaluate", "solver.field")
    field_s = _busy(events, "solver.field")
    noise_s = _busy(events, "noise.field")
    cov_s = _busy(events, "solver.cov")
    factor_s = _busy(events, "solver.sampler") - cov_s
    paths_s = _busy(events, "solver.paths")
    point_s = _busy(events, "stats.point")
    cov_entries = _elements(events, "solver.cov")
    cov_evals = _elements(events, "kernel.cross_integral", "solver.cov")
    conv_flops = 2.0 * m * m * R * n * (n + 1) / 2 if conv else 0.0
    samplers = sum(1 for e in events if e["name"] == "solver.sampler")
    top = [e for e in events if e["name"] in LAYER_SPANS and e["parent"] in (None, "harness.run")]
    covered = _covered([(e["t0"], e["t1"]) for e in top], t0, t1)
    local_ends = [e["t1"] for e in top if e["parent"] == "harness.run"]
    chunks = [e for e in top if e["name"] in ("noise.field", "solver.field")]
    pool_wall = max((e["t1"] for e in chunks), default=t0) - t0
    total = t1 - t0
    return {
        "kernel.stack_s": stack_s,
        "kernel.stack_builds": _elements(events, "kernel.evaluate", "solver.field") / (n * m * m),
        "kernel.stack_mb": n * m * m * 8 / MIB if conv else 0.0,
        "noise.field_s": noise_s,
        "noise.draws_per_s": _rate(_elements(events, "noise.field"), noise_s),
        "solver.conv_s": field_s - stack_s,
        "solver.conv_flops": conv_flops,
        "solver.conv_gflops": _rate(conv_flops, field_s - stack_s) / 1e9,
        "solver.field_mb": (n + 1) * m * R * 8 / MIB if conv else 0.0,
        "solver.cov_s": cov_s,
        "solver.cov_entries": cov_entries,
        "solver.cov_integrand_evals": cov_evals,
        "solver.cov_evals_per_entry": _rate(cov_evals, cov_entries),
        "solver.factor_s": factor_s,
        "solver.factor_gflops": _rate(samplers * n**3 / 3.0, factor_s) / 1e9,
        "solver.paths_s": paths_s,
        "solver.paths_per_s": _rate(_elements(events, "solver.paths"), paths_s),
        "solver.oracle_s": _busy(events, "solver.oracle"),
        "stats.point_s": point_s,
        "stats.values_per_s": _rate(_elements(events, "stats.point"), point_s),
        "harness.traced_s": total,
        "harness.self_s": total - covered,
        "harness.pool_efficiency": _rate(_busy(chunks, "noise.field") + _busy(chunks, "solver.field"),
                                         workers * pool_wall),
        "harness.write_s": t1 - max(local_ends, default=t0),
        "harness.bytes_written": sum(os.path.getsize(os.path.join(out_dir, f))
                                     for f in os.listdir(out_dir) if f.endswith(".csv")),
        "trace.unattributed_frac": (total - covered) / total,
    }


def matmul_gflops(p: int, q: int, r: int, seconds: float = 0.5) -> float:
    """Median rate of a plain float64 (p x q) @ (q x r) product."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((p, q)), rng.standard_normal((q, r))
    a @ b
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < 5:
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * p * q * r / statistics.median(times) / 1e9


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    w = BY_NAME[spec["workload"]]
    w = w.toy() if spec["toy"] else w
    work = spec["work"]
    from skewheat import config, harness, kernel, solver

    load_times = []
    for _ in range(5):
        start = time.perf_counter()
        cfg = config.load_config(spec["config"])
        load_times.append(time.perf_counter() - start)

    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    tracer = Tracer(spool)
    untraced_s, runs = [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < spec["seconds"]:
        i = len(runs)
        t0 = time.perf_counter()
        harness.run_command(w.command, replace(cfg, out_dir=os.path.join(work, f"untraced{i}")))
        untraced_s.append(time.perf_counter() - t0)
        tracer.install(layer_hooks(harness, solver, kernel))
        out_dir = os.path.join(work, f"traced{i}")
        t0 = time.perf_counter()
        tracer.wrap("harness.run", harness.run_command)(w.command, replace(cfg, out_dir=out_dir))
        t1 = time.perf_counter()
        tracer.uninstall()
        runs.append(run_metrics(w, cfg.workers, tracer.collect(), t0, t1, out_dir))

    repeat_failures = [f"{k} reads {sorted({r[k] for r in runs})} across traced runs"
                       for k in EXACT_METRICS if len({r[k] for r in runs}) != 1]
    metrics = {k: float(statistics.median(r[k] for r in runs)) for k in runs[0]}
    run_s = statistics.median(untraced_s)
    shape = (w.m, w.m, w.chunk) if w.backend == "convolution" else (w.n, w.n, w.n)
    ref = matmul_gflops(*shape)
    metrics.update({
        "config.load_s": statistics.median(load_times),
        "harness.run_s": run_s,
        "ref.matmul_gflops": ref,
        "solver.conv_vs_matmul": metrics["solver.conv_gflops"] / ref,
        "trace.overhead_s": metrics.pop("harness.traced_s") - run_s,
    })
    result = {
        "metrics": metrics,
        "run_dirs": [f"{kind}{i}" for i in range(len(runs)) for kind in ("untraced", "traced")],
        "repeat_failures": repeat_failures,
        "missing_hooks": tracer.missing,
        "matmul_shape": shape,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
