"""skewheat benchmark: CLI workloads timed end to end, or one traced run per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

With --trace 0 each run is a fresh `python -m skewheat <command> --config
<generated>` child, repeated until S seconds have passed, with its wall
time, CPU time and peak RSS read from `os.wait4`; set-up time is the median
of fresh interpreters that import the CLI and load the config.  With
--trace 1 a child process runs the same work in-process (perfbench/traced.py)
with spans around each layer call.  Every run passes the correctness gate in
gate.py.  The report goes to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 1 when a gate fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

from gate import check_run, point_report, read_csvs
from workloads import BY_NAME, NO_CHANGE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
TRACED = os.path.join(ROOT, "perfbench", "traced.py")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # every invocation must end within 180 s

SETUP_CODE = "import sys, skewheat.cli; from skewheat.config import load_config; load_config(sys.argv[1])"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "config.load_s": "s",
    "kernel.stack_s": "s",
    "kernel.stack_builds": "count",
    "kernel.stack_mb": "MiB",
    "noise.field_s": "s",
    "noise.draws_per_s": "1/s",
    "solver.conv_s": "s",
    "solver.conv_flops": "flop",
    "solver.conv_gflops": "GFLOP/s",
    "solver.conv_vs_matmul": "ratio",
    "solver.field_mb": "MiB",
    "solver.cov_s": "s",
    "solver.cov_entries": "count",
    "solver.cov_integrand_evals": "count",
    "solver.cov_evals_per_entry": "ratio",
    "solver.factor_s": "s",
    "solver.factor_gflops": "GFLOP/s",
    "solver.paths_s": "s",
    "solver.paths_per_s": "1/s",
    "solver.oracle_s": "s",
    "stats.point_s": "s",
    "stats.values_per_s": "1/s",
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.write_s": "s",
    "harness.bytes_written": "byte",
    "ref.matmul_gflops": "GFLOP/s",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}


class Run:
    """One benchmark invocation of one workload: its scratch directory and limits."""

    def __init__(self, workload, seed: int, seconds: float, deadline: float, toy: bool = False):
        self.w = workload.toy() if toy else workload
        self.seed, self.seconds, self.deadline, self.toy = seed, seconds, deadline, toy
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(self.w.workers, self.nproc)
        self.blas = self.w.blas_per_worker or self.nproc
        self.work = ""
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.points: list[str] = []
        self.missing_hooks: list[str] = []
        self.matmul_shape: list[int] = []

    def __enter__(self):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{self.w.name}-", dir=WORK_ROOT)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def env(self) -> dict:
        """Child environment: this checkout's package, BLAS capped so that
        workers x BLAS threads never exceeds the core count."""
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.work)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.blas)
        return env

    def config(self, tag: str, workers: int) -> str:
        path = os.path.join(self.work, f"{tag}.ini")
        out = os.path.join(self.work, f"{tag}-out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.w.config_text(self.seed, out, workers))
        return path

    def spawn(self, argv: list[str], log_name: str):
        """Run a child to completion; returns (wall seconds, rusage, exit code, log tail)."""
        log_path = os.path.join(self.work, log_name)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env(), cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log_path, "rb") as fh:
            tail = fh.read()[-400:].decode(errors="replace").strip()
        return wall, usage, proc.returncode, tail

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.extend(f"{label}: {e}" for e in errors)

    def cli_run(self, cfg: str, label: str, reference: dict | None):
        """One CLI run through the gate; returns (wall, rusage, CSV bytes by name)."""
        out = cfg[:-len(".ini")] + "-out"
        shutil.rmtree(out, ignore_errors=True)
        wall, usage, code, tail = self.spawn(
            [sys.executable, "-m", "skewheat", self.w.command, "--config", cfg], f"{label}.log")
        csvs = read_csvs(out) if os.path.isdir(out) else {}
        errors = [f"exit code {code}: {tail}"] if code else []
        errors += check_run(self.w, out, csvs)
        if reference is not None and csvs != reference:
            errors.append("CSVs are not byte-identical to the first run of this seed")
        self.record(label, errors)
        return wall, usage, csvs

    def timed(self) -> dict:
        cfg = self.config("run", self.workers)
        samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
        for _ in range(1 if self.toy else SETUP_RUNS):
            wall, _, code, tail = self.spawn([sys.executable, "-c", SETUP_CODE, cfg], "setup.log")
            samples["setup_s"].append(wall)
            if code:
                self.record("setup", [f"exit code {code}: {tail}"])
        reference = None
        start = time.perf_counter()
        while not samples["wall_s"] or time.perf_counter() - start < self.seconds:
            wall, usage, csvs = self.cli_run(cfg, f"run{len(samples['wall_s'])}", reference)
            reference = csvs if reference is None else reference
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
            samples["peak_rss_mb"].append(usage.ru_maxrss / 1024.0)
        if self.workers > 1:
            self.cli_run(self.config("one-worker", 1), "workers=1", reference)
        self.points = point_report(self.w, reference) if reference else []
        return samples

    def traced(self) -> dict:
        cfg = self.config("trace", self.workers)
        trace_dir = os.path.join(self.work, "trace")
        os.makedirs(trace_dir)
        spec, result = os.path.join(self.work, "spec.json"), os.path.join(self.work, "result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.w.name, "toy": self.toy, "config": cfg,
                       "work": trace_dir, "seconds": self.seconds}, fh)
        _, _, code, tail = self.spawn([sys.executable, TRACED, spec, result], "traced.log")
        if code:
            self.record("traced run", [f"exit code {code}: {tail}"])
            return {}
        with open(result, encoding="utf-8") as fh:
            res = json.load(fh)
        first = os.path.join(trace_dir, res["run_dirs"][0])
        reference = read_csvs(first)
        self.record(res["run_dirs"][0], check_run(self.w, first, reference) + res["repeat_failures"])
        for name in res["run_dirs"][1:]:
            same = read_csvs(os.path.join(trace_dir, name)) == reference
            self.record(name, [] if same else ["CSVs differ from the first untraced run"])
        self.missing_hooks = res["missing_hooks"]
        self.matmul_shape = res["matmul_shape"]
        self.points = point_report(self.w, reference)
        return res["metrics"]


def machine_info(run: Run) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="utf-8") as fh:
            cpu_max = fh.read().strip()
    except OSError:
        cpu_max = "unavailable"
    return {
        "nproc": run.nproc,
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workers": run.workers,
        "blas_threads_per_worker": run.blas,
        "commit": git_commit(),
        "seed": run.seed,
    }


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_workload(w, seed: int, seconds: float, trace: bool, deadline: float,
                 toy: bool = False) -> tuple[Run, dict]:
    """Run one workload and print its report; returns the run and its metrics."""
    with Run(w, seed, seconds, deadline, toy) as run:
        print(f"== {run.w.name} (seed {seed}, trace {int(trace)}, n={run.w.n}, m={run.w.m}, "
              f"R={run.w.replicates})")
        print(f"   why: {run.w.why}")
        print(f"   roadmap: {run.w.roadmap}")
        print("   machine: " + json.dumps(machine_info(run)))
        if trace:
            layer = run.traced()
            metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items() if k in layer}
            for k, m in metrics.items():
                print(f"   {k:28s} {m['value']:>16.6g} {m['unit']}")
            if layer:
                print(f"   matmul reference shape (p, q, r): {run.matmul_shape}")
                if run.missing_hooks:
                    print(f"   layer calls not found (their metrics read 0): {run.missing_hooks}")
        else:
            samples = run.timed()
            metrics = {}
            print(f"   {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
            for k, unit in END_TO_END.items():
                q1, med, q3 = quartiles(samples[k])
                metrics[k] = {"value": med, "unit": unit}
                print(f"   {k:16s} {unit:6s} {med:12.6f} {q1:12.6f} {q3:12.6f}  {len(samples[k])}")
        print(f"   failed_fraction {run.failed / max(run.attempted, 1):.6f}"
              f" ({run.failed} of {run.attempted} runs)")
        for line in run.points:
            print(f"   {line}")
        for failure in run.failures:
            print(f"   FAILED {failure}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*BY_NAME, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skewheat", "__init__.py")):
        print(f"perfbench: no skewheat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (BY_NAME[args.workload],)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    attempted = failed = 0
    metrics = {}
    for w in chosen:
        run, m = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
        attempted += run.attempted
        failed += run.failed
        prefix = "" if len(chosen) == 1 else f"{w.name}/"
        metrics.update({prefix + k: v for k, v in m.items()})
    if len(chosen) > 1:
        print("predicted no-change pairings: " + json.dumps(NO_CHANGE))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
