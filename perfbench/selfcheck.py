"""Fast self-check of the benchmark: every workload at toy size, both modes.

Usage (from the repository root): python3 perfbench/selfcheck.py

Each workload runs once through the timed CLI path and once through the
traced path, with the correctness gate on.  The check fails if a run fails
its gate or if a metric is missing, not finite, or not what BENCHMARK.json
declares, so a broken metric path shows in seconds rather than after a
full benchmark run.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

from run import END_TO_END, PER_LAYER, ROOT, SRC, run_workload
from workloads import WORKLOADS


def declared() -> tuple[list, dict, dict]:
    """Workload names and metric units that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "skewheat")):
        print(f"selfcheck: no skewheat sources under {SRC}", file=sys.stderr)
        return 2
    names, end_to_end, per_layer = declared()
    problems = []
    if names != [w.name for w in WORKLOADS]:
        problems.append(f"BENCHMARK.json workloads {names} differ from workloads.py")
    if end_to_end != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {end_to_end} != run.py {END_TO_END}")
    if per_layer != PER_LAYER:
        problems.append(f"BENCHMARK.json per_layer differs from run.py: "
                        f"{sorted(set(per_layer) ^ set(PER_LAYER))}")
    started = time.perf_counter()
    for w in WORKLOADS:
        for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
            run, metrics = run_workload(w, seed=1, seconds=0, trace=trace,
                                        deadline=time.monotonic() + 120, toy=True)
            label = f"{w.name} trace={int(trace)}"
            if run.failed or not run.attempted:
                problems.append(f"{label}: {run.failed} of {run.attempted} runs failed")
            for name, unit in expected.items():
                got = metrics.get(name)
                if got is None or got["unit"] != unit or not math.isfinite(got["value"]):
                    problems.append(f"{label}: metric {name} is {got}")
    for p in problems:
        print(f"SELFCHECK FAILED {p}")
    print(f"selfcheck: {'FAIL' if problems else 'ok'} in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
