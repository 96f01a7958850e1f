"""Correctness gate applied to the output directory of every benchmark run."""

from __future__ import annotations

import csv
import json
import math
import os

HEADER = "experiment,backend,n,m,x,R,statistic,value,std_error,target,rel_error,seconds"

EXPECTED_STATS = {
    "quartic": ("v_quartic", "limit_functional", "mean_abs_error", "A_hat_mean", "incr_m2",
                "incr_m4", "incr_ratio4", "incr_ratio6", "degenerate_count"),
    "simulate": ("mean_u_T", "variance_u_T"),
}


def read_csvs(out_dir: str) -> dict[str, bytes]:
    """Every CSV the run wrote, by file name: these must be byte-stable."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                found[name] = fh.read()
    return found


def result_rows(text: str) -> list[dict]:
    """Rows of a results CSV; raises ValueError if the header is not the fixed one."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        raise ValueError(f"results header is {lines[:1]!r}, expected {HEADER!r}")
    return list(csv.DictReader(lines))


def point_groups(rows: list[dict]) -> list[list[dict]]:
    """Rows grouped by observation point, in the order the points were requested."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["x"], []).append(row)
    return list(groups.values())


def check_run(workload, out_dir: str, csvs: dict[str, bytes]) -> list[str]:
    """Failures of one run's outputs (empty when the run is correct)."""
    failures = []
    summary_path = os.path.join(out_dir, f"{workload.command}_summary.json")
    try:
        with open(summary_path, encoding="utf-8") as fh:
            if json.load(fh).get("ok") is not True:
                failures.append("summary does not say ok: true")
    except (OSError, ValueError) as exc:
        failures.append(f"summary unreadable: {exc}")
    results = csvs.get(f"{workload.command}.csv")
    if results is None:
        return failures + ["results CSV missing"]
    try:
        groups = point_groups(result_rows(results.decode()))
    except ValueError as exc:
        return failures + [str(exc)]
    if len(groups) != len(workload.points):
        return failures + [f"{len(groups)} observation points in the CSV, "
                           f"expected {len(workload.points)}"]
    for x_req, group in zip(workload.points, groups):
        by_stat = {row["statistic"]: row for row in group}
        for stat in EXPECTED_STATS[workload.command]:
            row = by_stat.get(stat)
            if row is None or not math.isfinite(float(row["value"])):
                failures.append(f"x={x_req}: {stat} missing or not finite")
        row = by_stat.get(workload.gated_stat)
        if x_req == 0.0 or row is None:
            continue  # the interface point is reported, not gated
        value, se, target = (float(row[k]) for k in ("value", "std_error", "target"))
        allowed = 4.0 * se + workload.bias_allowance * abs(target)
        if not abs(value - target) <= allowed:
            failures.append(f"x={x_req}: {workload.gated_stat}={value:.6g} is "
                            f"{abs(value - target):.3g} from {target:.6g} (allowed {allowed:.3g})")
    return failures


def point_report(workload, csvs: dict[str, bytes]) -> list[str]:
    """The gated statistic against its target at each point; every rel_error
    row at the x = 0 point, which is reported but not gated."""
    try:
        groups = point_groups(result_rows(csvs[f"{workload.command}.csv"].decode()))
    except (KeyError, ValueError):  # outputs the gate already rejected
        return []
    lines = []
    for x_req, group in zip(workload.points, groups):
        for row in group:
            if x_req == 0.0 and row["rel_error"] != "nan":
                lines.append(f"x={row['x']} (interface, not gated): {row['statistic']} "
                             f"rel_error={row['rel_error']}")
            elif x_req != 0.0 and row["statistic"] == workload.gated_stat:
                lines.append(f"x={row['x']} (gated): {row['statistic']}={row['value']} "
                             f"target={row['target']} rel_error={row['rel_error']}")
    return lines
