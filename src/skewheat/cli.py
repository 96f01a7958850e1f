"""Command-line entry point.

Exit codes: 0 on success, 1 when a check or experiment gate fails, a
solver stage fails or numpy refuses an allocation (one-line "solver
failure" message), 2 on configuration errors, among them an out path that
cannot be a writable directory and a convolution-backend observation point
outside [-L, L], both found before any work runs.  A convolution run on a
grid with dx above sqrt(min(a1, a2)*dt/4) prints one warning line on stderr
and keeps its exit code, and so does a run with result values that are inf
or NaN (moments past the range of a double): that line gives their count.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config, with_overrides, ConfigError, BACKENDS, COMMANDS
from .harness import run_command, resolution_warning, nonfinite_warning
from .solver import SolverError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewheat",
        description=(
            "Simulation and quartic-variation inference for the stochastic heat "
            "equation over a two-material medium."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "kernel-selftest": "run the kernel closed-form, bound and residual check suites",
        "simulate": "simulate the field and write per-point path CSVs",
        "quartic": "quartic variation, limit functional and estimator per point",
        "convergence": "sweep n (and optionally averaged-point counts) and fit error slopes",
        "estimate": "diffusivity estimator distribution summary per point",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", required=True, help="path to the INI config file")
        p.add_argument("--seed", type=int, help="override [experiment] seed")
        p.add_argument("--replicates", type=int, help="override [experiment] replicates")
        p.add_argument("--workers", type=int, help="override [experiment] workers")
        p.add_argument("--out", help="override [experiment] out directory")
        p.add_argument("--backend", choices=list(BACKENDS), help="override [experiment] backend")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(
            cfg,
            seed=args.seed,
            replicates=args.replicates,
            workers=args.workers,
            out_dir=args.out,
            backend=args.backend,
        )
        summary = run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, MemoryError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    for warning in (resolution_warning(cfg, summary["convolution"]),
                    nonfinite_warning(cfg, summary["rows"])):
        if warning:
            print(warning, file=sys.stderr)
    if not summary["ok"]:
        print(f"{args.command}: checks failed (see {cfg.out_dir})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
