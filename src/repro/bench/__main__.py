"""Command-line entry point: ``python -m repro.bench <experiment> [options]``.

Runs one (or all) of the experiment drivers and prints the resulting table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.harness import ExperimentScale
from repro.bench.report import render_table

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures at a chosen scale.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment to run (paper table/figure id) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "paper"],
        default="small",
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--queries", type=int, default=None, help="override the number of queries per workload"
    )
    parser.add_argument(
        "--datasets", type=str, default=None,
        help="comma-separated dataset codes to use (default: preset's datasets)",
    )
    return parser


def _resolve_scale(args: argparse.Namespace) -> ExperimentScale:
    presets = {
        "tiny": ExperimentScale.tiny,
        "small": ExperimentScale.small,
        "paper": ExperimentScale.paper,
    }
    scale = presets[args.scale]()
    overrides = {}
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.datasets:
        overrides["datasets"] = tuple(code.strip() for code in args.datasets.split(","))
    if overrides:
        from dataclasses import replace

        scale = replace(scale, **overrides)
    return scale


def main(argv: Optional[List[str]] = None) -> int:
    """Run the requested experiment(s) and print their tables."""
    args = _build_parser().parse_args(argv)
    scale = _resolve_scale(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        rows = run_experiment(name, scale)
        print(render_table(rows, title=f"== {name} =="))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
