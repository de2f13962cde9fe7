"""Repository benchmark: three workloads, end-to-end and per-layer numbers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lib-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Each metric is printed as one
``name value unit`` line; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Any answer that
differs from its oracle makes ``correct`` false and the exit status 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Workload names and metric name -> unit, from the benchmark's definition.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in _DEFINITION["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in _DEFINITION["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in _DEFINITION["per_layer"]}

# The deterministic counter block: count-type metrics that repeat exactly
# for one seed (they are folded over fixed, seeded query prefixes).
COUNTERS = (
    "distances.explored_vertices",
    "essential.reached",
    "essential.entries",
    "labeling.labeled_edges",
    "labeling.undetermined_edges",
    "verification.expansions",
    "verification.edges_checked",
    "planner.groups",
    "planner.shared_groups",
    "planner.reused_backward_passes",
    "cache.hits",
)


def _import_program():
    """Put the checkout's ``src`` on the path; fail cleanly without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import library
    import http_mixed

    runners = {
        "lib-sparse": library.lib_sparse,
        "batch-dense": library.batch_dense,
        "http-mixed": http_mixed.http_mixed,
    }
    return runners, http_mixed.InvalidRun


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    runners, invalid_run = _import_program()
    try:
        outcome = runners[workload](seed, seconds, trace)
    except invalid_run as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3
    catalog = PER_LAYER if trace else END_TO_END
    measured = outcome.per_layer if trace else outcome.end_to_end
    unknown = set(measured) - set(catalog)
    if unknown:
        raise RuntimeError(f"metrics missing from the catalog: {sorted(unknown)}")
    metrics = {}
    for name, unit in catalog.items():
        value = float(measured.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{workload} {name} {value:.6g} {unit}")
    if trace:
        block = {name: measured.get(name, 0) for name in COUNTERS}
        print(f"{workload} counters {json.dumps(block, sort_keys=True)}")
    for mismatch in outcome.mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)
    correct = not outcome.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
