"""``python -m repro.service`` — serve a JSONL query workload from the CLI.

Load a graph (a Table 2 synthetic proxy or an edge-list file), read
``<s, t, k>`` queries from a file or stdin (JSON objects or ``s t k``
triples, one per line), answer them through :class:`SPGEngine`, and emit
one JSON result per line in input order.

Examples
--------
Serve three queries against the ``tw`` proxy::

    printf '0 5 4\\n{"source": 2, "target": 9, "k": 3}\\n0 5 4\\n' \\
        | python -m repro.service --dataset tw --scale 0.1

Serve a workload file against your own edge list, with stats::

    python -m repro.service --edges graph.txt --queries workload.jsonl --stats

With ``--edges``, query endpoints are the file's own vertex labels; with
``--dataset``, they are the proxy's dense integer ids.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.distances import DISTANCE_STRATEGIES
from repro.datasets.registry import dataset_names, load_dataset
from repro.exceptions import ReproError
from repro.graph.io import load_graph
from repro.service.engine import EngineConfig, QueryOutcome, SPGEngine
from repro.service.executor import EXECUTOR_BACKENDS
from repro.service.workload_io import read_queries, translate_queries, write_outcome
from repro.telemetry import Tracer

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Answer a batch of <s, t, k> SPG queries as JSON lines.",
    )
    graph_source = parser.add_mutually_exclusive_group(required=True)
    graph_source.add_argument(
        "--dataset",
        choices=dataset_names(),
        help="serve a Table 2 synthetic proxy (dense integer vertex ids)",
    )
    graph_source.add_argument(
        "--edges",
        metavar="PATH",
        help="serve an edge-list file (queries use the file's vertex labels)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="proxy scale factor (with --dataset)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="proxy generator seed (with --dataset)"
    )
    parser.add_argument(
        "--queries",
        default="-",
        metavar="PATH",
        help="JSONL query file, or '-' for stdin (default)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="most query groups the backend runs at once (default: available CPUs)",
    )
    parser.add_argument(
        "--backend",
        choices=EXECUTOR_BACKENDS,
        default=None,
        help=(
            "executor backend for the batch (default: $REPRO_EXECUTOR_BACKEND "
            "or 'serial'; 'process' runs CPU-bound queries on multiple cores)"
        ),
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024, help="LRU entries (0 disables caching)"
    )
    parser.add_argument(
        "--min-group-size",
        type=int,
        default=2,
        help="smallest (target, k) group that shares a backward pass",
    )
    parser.add_argument(
        "--strategy",
        "--distance-strategy",
        dest="strategy",
        choices=DISTANCE_STRATEGIES,
        default="adaptive",
        help=(
            "distance-search strategy for served queries (the Figure 11 "
            "ablation axis); shared-target groups still reuse one backward pass"
        ),
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the verification phase (upper bound only; exact for k <= 4)",
    )
    parser.add_argument(
        "--no-edges",
        action="store_true",
        help="omit edge lists from the output (metadata only)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print an engine stats JSON object to stderr when done",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write the engine's metrics as Prometheus text-format 0.0.4 "
            "exposition to PATH when done ('-' for stderr)"
        ),
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help=(
            "enable phase-level tracing and write the collected spans as "
            "JSON lines to PATH when done ('-' for stderr)"
        ),
    )
    return parser


def _load_graph(args: argparse.Namespace):
    """Return ``(graph, builder-or-None)`` for the selected graph source."""
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed), None
    return load_graph(args.edges)


def _export_telemetry(args: argparse.Namespace, engine: SPGEngine) -> None:
    """Write ``--stats`` / ``--metrics-out`` / ``--trace-out`` outputs.

    Called from a ``finally`` around the serving block: an exception inside
    ``engine.run_batch`` must not lose the telemetry collected up to the
    failure — that is exactly when it is most needed.
    """
    if args.stats:
        print(json.dumps(engine.stats_snapshot()), file=sys.stderr)
    if args.metrics_out is not None:
        exposition = engine.stats.to_prometheus()
        if args.metrics_out == "-":
            sys.stderr.write(exposition)
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(exposition)
    if args.trace_out is not None and engine.tracer is not None:
        if args.trace_out == "-":
            engine.tracer.export_jsonl(sys.stderr)
        else:
            engine.tracer.export_jsonl(args.trace_out)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        graph, builder = _load_graph(args)
    except (ReproError, OSError) as exc:
        print(f"error: could not load graph: {exc}", file=sys.stderr)
        return 2

    try:
        if args.queries == "-":
            raw_queries = read_queries(sys.stdin)
        else:
            with open(args.queries, "r", encoding="utf-8") as handle:
                raw_queries = read_queries(handle)
    except (ReproError, OSError) as exc:
        print(f"error: could not read queries: {exc}", file=sys.stderr)
        return 2

    try:
        config = EngineConfig(
            strategy=args.strategy,
            verify=not args.no_verify,
            cache_size=args.cache_size,
            max_workers=args.workers,
            min_group_size=args.min_group_size,
            executor_backend=args.backend,
        )
        engine = SPGEngine.from_config(graph, config)
    except (ReproError, ValueError) as exc:
        print(f"error: invalid engine configuration: {exc}", file=sys.stderr)
        return 2
    if args.trace_out is not None:
        engine.tracer = Tracer()

    translated, failed = translate_queries(raw_queries, builder)
    try:
        with engine:
            report = engine.run_batch(translated)

        # Interleave engine outcomes with translation failures in input
        # order.  Engine outcomes use dense ids; map them back to the edge
        # file's own labels when one was loaded.  Translation failures
        # already carry the raw labels, so they are written without
        # relabelling.
        failures = {index: message for index, message in failed}
        served = iter(report.outcomes)
        include_edges = not args.no_edges
        relabel = builder.vertex_label if builder is not None else None
        for index, (raw_source, raw_target, k) in enumerate(raw_queries):
            if index in failures:
                outcome = QueryOutcome(
                    source=raw_source, target=raw_target, k=k, error=failures[index]
                )
                write_outcome(sys.stdout, outcome, include_edges=include_edges)
            else:
                outcome = next(served)
                write_outcome(
                    sys.stdout, outcome, include_edges=include_edges, relabel=relabel
                )
    finally:
        _export_telemetry(args, engine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
