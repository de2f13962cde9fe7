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

from repro.exceptions import ReproError
from repro.service.engine import QueryOutcome, SPGEngine
from repro.service.workload_io import (
    add_engine_arguments,
    engine_config_from_args,
    load_graph_from_args,
    read_queries,
    translate_queries,
    write_outcome,
)
from repro.telemetry import Tracer

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Answer a batch of <s, t, k> SPG queries as JSON lines.",
    )
    add_engine_arguments(parser)
    parser.add_argument(
        "--queries",
        default="-",
        metavar="PATH",
        help="JSONL query file, or '-' for stdin (default)",
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
        graph, builder = load_graph_from_args(args)
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
        engine = SPGEngine.from_config(graph, engine_config_from_args(args))
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
