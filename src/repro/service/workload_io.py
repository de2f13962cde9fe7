"""The service CLIs' shared flags, workload parsing and result serialisation.

``python -m repro.service`` and ``python -m repro.service.http`` declare
their graph-source and engine flags through :func:`add_engine_arguments`,
load the graph with :func:`load_graph_from_args` and build their
:class:`~repro.service.engine.EngineConfig` with
:func:`engine_config_from_args`.

Input format (one query per line, blank lines and ``#`` comments skipped):

* a JSON object: ``{"source": 0, "target": 7, "k": 4}``
* or three whitespace-separated fields: ``0 7 4``

Output format: one JSON object per query, in input order, carrying the
answer edge set plus per-query serving metadata (cached, latency, error).
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.core.distances import DISTANCE_STRATEGIES
from repro.datasets.registry import dataset_names, load_dataset
from repro.exceptions import QueryError, ReproError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import DiGraph
from repro.graph.io import load_graph
from repro.service.engine import EngineConfig, coerce_query_field
from repro.service.executor import EXECUTOR_BACKENDS

__all__ = [
    "add_engine_arguments",
    "load_graph_from_args",
    "engine_config_from_args",
    "parse_query_line",
    "iter_query_lines",
    "read_queries",
    "coerce_vertex_id",
    "translate_queries",
    "outcome_record",
    "write_outcome",
]

RawQuery = Tuple[object, object, int]


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the graph-source and engine flags both service CLIs take."""
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
            "executor backend (default: $REPRO_EXECUTOR_BACKEND or 'serial'; "
            "'process' runs CPU-bound queries on multiple cores)"
        ),
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024, help="LRU entries (0 disables caching)"
    )
    parser.add_argument(
        "--strategy",
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


def load_graph_from_args(
    args: argparse.Namespace,
) -> Tuple[DiGraph, Optional[GraphBuilder]]:
    """Return ``(graph, builder-or-None)`` for the selected graph source."""
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed), None
    return load_graph(args.edges)


def engine_config_from_args(args: argparse.Namespace) -> EngineConfig:
    """Build the engine configuration the shared flags select."""
    return EngineConfig(
        strategy=args.strategy,
        verify=not args.no_verify,
        cache_size=args.cache_size,
        max_workers=args.workers,
        executor_backend=args.backend,
    )


def parse_query_line(line: str) -> RawQuery:
    """Parse one query line into a ``(source, target, k)`` triple.

    Source and target are returned unconverted (the CLI may still need to
    map labels through a :class:`~repro.graph.builder.GraphBuilder`); ``k``
    is coerced to ``int`` here because it is never a label, by the strict
    rule of :func:`~repro.service.engine.coerce_query_field`: a line whose
    ``k`` is a boolean or a non-integral number is rejected, not rounded.
    """
    text = line.strip()
    if text.startswith("{"):
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QueryError(f"malformed JSON query line: {text!r}") from exc
        try:
            source, target, k = record["source"], record["target"], record["k"]
        except KeyError as exc:
            raise QueryError(
                f"JSON query needs source/target/k fields: {text!r}"
            ) from exc
    else:
        fields = text.split()
        if len(fields) != 3:
            raise QueryError(
                f"query line needs 3 whitespace-separated fields or a JSON object: {text!r}"
            )
        source, target, k = fields
    try:
        return (source, target, coerce_query_field(k, "hop constraint k"))
    except QueryError as exc:
        raise QueryError(f"{exc}: {text!r}") from exc


def iter_query_lines(lines: Iterable[str]) -> Iterator[RawQuery]:
    """Yield parsed queries, skipping blank lines and ``#`` comments."""
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        yield parse_query_line(text)


def read_queries(handle: TextIO) -> List[RawQuery]:
    """Read every query from an open text stream."""
    return list(iter_query_lines(handle))


def coerce_vertex_id(value: object, builder: Optional[GraphBuilder] = None) -> int:
    """Map one raw endpoint, of a query or of a ``/mutate`` edge, to a vertex id.

    With a :class:`~repro.graph.builder.GraphBuilder` (an edge-list graph)
    the endpoint is one of the file's own labels, looked up as text, so
    ``0`` and ``"0"`` name the same vertex.  Without one it must be a dense
    id under :func:`~repro.service.engine.coerce_query_field`'s strict rule:
    ``5``, ``5.0`` and ``"5"`` are vertex 5, while ``True`` and ``2.9`` are
    rejected.  Raises a :class:`~repro.exceptions.ReproError`.
    """
    if builder is not None:
        return builder.vertex_id(str(value))
    return coerce_query_field(value, "vertex id")


def translate_queries(
    raw_queries: Iterable[RawQuery], builder=None
) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, str]]]:
    """Map raw query endpoints to dense vertex ids.

    Each endpoint goes through :func:`coerce_vertex_id` with ``builder``.
    Returns ``(good queries, per-index translation errors)`` so a query
    with an unknown label or a non-integral endpoint fails alone, like any
    other bad query.
    """
    good: List[Tuple[int, int, int]] = []
    failed: List[Tuple[int, str]] = []
    for index, (source, target, k) in enumerate(raw_queries):
        try:
            mapped = (coerce_vertex_id(source, builder), coerce_vertex_id(target, builder), k)
        except ReproError as exc:
            failed.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        good.append(mapped)
    return good, failed


def outcome_record(
    outcome,
    include_edges: bool = True,
    relabel: Optional[Callable[[int], object]] = None,
) -> Dict[str, object]:
    """Serialise one :class:`~repro.service.engine.QueryOutcome` to a dict.

    ``relabel`` optionally maps dense vertex ids back to the caller's own
    labels (e.g. :meth:`repro.graph.builder.GraphBuilder.vertex_label`);
    it is applied to the endpoints and every reported edge, and the edges
    are sorted by those labels.  Without it the answer's stored pairs are
    written as they are, already sorted, and ``num_edges`` is read from the
    buffer length: no edge set is built per response.
    """
    name = relabel if relabel is not None else (lambda vertex: vertex)
    record: Dict[str, object] = {
        "source": name(outcome.source),
        "target": name(outcome.target),
        "k": outcome.k,
        "ok": outcome.ok,
        "cached": outcome.cached,
        "reused_backward": outcome.reused_backward,
        "latency_ms": round(outcome.latency_seconds * 1000.0, 3),
    }
    if outcome.ok:
        answer = outcome.result
        record["num_edges"] = answer.num_edges
        record["exact"] = answer.exact
        if include_edges:
            pairs = answer.edge_pairs
            record["edges"] = (
                pairs if relabel is None else sorted((name(u), name(v)) for u, v in pairs)
            )
    else:
        record["error"] = outcome.error
    return record


def write_outcome(
    handle: TextIO,
    outcome,
    include_edges: bool = True,
    relabel: Optional[Callable[[int], object]] = None,
) -> None:
    """Write one outcome as a JSON line."""
    handle.write(
        json.dumps(
            outcome_record(outcome, include_edges=include_edges, relabel=relabel)
        )
    )
    handle.write("\n")
