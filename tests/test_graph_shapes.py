"""Every layer that serves a graph, on the graph shapes that break boundary logic.

The eight shapes below — dense and sparse random graphs, a power-law graph
with hubs, a path, an outward star, and the degenerate edgeless,
single-vertex and zero-vertex graphs — are run through each layer between
a graph and an answer:

1. **Graph structure** (:class:`~repro.graph.digraph.DiGraph`): the CSR
   pairs mirror the neighbour accessors, every edge appears once in each
   direction, the fingerprint is a function of the vertex count and edge
   set only, and pickling, ``copy`` and ``reverse`` preserve all of it.
2. **The shared backward pass**
   (:func:`~repro.core.distances.backward_distance_map`) equals a naive
   reverse BFS for every target, rejects bad targets and budgets, and a
   query fed the shared map answers like a cold one.
3. **Shared-memory graphs** (:mod:`repro.graph.shm`): a graph attached to
   a segment of each shape reads its CSR pairs from the block, is the same
   graph, answers and rejects queries identically, and its segment is
   unlinked exactly once.
4. **Delta overlays** (:mod:`repro.graph.delta`): an overlay equals a
   from-scratch rebuild of the mutated edge list, and an overlay of a
   graph attached to a shared-memory segment equals the owned graph's.
5. **The engine** (:class:`~repro.service.SPGEngine`) on every executor
   backend: batches, cache revisits, streams, async batches, single
   queries, graph swaps and deltas answer exactly like cold
   :func:`~repro.build_spg` calls, and a query ``build_spg`` rejects comes
   back as an errored outcome carrying the same exception text.
6. **Overlapping callers** on one engine: batches, streams, async batches
   and single queries from several threads at once, and batches that
   overlap graph swaps and deltas, still answer like cold ``build_spg``
   calls on the one graph each call read, with consistent stats and cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import pickle
import random
import sys
import threading
from array import array
from collections import Counter, deque

import pytest

from test_executor_backends import (
    canonical_outcome,
    canonical_report,
    kernel_records,
    stream_outcomes,
)
from test_shared_memory import buffer_types

from repro import DiGraph, SPGEngine, build_spg
from repro.core.distances import backward_distance_map
from repro.core.eve import EVE
from repro.exceptions import EdgeError, QueryError, VertexError
from repro.graph import GraphDelta, apply_delta
from repro.graph.generators import erdos_renyi, path_graph, power_law_cluster, star_graph
from repro.graph.shm import (
    SharedGraphSegment,
    attach_shared_graph,
    shared_memory_available,
)
from repro.service import EXECUTOR_BACKENDS
from repro.service import engine as engine_module

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

GRAPH_CASES = [
    ("er-dense", lambda: erdos_renyi(26, 2.5, seed=1)),
    ("er-sparse", lambda: erdos_renyi(31, 1.2, seed=5)),
    ("power-law", lambda: power_law_cluster(30, 2, seed=2)),
    ("path", lambda: path_graph(9)),
    ("star", lambda: star_graph(8)),
    ("edgeless", lambda: DiGraph.empty(5)),
    ("single-vertex", lambda: DiGraph.empty(1)),
    ("zero-vertex", lambda: DiGraph.empty(0)),
]

#: The shapes with at least two vertices, i.e. with some (s, t) pair to ask.
PAIR_CASES = GRAPH_CASES[:6]


@pytest.fixture(params=GRAPH_CASES, ids=[case[0] for case in GRAPH_CASES])
def graph(request) -> DiGraph:
    return request.param[1]()


@pytest.fixture(params=PAIR_CASES, ids=[case[0] for case in PAIR_CASES])
def pair_graph(request) -> DiGraph:
    return request.param[1]()


@pytest.fixture(params=EXECUTOR_BACKENDS)
def backend(request) -> str:
    return request.param


requires_shared_memory = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def naive_distances_to(graph: DiGraph, target: int, k: int) -> dict:
    """Hop distance to ``target`` of every vertex within ``k`` hops.

    Built from the edge set alone, so it shares no code with the CSR
    kernels it checks.
    """
    predecessors: dict = {}
    for u, v in graph.edge_set():
        predecessors.setdefault(v, []).append(u)
    distances = {target: 0}
    frontier = deque([target])
    while frontier:
        vertex = frontier.popleft()
        if distances[vertex] == k:
            continue
        for predecessor in predecessors.get(vertex, ()):
            if predecessor not in distances:
                distances[predecessor] = distances[vertex] + 1
                frontier.append(predecessor)
    return distances


def shape_queries(graph: DiGraph, seed: int = 0) -> list:
    """Valid and invalid ``(s, t, k)`` triples for ``graph``.

    Sampled pairs at several budgets, a shared-target group, in-batch
    duplicates, and the queries every shape must reject: ``s == t``, an
    out-of-range source and target, and ``k = 0``.
    """
    rng = random.Random(seed)
    n = graph.num_vertices
    queries: list = []
    if n >= 2:
        for _ in range(16):
            source, target = rng.sample(range(n), 2)
            queries.append((source, target, rng.choice((1, 2, 3, 4, 5))))
        hub = rng.randrange(n)
        queries.extend([(source, hub, 3) for source in range(n) if source != hub][:5])
        queries.extend(queries[:3])
    queries.append((0, 0, 3))
    queries.append((n, 0, 3))
    queries.append((0, n, 3))
    queries.append((0, 1, 0))
    return queries


def expected_outcome(graph: DiGraph, query: tuple) -> tuple:
    """``("ok", edges)`` of a cold ``build_spg``, or the error text the engine reports."""
    try:
        result = build_spg(graph, *query)
    except Exception as exc:  # noqa: BLE001 - the oracle records any failure
        return ("error", f"{type(exc).__name__}: {exc}")
    return ("ok", result.edges)


def observed_outcome(outcome) -> tuple:
    if outcome.ok:
        return ("ok", outcome.edges)
    return ("error", outcome.error)


def assert_matches_cold_queries(graph: DiGraph, queries: list, outcomes) -> None:
    outcomes = list(outcomes)
    assert len(outcomes) == len(queries)
    for query, outcome in zip(queries, outcomes):
        assert (outcome.source, outcome.target, outcome.k) == query
        assert observed_outcome(outcome) == expected_outcome(graph, query), query


def random_shape_delta(graph: DiGraph, seed: int) -> GraphDelta:
    """Fresh edges in and existing edges out (at least one of each when possible)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    existing = sorted(graph.edge_set())
    deletes = rng.sample(existing, min(len(existing), 3))
    absent = [
        (u, v) for u in range(n) for v in range(n)
        if u != v and (u, v) not in graph.edge_set()
    ]
    inserts = rng.sample(absent, min(len(absent), 4))
    return GraphDelta(inserts=inserts, deletes=deletes)


def make_engine(graph: DiGraph, backend_name: str, **kwargs) -> SPGEngine:
    kwargs.setdefault("max_workers", 2)
    return SPGEngine(graph, executor_backend=backend_name, **kwargs)


# ----------------------------------------------------------------------
# 1. Graph structure
# ----------------------------------------------------------------------
class TestGraphStructure:
    def test_csr_mirrors_adjacency(self, graph):
        n, m = graph.num_vertices, graph.num_edges
        for (offsets, targets), neighbors in (
            (graph.csr(), graph.out_neighbors),
            (graph.csr_reverse(), graph.in_neighbors),
        ):
            assert len(offsets) == n + 1
            assert offsets[0] == 0 and offsets[n] == m == len(targets)
            assert all(offsets[u] <= offsets[u + 1] for u in range(n))
            for u in graph.vertices():
                assert list(targets[offsets[u]:offsets[u + 1]]) == list(neighbors(u))

    def test_every_edge_once_in_each_direction(self, graph):
        offsets, targets = graph.csr()
        forward = Counter(
            (u, v) for u in graph.vertices() for v in targets[offsets[u]:offsets[u + 1]]
        )
        offsets, sources = graph.csr_reverse()
        backward = Counter(
            (u, v) for v in graph.vertices() for u in sources[offsets[v]:offsets[v + 1]]
        )
        assert forward == backward
        assert set(forward.values()) <= {1}
        assert set(forward) == graph.edge_set() == set(graph.edges())
        assert len(forward) == graph.num_edges

    def test_degrees_agree_with_edge_set(self, graph):
        edges = graph.edge_set()
        for u in graph.vertices():
            out_degree = sum(1 for (a, _) in edges if a == u)
            in_degree = sum(1 for (_, b) in edges if b == u)
            assert graph.out_degree(u) == out_degree
            assert graph.in_degree(u) == in_degree
            assert graph.degree(u) == out_degree + in_degree
        expected_max = max(
            (max(graph.out_degree(u), graph.in_degree(u)) for u in graph.vertices()),
            default=0,
        )
        assert graph.max_degree() == expected_max
        n = graph.num_vertices
        assert graph.average_degree() == (graph.num_edges / n if n else 0.0)

    def test_fingerprint_ignores_edge_order_and_name(self, graph):
        edges = graph.to_edge_list()
        random.Random(7).shuffle(edges)
        rebuilt = DiGraph(graph.num_vertices, edges, name="rebuilt")
        assert rebuilt == graph
        assert rebuilt.fingerprint() == graph.fingerprint()
        assert graph.fingerprint() == graph.fingerprint()

    def test_fingerprint_tracks_vertex_count_and_edges(self, graph):
        n = graph.num_vertices
        edges = graph.to_edge_list()
        fingerprints = {graph.fingerprint(), DiGraph(n + 1, edges).fingerprint()}
        if edges:
            fingerprints.add(DiGraph(n, edges[1:]).fingerprint())
        missing = next(
            ((u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in graph),
            None,
        )
        if missing is not None:
            fingerprints.add(DiGraph(n, edges + [missing]).fingerprint())
        expected = 2 + bool(edges) + (missing is not None)
        assert len(fingerprints) == expected

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pickle_round_trip(self, graph, warm):
        if warm:
            graph.csr(), graph.csr_reverse(), graph.fingerprint()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.fingerprint() == graph.fingerprint()
        assert [list(part) for part in clone.csr()] == [list(part) for part in graph.csr()]
        assert [list(part) for part in clone.csr_reverse()] == [
            list(part) for part in graph.csr_reverse()
        ]
        for u in graph.vertices():
            assert list(clone.out_neighbors(u)) == list(graph.out_neighbors(u))
            assert list(clone.in_neighbors(u)) == list(graph.in_neighbors(u))

    def test_reverse_swaps_csr_and_round_trips(self, graph):
        reverse = graph.reverse()
        flipped = {(v, u) for (u, v) in graph.edge_set()}
        assert reverse.edge_set() == flipped
        assert reverse.fingerprint() == DiGraph(graph.num_vertices, flipped).fingerprint()
        assert [list(part) for part in reverse.csr()] == [
            list(part) for part in graph.csr_reverse()
        ]
        twice = reverse.reverse()
        assert twice == graph and twice.fingerprint() == graph.fingerprint()

    def test_copy_is_equal_and_shares_views(self, graph):
        graph.csr(), graph.fingerprint()
        clone = graph.copy(name="clone")
        assert clone is not graph and clone.name == "clone"
        assert clone == graph
        assert clone.fingerprint() == graph.fingerprint()
        assert clone.csr() is graph.csr()

    def test_out_of_range_vertices_rejected(self, graph):
        n = graph.num_vertices
        for bad in (n, -1):
            assert not graph.has_vertex(bad)
            assert bad not in graph
            with pytest.raises(VertexError):
                graph.check_vertex(bad)
        assert not graph.has_edge(n, 0) and (n, 0) not in graph
        for u in graph.vertices():
            graph.check_vertex(u)


# ----------------------------------------------------------------------
# 2. The shared backward pass
# ----------------------------------------------------------------------
class TestBackwardDistanceMap:
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_matches_naive_reverse_bfs(self, graph, k):
        for target in graph.vertices():
            shared = backward_distance_map(graph, target, k)
            expected = naive_distances_to(graph, target, k)
            assert shared.target == target and shared.k == k
            assert dict(shared.distances.items()) == expected
            assert len(shared) == len(expected)
        with pytest.raises(VertexError):
            backward_distance_map(graph, graph.num_vertices, k)

    def test_rejects_bad_budget_after_target(self, graph):
        for target in graph.vertices():
            for k in (0, -3):
                with pytest.raises(QueryError, match="k must be >= 1"):
                    backward_distance_map(graph, target, k)
        # The target is validated first: a bad target wins over a bad k.
        with pytest.raises(VertexError):
            backward_distance_map(graph, graph.num_vertices, 0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_shared_map_answers_like_a_cold_query(self, pair_graph, k):
        rng = random.Random(k)
        engine = EVE(pair_graph)
        n = pair_graph.num_vertices
        for target in rng.sample(range(n), min(n, 6)):
            shared = backward_distance_map(pair_graph, target, k)
            for source in rng.sample(range(n), min(n, 6)):
                if source == target:
                    continue
                reused = engine.query(source, target, k, shared_backward=shared)
                cold = build_spg(pair_graph, source, target, k)
                assert reused.edges == cold.edges, (source, target, k)
                assert reused.labels == cold.labels
            with pytest.raises(VertexError):
                engine.query(n, target, k, shared_backward=shared)

    def test_path_distances_in_closed_form(self):
        graph = path_graph(12)
        distances = backward_distance_map(graph, 11, 11).distances
        assert dict(distances.items()) == {11 - d: d for d in range(12)}
        assert dict(backward_distance_map(graph, 11, 3).distances.items()) == {
            11: 0, 10: 1, 9: 2, 8: 3
        }


# ----------------------------------------------------------------------
# 3. Shared-memory views
# ----------------------------------------------------------------------
@requires_shared_memory
class TestSharedMemoryView:
    def test_attach_round_trip_equals_graph(self, graph):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            assert type(view) is DiGraph and buffer_types(view) == {memoryview}
            assert view == graph
            assert view.num_vertices == graph.num_vertices
            assert view.num_edges == graph.num_edges
            assert view.max_degree() == graph.max_degree()
            assert view.edge_set() == graph.edge_set()
            assert view.to_adjacency_dict() == {
                u: list(graph.out_neighbors(u)) for u in graph.vertices()
            }
            for u in graph.vertices():
                assert list(view.out_neighbors(u)) == list(graph.out_neighbors(u))
                assert list(view.in_neighbors(u)) == list(graph.in_neighbors(u))
                assert view.degree(u) == graph.degree(u)
            attached.close()

    def test_descriptor_and_buffers_match_graph(self, graph):
        n, m = graph.num_vertices, graph.num_edges
        with SharedGraphSegment(graph) as segment:
            descriptor = segment.descriptor
            assert descriptor.num_vertices == n
            assert descriptor.fingerprint == graph.fingerprint()
            assert descriptor.graph_name == graph.name
            assert descriptor.lengths == (n + 1, m, n + 1, m)
            assert descriptor.total_bytes == 8 * (2 * (n + 1) + 2 * m)
            attached = attach_shared_graph(descriptor)
            view = attached.graph
            assert [list(part) for part in view.csr()] == [
                list(part) for part in graph.csr()
            ]
            assert [list(part) for part in view.csr_reverse()] == [
                list(part) for part in graph.csr_reverse()
            ]
            attached.close()

    def test_fingerprint_recomputed_from_buffers(self, graph):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            # A reversed view carries no fingerprint and hashes its buffers.
            assert view.reverse().fingerprint() == graph.reverse().fingerprint()
            attached.close()
        unlabelled = DiGraph._from_csr(
            graph.num_vertices, graph.csr(), graph.csr_reverse(), "unlabelled"
        )
        assert unlabelled.fingerprint() == graph.fingerprint()

    def test_pickle_round_trip_outlives_segment(self, graph):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            clone = pickle.loads(pickle.dumps(attached.graph))
            attached.close()
        assert type(clone) is DiGraph and buffer_types(clone) == {array}
        assert clone == graph
        assert clone.fingerprint() == graph.fingerprint()
        for u in graph.vertices():
            assert list(clone.out_neighbors(u)) == list(graph.out_neighbors(u))

    def test_copy_reverse_and_materialize(self, graph):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            clone = view.copy(name="clone")
            assert clone.name == "clone" and clone == graph
            assert clone.fingerprint() == graph.fingerprint()
            reverse = view.reverse()
            assert reverse.edge_set() == {(v, u) for (u, v) in graph.edge_set()}
            assert reverse.reverse() == graph
            materialized = DiGraph(view.num_vertices, view.edges())
            assert materialized == graph
            assert materialized.fingerprint() == graph.fingerprint()
            attached.close()

    def test_out_of_range_vertices_rejected_like_graph(self, graph):
        n = graph.num_vertices
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            for bad in (n, -1):
                assert not view.has_vertex(bad) and bad not in view
                assert not view.has_edge(bad, 0) and (bad, 0) not in view
                with pytest.raises(VertexError) as from_view:
                    view.check_vertex(bad)
                with pytest.raises(VertexError) as from_graph:
                    graph.check_vertex(bad)
                assert str(from_view.value) == str(from_graph.value)
            # Endpoints that are not ints name no edge, and asking never raises.
            bad_edges = [("a", 0), (None, 0), (0.5, 0)]
            bad_edges += [(float(u), v) for u, v in list(graph.edges())[:1]]
            for owner in (view, graph):
                for edge in bad_edges:
                    assert not owner.has_edge(*edge) and edge not in owner, edge
            attached.close()

    @pytest.mark.parametrize("k", [1, 3])
    def test_backward_maps_identical(self, graph, k):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            for target in graph.vertices():
                ours = backward_distance_map(view, target, k)
                reference = backward_distance_map(graph, target, k)
                assert dict(ours.distances.items()) == dict(reference.distances.items())
            with pytest.raises(VertexError):
                backward_distance_map(view, graph.num_vertices, k)
            attached.close()

    def test_queries_answered_and_rejected_identically(self, graph):
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            view = attached.graph
            for query in shape_queries(graph, seed=3):
                assert expected_outcome(view, query) == expected_outcome(graph, query)
                if expected_outcome(graph, query)[0] == "ok":
                    assert build_spg(view, *query).labels == build_spg(graph, *query).labels
            attached.close()

    def test_segment_unlinked_exactly_once(self, graph):
        segment = SharedGraphSegment(graph)
        descriptor = segment.descriptor
        assert not segment.closed
        segment.close()
        segment.close()
        assert segment.closed
        with pytest.raises(FileNotFoundError):
            attach_shared_graph(descriptor)
        dropped = SharedGraphSegment(graph).descriptor
        gc.collect()
        with pytest.raises(FileNotFoundError):
            attach_shared_graph(dropped)


# ----------------------------------------------------------------------
# 4. Delta overlays
# ----------------------------------------------------------------------
class TestDeltaOverlay:
    def test_overlay_matches_rebuild(self, pair_graph):
        delta = random_shape_delta(pair_graph, seed=11)
        expected = (pair_graph.edge_set() - set(delta.deletes)) | set(delta.inserts)
        overlay = apply_delta(pair_graph, delta)
        rebuilt = DiGraph(pair_graph.num_vertices, sorted(expected))
        assert overlay == rebuilt
        assert overlay.num_edges == rebuilt.num_edges
        for u in pair_graph.vertices():
            assert sorted(overlay.out_neighbors(u)) == sorted(rebuilt.out_neighbors(u))
            assert sorted(overlay.in_neighbors(u)) == sorted(rebuilt.in_neighbors(u))
            offsets, targets = overlay.csr()
            assert list(targets[offsets[u]:offsets[u + 1]]) == list(overlay.out_neighbors(u))
            offsets, sources = overlay.csr_reverse()
            assert list(sources[offsets[u]:offsets[u + 1]]) == list(overlay.in_neighbors(u))
        assert set(overlay.applied_inserts) == set(delta.inserts)
        assert set(overlay.applied_deletes) == set(delta.deletes)
        assert overlay.fingerprint() != pair_graph.fingerprint()

    def test_replay_is_idempotent(self, pair_graph):
        delta = random_shape_delta(pair_graph, seed=12)
        once = apply_delta(pair_graph, delta)
        twice = apply_delta(once, delta)
        assert twice == once
        assert twice.applied_inserts == () and twice.applied_deletes == ()

    def test_out_of_range_edges_rejected(self, graph):
        n = graph.num_vertices
        for delta in (
            GraphDelta(inserts=[(n, n + 1)]),
            GraphDelta(deletes=[(n + 1, n)]),
            GraphDelta(inserts=[(-1, n)]),
        ):
            with pytest.raises(EdgeError, match="outside"):
                apply_delta(graph, delta)

    @requires_shared_memory
    def test_overlay_of_shared_graph_matches_owned(self, graph):
        delta = random_shape_delta(graph, seed=13)
        owned = apply_delta(graph, delta)
        with SharedGraphSegment(graph) as segment:
            attached = attach_shared_graph(segment.descriptor)
            shared = apply_delta(attached.graph, delta)
            assert shared.csr() == owned.csr()
            assert shared.csr_reverse() == owned.csr_reverse()
            assert shared.fingerprint() == owned.fingerprint()
            if not shared.is_noop:
                # The splice copied out of the block: the overlay owns its
                # arrays and outlives the attachment.
                assert buffer_types(shared) == {array}
                attached.close()
                assert shared == owned
            del shared
            attached.close()


# ----------------------------------------------------------------------
# 5. The engine on every backend
# ----------------------------------------------------------------------
class TestEngineAcrossShapes:
    def test_batch_matches_cold_build_spg(self, graph, backend):
        queries = shape_queries(graph)
        with make_engine(graph, backend) as engine:
            report = engine.run_batch(queries)
        assert_matches_cold_queries(graph, queries, report)
        expected_errors = sum(
            1 for query in queries if expected_outcome(graph, query)[0] == "error"
        )
        assert report.errors == expected_errors

    def test_second_batch_served_from_cache(self, graph, backend):
        queries = shape_queries(graph, seed=1)
        with make_engine(graph, backend) as engine:
            first = engine.run_batch(queries)
            second = engine.run_batch(queries)
        assert_matches_cold_queries(graph, queries, second)
        assert second.cache_hits == first.num_ok == second.num_ok
        for outcome in second:
            assert outcome.cached == outcome.ok

    def test_stream_identical_to_serial_stream(self, graph, backend, monkeypatch):
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 4)
        queries = shape_queries(graph, seed=2)
        with make_engine(graph, "serial") as reference_engine:
            reference = [
                canonical_outcome(outcome)
                for outcome in stream_outcomes(reference_engine, iter(queries))
            ]
            reference_records = kernel_records(reference_engine, queries)
        with make_engine(graph, backend) as engine:
            outcomes = stream_outcomes(engine, iter(queries))
            assert kernel_records(engine, queries) == reference_records
        assert [canonical_outcome(outcome) for outcome in outcomes] == reference
        assert_matches_cold_queries(graph, queries, outcomes)

    def test_async_batch_identical_to_serial_batch(self, graph, backend):
        queries = shape_queries(graph, seed=4)
        with make_engine(graph, "serial") as reference_engine:
            reference = canonical_report(reference_engine.run_batch(queries))
            reference_records = kernel_records(reference_engine, queries)

        async def serve():
            with make_engine(graph, backend) as engine:
                report = await engine.run_batch_async(queries)
                return report, kernel_records(engine, queries)

        report, records = asyncio.run(serve())
        assert canonical_report(report) == reference
        assert records == reference_records
        assert_matches_cold_queries(graph, queries, report)

    def test_single_queries_match_and_fill_cache(self, graph, backend):
        queries = shape_queries(graph, seed=5)
        with make_engine(graph, backend) as engine:
            for query in queries:
                kind, expected = expected_outcome(graph, query)
                if kind == "ok":
                    assert engine.query(*query).edges == expected
                else:
                    with pytest.raises(Exception) as raised:
                        engine.query(*query)
                    assert f"{type(raised.value).__name__}: {raised.value}" == expected
            report = engine.run_batch(queries)
        assert_matches_cold_queries(graph, queries, report)
        assert report.cache_hits == report.num_ok

    def test_graph_swap_to_and_from_shape(self, graph, backend):
        other = erdos_renyi(12, 2.0, seed=3)
        other_queries = shape_queries(other, seed=6)
        queries = shape_queries(graph, seed=6)
        with make_engine(other, backend) as engine:
            assert_matches_cold_queries(other, other_queries, engine.run_batch(other_queries))
            engine.set_graph(graph)
            assert engine.graph is graph
            assert_matches_cold_queries(graph, queries, engine.run_batch(queries))
            engine.set_graph(other)
            back = engine.run_batch(other_queries)
        assert_matches_cold_queries(other, other_queries, back)
        # Entries keyed on the first graph's fingerprint survive the swaps.
        assert back.cache_hits == back.num_ok

    def test_apply_delta_matches_rebuild(self, pair_graph, backend):
        queries = shape_queries(pair_graph, seed=7)
        delta = random_shape_delta(pair_graph, seed=7)
        expected = (pair_graph.edge_set() - set(delta.deletes)) | set(delta.inserts)
        rebuilt = DiGraph(pair_graph.num_vertices, sorted(expected))
        with make_engine(pair_graph, backend) as engine:
            assert_matches_cold_queries(pair_graph, queries, engine.run_batch(queries))
            report = engine.apply_delta(delta)
            assert report.epoch == engine.graph_epoch == 1
            assert not report.noop
            assert report.inserted == delta.num_inserts
            assert report.deleted == delta.num_deletes
            assert engine.graph == rebuilt
            after = engine.run_batch(queries)
        assert_matches_cold_queries(rebuilt, queries, after)


# ----------------------------------------------------------------------
# 6. Overlapping callers on one engine
# ----------------------------------------------------------------------
#: More callers than the engine's two permits, so callers queue on the
#: bound as well as run side by side.
CALLERS = 4


def run_callers(count: int, work) -> list:
    """Run ``work(index)`` on ``count`` threads released together; return the results.

    A failure on any thread is re-raised here, so assertions inside
    ``work`` fail the test.
    """
    barrier = threading.Barrier(count)
    results: list = [None] * count
    failures: list = []

    def call(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[index] = work(index)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)

    threads = [threading.Thread(target=call, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    if failures:
        raise failures[0]
    return results


@contextlib.contextmanager
def fine_thread_switching():
    """Switch threads every 10 µs so short critical windows interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def expected_outcomes(graph: DiGraph, queries: list) -> list:
    return [expected_outcome(graph, query) for query in queries]


class TestOverlappingCallersAcrossShapes:
    """Batches, streams and queries from several threads at once on one engine.

    ``serial`` runs each planned group on the thread that called in, so
    every caller thread is an executor thread here: the answers, the
    cache, the stats and the scratch pool must come out as if the calls
    had run one after another.
    """

    def test_overlapping_batches_match_cold_build_spg(self, graph, backend):
        workloads = [shape_queries(graph, seed=10 + index) for index in range(CALLERS)]
        with make_engine(graph, backend) as engine:
            reports = run_callers(CALLERS, lambda index: engine.run_batch(workloads[index]))
        for queries, report in zip(workloads, reports):
            assert_matches_cold_queries(graph, queries, report)

    def test_overlapping_batches_keep_stats_and_cache_consistent(self, graph):
        queries = shape_queries(graph, seed=11)
        expected_errors = sum(
            1 for outcome in expected_outcomes(graph, queries) if outcome[0] == "error"
        )
        with make_engine(graph, "serial") as engine:
            reports = run_callers(CALLERS, lambda index: engine.run_batch(queries))
            snapshot = engine.stats_snapshot()
            again = engine.run_batch(queries)
        for report in reports:
            assert_matches_cold_queries(graph, queries, report)
            assert report.errors == expected_errors
        total = CALLERS * len(queries)
        assert snapshot["batches_served"] == CALLERS
        assert snapshot["queries_served"] == total
        assert snapshot["cache_hits"] + snapshot["cache_misses"] == total
        assert snapshot["errors"] == CALLERS * expected_errors
        # Two permits: no more than two queries ever held a scratch bundle.
        assert snapshot["scratch_allocations"] <= 2
        assert_matches_cold_queries(graph, queries, again)
        assert again.cache_hits == again.num_ok

    def test_overlapping_streams_match_cold_build_spg(self, graph, monkeypatch):
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 4)
        workloads = [shape_queries(graph, seed=20 + index) for index in range(CALLERS)]
        with make_engine(graph, "serial") as engine:
            streams = run_callers(
                CALLERS,
                lambda index: stream_outcomes(engine, iter(workloads[index])),
            )
        for queries, outcomes in zip(workloads, streams):
            assert_matches_cold_queries(graph, queries, outcomes)

    def test_overlapping_async_batches_match_cold_build_spg(self, graph):
        workloads = [shape_queries(graph, seed=30 + index) for index in range(CALLERS)]

        async def serve():
            with make_engine(graph, "serial") as engine:
                return await asyncio.gather(
                    *(engine.run_batch_async(queries) for queries in workloads)
                )

        for queries, report in zip(workloads, asyncio.run(serve())):
            assert_matches_cold_queries(graph, queries, report)

    def test_overlapping_single_queries_match_and_fill_cache(self, graph):
        queries = shape_queries(graph, seed=40)
        expected = expected_outcomes(graph, queries)

        def ask_each(index: int) -> list:
            # Each caller starts at a different query, so first asks overlap.
            answers: list = [None] * len(queries)
            positions = list(range(len(queries)))
            for position in positions[index:] + positions[:index]:
                try:
                    answers[position] = ("ok", engine.query(*queries[position]).edges)
                except Exception as exc:  # noqa: BLE001 - compared below
                    answers[position] = ("error", f"{type(exc).__name__}: {exc}")
            return answers

        with make_engine(graph, "serial") as engine:
            answers = run_callers(CALLERS, ask_each)
            report = engine.run_batch(queries)
        for caller_answers in answers:
            assert caller_answers == expected
        assert_matches_cold_queries(graph, queries, report)
        assert report.cache_hits == report.num_ok

    def test_batches_overlapping_graph_swaps_answer_on_one_graph(self, graph):
        other = erdos_renyi(12, 2.0, seed=3)
        queries = shape_queries(graph, seed=50)
        on_graph = expected_outcomes(graph, queries)
        on_other = expected_outcomes(other, queries)
        with make_engine(graph, "serial") as engine:
            caller_done = threading.Event()

            def serve(index: int) -> list:
                if index == 0:
                    # Swap back and forth until some caller is done.
                    swaps = 0
                    while not caller_done.is_set():
                        engine.set_graph(other if swaps % 2 == 0 else graph)
                        swaps += 1
                    engine.set_graph(graph)
                    return []
                try:
                    return [
                        [observed_outcome(outcome) for outcome in engine.run_batch(queries)]
                        for _ in range(5)
                    ]
                finally:
                    caller_done.set()

            with fine_thread_switching():
                rounds = run_callers(CALLERS, serve)
            assert engine.graph is graph
            settled = engine.run_batch(queries)
        for observed in (report for caller in rounds for report in caller):
            # Each batch reads the served graph once: all of it answers
            # on one graph or all of it on the other.
            assert observed in (on_graph, on_other)
        assert_matches_cold_queries(graph, queries, settled)

    def test_batches_overlapping_a_delta_answer_on_one_epoch(self, pair_graph):
        queries = shape_queries(pair_graph, seed=60)
        delta = random_shape_delta(pair_graph, seed=60)
        after = (pair_graph.edge_set() - set(delta.deletes)) | set(delta.inserts)
        rebuilt = DiGraph(pair_graph.num_vertices, sorted(after))
        before_delta = expected_outcomes(pair_graph, queries)
        after_delta = expected_outcomes(rebuilt, queries)
        with make_engine(pair_graph, "serial") as engine:
            engine.run_batch(queries)  # old-epoch entries for the delta to migrate

            def serve(index: int) -> list:
                if index == 0:
                    return [engine.apply_delta(delta)]
                return [
                    [observed_outcome(outcome) for outcome in engine.run_batch(queries)]
                    for _ in range(5)
                ]

            with fine_thread_switching():
                rounds = run_callers(CALLERS, serve)
            settled = engine.run_batch(queries)
        (report,) = rounds[0]
        assert report.epoch == 1 and not report.noop
        for observed in (batch for caller in rounds[1:] for batch in caller):
            assert observed in (before_delta, after_delta)
        # Whatever the overlap, the cache serves only the new epoch now.
        assert_matches_cold_queries(rebuilt, queries, settled)
