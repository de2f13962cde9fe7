"""The CSR distance kernel against the retained pure-dict reference.

The flat-array refactor of :mod:`repro.core.distances` must be
answer-identical to the original dict implementation, which is kept
verbatim in :mod:`repro.core.distances_reference`.  These tests cross-check
every strategy on randomized graphs (plus the awkward corners: empty
graphs, edgeless graphs, isolated vertices, unreachable targets, depth 0)
and pin down the CSR view itself, scratch reuse, and the service-layer
scratch pool.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distances_reference as reference
from repro.core.distances import (
    DISTANCE_STRATEGIES,
    ArrayDistanceMap,
    DistanceScratch,
    backward_distance_map,
    bounded_bfs,
    compute_distance_index,
)
from repro.core.eve import EVE, build_spg
from repro.exceptions import QueryError, VertexError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.service import SPGEngine

# ----------------------------------------------------------------------
# Random-graph helpers
# ----------------------------------------------------------------------


def random_graph(seed: int, num_vertices: int = 30, degree: float = 2.0) -> DiGraph:
    return erdos_renyi(num_vertices, degree, seed=seed)


def sparse_graph_with_isolates(seed: int) -> DiGraph:
    """A graph whose high vertex ids are isolated (no in- or out-edges)."""
    rng = random.Random(seed)
    n = 24
    connected = range(n // 2)
    edges = [
        (rng.choice(connected), rng.choice(connected))
        for _ in range(n)
    ]
    return DiGraph(n, [(u, v) for u, v in edges if u != v], name="isolates")


def assert_index_matches(new_index, ref_index) -> None:
    """Exact structural equality between a CSR index and a reference index."""
    assert dict(new_index.from_source) == dict(ref_index.from_source)
    assert dict(new_index.to_target) == dict(ref_index.to_target)
    assert new_index.explored_vertices == ref_index.explored_vertices
    assert new_index.strategy == ref_index.strategy
    assert new_index.candidate_vertices() == ref_index.candidate_vertices()
    assert new_index.shortest_st_distance() == ref_index.shortest_st_distance()


# ----------------------------------------------------------------------
# bounded_bfs vs reference
# ----------------------------------------------------------------------
class TestBoundedBFSMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_random_graphs(self, seed, reverse):
        graph = random_graph(seed)
        for depth in (0, 1, 3, 10):
            got = bounded_bfs(graph, seed % graph.num_vertices, depth, reverse=reverse)
            want = reference.bounded_bfs(
                graph, seed % graph.num_vertices, depth, reverse=reverse
            )
            assert got == want  # ArrayDistanceMap == dict via the Mapping protocol
            assert dict(got) == want
            assert len(got) == len(want)

    def test_depth_zero_is_source_only(self):
        graph = path_graph(5)
        assert dict(bounded_bfs(graph, 2, 0)) == {2: 0}

    def test_isolated_source(self):
        graph = sparse_graph_with_isolates(3)
        isolated = graph.num_vertices - 1
        assert graph.degree(isolated) == 0
        assert dict(bounded_bfs(graph, isolated, 5)) == {isolated: 0}

    def test_view_supports_mapping_protocol(self):
        graph = path_graph(4)
        view = bounded_bfs(graph, 0, 10)
        assert isinstance(view, ArrayDistanceMap)
        assert view[2] == 2
        assert 3 in view and -1 not in view and 99 not in view
        assert view.get(99, "missing") == "missing"
        assert sorted(view.items()) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert view.to_dict() == {0: 0, 1: 1, 2: 2, 3: 3}
        with pytest.raises(KeyError):
            view[-1]

    def test_view_tolerates_non_int_keys_like_dict(self):
        view = bounded_bfs(path_graph(4), 0, 10)
        assert view.get("x") is None
        assert view.get(None, "fallback") == "fallback"
        assert "x" not in view
        with pytest.raises(KeyError):
            view["x"]


# ----------------------------------------------------------------------
# compute_distance_index vs reference (all strategies, shared backward)
# ----------------------------------------------------------------------
class TestDistanceIndexMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    def test_random_graphs(self, seed, strategy):
        graph = random_graph(seed, num_vertices=40, degree=1.0 + (seed % 4))
        source, target = seed % 40, (seed * 7 + 13) % 40
        if source == target:
            target = (target + 1) % 40
        for k in (1, 2, 5, 8):
            got = compute_distance_index(graph, source, target, k, strategy=strategy)
            want = reference.compute_distance_index(
                graph, source, target, k, strategy=strategy
            )
            assert_index_matches(got, want)

    @given(
        num_vertices=st.integers(min_value=2, max_value=25),
        edges=st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=120
        ),
        k=st.integers(min_value=1, max_value=9),
        strategy=st.sampled_from(DISTANCE_STRATEGIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_arbitrary_graphs(self, num_vertices, edges, k, strategy):
        graph = DiGraph(
            num_vertices,
            [(u % num_vertices, v % num_vertices) for u, v in edges],
        )
        source, target = 0, num_vertices - 1
        if source == target:
            return
        got = compute_distance_index(graph, source, target, k, strategy=strategy)
        want = reference.compute_distance_index(graph, source, target, k, strategy=strategy)
        assert_index_matches(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_backward_matches_reference(self, seed):
        graph = random_graph(seed, num_vertices=35)
        target, k = 5, 6
        shared_new = backward_distance_map(graph, target, k)
        shared_ref = reference.backward_distance_map(graph, target, k)
        assert dict(shared_new.distances) == dict(shared_ref.distances)
        assert len(shared_new) == len(shared_ref)
        for source in (1, 9, 17):
            got = compute_distance_index(
                graph, source, target, k, shared_backward=shared_new
            )
            want = reference.compute_distance_index(
                graph, source, target, k, shared_backward=shared_ref
            )
            assert_index_matches(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_wider_shared_backward_matches_reference(self, seed):
        """A shared pass built for a larger k serves every smaller k exactly.

        The restricted forward search admits a vertex by the query's own k,
        not the pass's, and the flat kernels read the wider map's buffers
        only up to that k.
        """
        graph = random_graph(seed, num_vertices=35)
        target, wide = 5, 8
        shared_new = backward_distance_map(graph, target, wide)
        shared_ref = reference.backward_distance_map(graph, target, wide)
        for source in (1, 9, 17):
            for k in (3, 5, 7):
                got = compute_distance_index(
                    graph, source, target, k, shared_backward=shared_new
                )
                want = reference.compute_distance_index(
                    graph, source, target, k, shared_backward=shared_ref
                )
                assert_index_matches(got, want)
                shared = EVE(graph).query(source, target, k, shared_backward=shared_new)
                cold = build_spg(graph, source, target, k)
                assert shared.edges == cold.edges
                assert shared.labels == cold.labels

    def test_unreachable_target(self):
        graph = DiGraph(6, [(0, 1), (1, 2), (4, 5)])
        for strategy in DISTANCE_STRATEGIES:
            got = compute_distance_index(graph, 0, 5, 4, strategy=strategy)
            want = reference.compute_distance_index(graph, 0, 5, 4, strategy=strategy)
            assert_index_matches(got, want)
            assert got.shortest_st_distance() == float("inf")

    def test_edgeless_graph(self):
        graph = DiGraph.empty(4)
        got = compute_distance_index(graph, 0, 3, 3)
        want = reference.compute_distance_index(graph, 0, 3, 3)
        assert_index_matches(got, want)
        assert dict(got.from_source) == {0: 0}

    def test_empty_graph_rejected_like_reference(self):
        graph = DiGraph.empty(0)
        with pytest.raises(VertexError):
            compute_distance_index(graph, 0, 1, 2)
        with pytest.raises(VertexError):
            reference.compute_distance_index(graph, 0, 1, 2)

    def test_k_zero_rejected_like_reference(self):
        graph = path_graph(3)
        with pytest.raises(QueryError):
            compute_distance_index(graph, 0, 2, 0)
        with pytest.raises(QueryError):
            reference.compute_distance_index(graph, 0, 2, 0)
        with pytest.raises(QueryError):
            backward_distance_map(graph, 2, 0)


# ----------------------------------------------------------------------
# Scratch reuse
# ----------------------------------------------------------------------
class TestScratchReuse:
    def test_one_scratch_many_queries(self):
        graph = random_graph(2, num_vertices=50, degree=2.5)
        scratch = DistanceScratch()
        rng = random.Random(0)
        for _ in range(25):
            s, t = rng.sample(range(50), 2)
            k = rng.randint(1, 7)
            strategy = rng.choice(DISTANCE_STRATEGIES)
            got = compute_distance_index(graph, s, t, k, strategy=strategy, scratch=scratch)
            want = reference.compute_distance_index(graph, s, t, k, strategy=strategy)
            assert_index_matches(got, want)

    def test_scratch_grows_across_graphs(self):
        small = path_graph(4)
        big = random_graph(1, num_vertices=80)
        scratch = DistanceScratch()
        first = compute_distance_index(small, 0, 3, 3, scratch=scratch)
        assert dict(first.from_source) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert scratch.capacity == 4
        second = compute_distance_index(big, 0, 79, 6, scratch=scratch)
        want = reference.compute_distance_index(big, 0, 79, 6)
        assert_index_matches(second, want)
        assert scratch.capacity == 80

    def test_eve_answers_identical_with_scratch(self):
        graph = random_graph(9, num_vertices=40, degree=2.0)
        scratch = DistanceScratch()
        from repro.core.eve import EVE

        engine = EVE(graph)
        for s, t, k in [(0, 39, 5), (3, 11, 6), (0, 39, 5)]:
            with_scratch = engine.query(s, t, k, scratch=scratch)
            cold = build_spg(graph, s, t, k)
            assert with_scratch.edges == cold.edges
            assert with_scratch.exact and cold.exact


# ----------------------------------------------------------------------
# CSR views on DiGraph
# ----------------------------------------------------------------------
class TestCSRViews:
    @pytest.mark.parametrize("seed", range(5))
    def test_csr_round_trips_edge_list(self, seed):
        graph = random_graph(seed)
        offsets, targets = graph.csr()
        rebuilt = sorted(
            (u, int(v))
            for u in graph.vertices()
            for v in targets[offsets[u]:offsets[u + 1]]
        )
        assert rebuilt == graph.to_edge_list()

    @pytest.mark.parametrize("seed", range(5))
    def test_csr_reverse_round_trips_edge_list(self, seed):
        graph = random_graph(seed)
        offsets, targets = graph.csr_reverse()
        rebuilt = sorted(
            (int(u), v)
            for v in graph.vertices()
            for u in targets[offsets[v]:offsets[v + 1]]
        )
        assert rebuilt == graph.to_edge_list()

    def test_csr_is_cached(self):
        graph = random_graph(0)
        assert graph.csr() is graph.csr()
        assert graph.csr_reverse() is graph.csr_reverse()

    def test_reverse_shares_csr(self):
        graph = random_graph(0)
        forward_csr = graph.csr()
        backward_csr = graph.csr_reverse()
        reversed_graph = graph.reverse()
        assert reversed_graph.csr() is backward_csr
        assert reversed_graph.csr_reverse() is forward_csr
        assert reversed_graph.reverse() == graph

    def test_copy_shares_csr_and_equals(self):
        graph = random_graph(3)
        csr = graph.csr()
        clone = graph.copy()
        assert clone is not graph
        assert clone == graph
        assert clone.csr() is csr
        assert clone.fingerprint() == graph.fingerprint()

    def test_empty_graph_csr(self):
        graph = DiGraph.empty(0)
        offsets, targets = graph.csr()
        assert list(offsets) == [0]
        assert len(targets) == 0

    def test_max_degree_cached_and_correct(self):
        graph = DiGraph(5, [(0, 1), (0, 2), (0, 3), (4, 0), (2, 0)])
        expected = max(
            max(graph.out_degree(u), graph.in_degree(u)) for u in graph.vertices()
        )
        assert graph.max_degree() == expected == 3
        assert graph.max_degree() == 3  # cached path
        assert graph.reverse().max_degree() == 3
        assert DiGraph.empty(0).max_degree() == 0


# ----------------------------------------------------------------------
# Service scratch pool
# ----------------------------------------------------------------------
class TestServiceScratchPool:
    def test_batch_reuses_scratch_buffers(self):
        graph = random_graph(5, num_vertices=40, degree=2.0)
        engine = SPGEngine(graph, cache_size=0, max_workers=1)
        queries = [(s, 39, 4) for s in range(8)] + [(1, 20, 5), (2, 21, 5)]
        report = engine.run_batch(queries)
        assert report.num_ok == len(queries)
        stats = engine.stats_snapshot()
        # Every computed query checked out exactly one scratch ...
        assert stats["scratch_allocations"] + stats["scratch_reuses"] == stats["cache_misses"]
        # ... and with one worker a single allocation serves the whole batch.
        assert stats["scratch_allocations"] == 1
        assert stats["scratch_reuses"] == len(queries) - 1

    def test_pool_counters_and_clear(self):
        from repro.service import ScratchPool

        pool = ScratchPool()
        first = pool.acquire()
        pool.release(first)
        with pool.borrow() as again:
            assert again is first
        assert pool.allocations == 1 and pool.reuses == 1
        assert pool.snapshot()["idle"] == 1
        pool.clear()
        assert len(pool) == 0

    def test_pool_counters_track_engine_stats(self):
        """With stats attached there is one source of truth, even after reset."""
        graph = random_graph(8, num_vertices=30)
        engine = SPGEngine(graph, cache_size=0, max_workers=1)
        engine.run_batch([(0, 29, 4), (1, 29, 4), (2, 29, 4)])
        pool = engine.scratch_pool
        assert pool.allocations == engine.stats.scratch_allocations == 1
        assert pool.reuses == engine.stats.scratch_reuses == 2
        engine.stats.reset()
        assert pool.allocations == 0 and pool.reuses == 0

    def test_errored_queries_do_not_break_scratch_accounting(self):
        """Malformed/errored entries count as misses but never borrow scratch."""
        graph = random_graph(8, num_vertices=30)
        engine = SPGEngine(graph, cache_size=0, max_workers=1)
        report = engine.run_batch(
            [{"bogus": 1}, (0, 0, 3), (0, 0, 3), (0, 29, 4)]
        )
        assert report.errors == 3
        stats = engine.stats_snapshot()
        # Only the duplicate of the failed (0, 0, 3) primary skips execution;
        # executed queries (including the errored primary) borrow exactly one
        # scratch each, and allocations stay bounded by the worker count.
        assert stats["scratch_allocations"] == 1
        assert stats["scratch_allocations"] + stats["scratch_reuses"] == 2
        assert stats["cache_misses"] == 4

    def test_engine_answers_match_cold_build_spg(self):
        graph = random_graph(6, num_vertices=45, degree=2.0)
        engine = SPGEngine(graph, max_workers=2)
        queries = [(s, 44, 5) for s in range(6)] * 2
        report = engine.run_batch(queries)
        for outcome in report:
            assert outcome.ok
            assert outcome.edges == build_spg(graph, outcome.source, outcome.target, outcome.k).edges


class TestEngineConfig:
    def test_from_config_threads_strategy(self):
        from repro.service import EngineConfig

        graph = random_graph(7)
        config = EngineConfig(strategy="single", cache_size=0, max_workers=1)
        engine = SPGEngine.from_config(graph, config)
        assert engine.config.distance_strategy == "single"
        assert engine.cache is None
        result = engine.query(0, graph.num_vertices - 1, 4)
        assert result.edges == build_spg(graph, 0, graph.num_vertices - 1, 4).edges

    def test_bad_strategy_rejected(self):
        from repro.service import EngineConfig

        with pytest.raises(QueryError):
            EngineConfig(strategy="quantum").eve_config()

    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    def test_cli_strategy_flag(self, strategy, capsys):
        from repro.service.__main__ import main

        import io
        import sys

        stdin = sys.stdin
        sys.stdin = io.StringIO("0 5 4\n")
        try:
            code = main(["--dataset", "tw", "--scale", "0.05", "--strategy", strategy])
        finally:
            sys.stdin = stdin
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and '"ok": true' in out[0]
