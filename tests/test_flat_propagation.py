"""Differential harness for the flat-buffer propagation + labelling path.

The CSR/flat-array rewrite of :mod:`repro.core.essential` and
:mod:`repro.core.labeling` is held answer-identical to the retained
dict/frozenset oracles (:mod:`repro.core.essential_reference`,
:mod:`repro.core.labeling_reference`) the same way the distance kernels are
held to :mod:`repro.core.distances_reference`: every vertex, every level,
every label, every boundary list, on randomized graphs across ``k``,
pruning on/off and all three distance strategies — with and without a
reused :class:`~repro.core.essential.EssentialScratch`.

This file also carries the regression tests for the bug hunt that preceded
the refactor:

* the small-``k`` labelling hole (``label_edge``'s split loop is empty for
  ``k <= 4``) is proven vacuous by cross-checking the upper bound against
  full path enumeration at ``k in {2, 3, 4}`` and asserting no
  ``UNDETERMINED`` label can ever be produced there;
* the nondeterministic ``collect_boundaries`` truncation (the ``k - 2``
  cap used to keep whichever neighbours iteration order yielded first) is
  pinned to the sorted-order semantics under adversarial adjacency
  orderings;
* the ``ResultCache`` size reads are hammered from threads;
* scratch reuse: invalidation across successive queries, buffer growth
  across graphs, a long-lived scratch holding one query's entries, the
  core pool behind ``build_spg`` (reuse, threads, nesting), and the
  pooled-bundle counters in :class:`~repro.service.stats.EngineStats`.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import (
    distances,
    distances_reference,
    essential,
    essential_reference,
    eve,
    labeling,
    labeling_reference,
)
from repro.core.distances import DISTANCE_STRATEGIES
from repro.core.essential import EssentialScratch
from repro.core.eve import EVE, EVEConfig, QueryScratch, ScratchPool, build_spg
from repro.core.result import EdgeLabel
from repro.core.verification import verify_undetermined_edges
from repro.enumeration import EnumerationSPGBuilder, PathEnum
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.service import SPGEngine
from repro.service.cache import ResultCache, make_cache_key
from repro.telemetry import Tracer


def random_graph(seed: int, num_vertices: int = 14, degree: float = 2.2) -> DiGraph:
    return erdos_renyi(num_vertices, degree, seed=seed, name=f"flat-{seed}")


def random_query(graph: DiGraph, seed: int):
    rng = random.Random(seed)
    return rng.sample(range(graph.num_vertices), 2)


def reference_pipeline(graph, s, t, k, prune=True, strategy="adaptive"):
    """The pre-refactor pipeline, end to end, on the retained oracles."""
    index = distances_reference.compute_distance_index(graph, s, t, k, strategy)
    forward = essential_reference.propagate_forward(
        graph, s, t, k, distances=index, prune=prune
    )
    backward = essential_reference.propagate_backward(
        graph, s, t, k, distances=index, prune=prune
    )
    upper = labeling_reference.compute_upper_bound(
        graph, s, t, k, index, forward, backward
    )
    return index, forward, backward, upper


def flat_pipeline(graph, s, t, k, prune=True, strategy="adaptive", scratch=None):
    """The flat-buffer pipeline with an optionally reused scratch bundle."""
    index = distances.compute_distance_index(
        graph, s, t, k, strategy, scratch=scratch
    )
    ess = scratch.essential if scratch is not None else None
    forward = essential.propagate_forward(
        graph, s, t, k, distances=index, prune=prune, scratch=ess
    )
    backward = essential.propagate_backward(
        graph, s, t, k, distances=index, prune=prune, scratch=ess
    )
    upper = labeling.compute_upper_bound(graph, s, t, k, index, forward, backward)
    return index, forward, backward, upper


def assert_indexes_match(graph, got, want, k, context):
    for vertex in graph.vertices():
        for level in range(0, k):
            assert got.get(vertex, level) == want.get(vertex, level), (
                *context,
                vertex,
                level,
            )


def assert_uppers_match(got, want, context):
    assert got.labels == want.labels, context
    assert got.definite_edges == want.definite_edges, context
    assert got.undetermined_edges == want.undetermined_edges, context
    assert set(got.out_adjacency) == set(want.out_adjacency), context
    for vertex, neighbors in got.out_adjacency.items():
        assert sorted(neighbors) == sorted(want.out_adjacency[vertex]), context
    assert got.departures == want.departures, context
    assert got.arrivals == want.arrivals, context


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
class TestFlatMatchesReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("prune", [True, False])
    def test_propagation_labeling_and_answer(self, seed, k, prune):
        """One shared scratch across every (seed, k, prune) cell — reuse and
        correctness are exercised by the same sweep."""
        graph = random_graph(seed)
        s, t = random_query(graph, seed * 31 + k)
        scratch = QueryScratch()
        _, fwd, bwd, upper = flat_pipeline(graph, s, t, k, prune=prune, scratch=scratch)
        _, fwd_ref, bwd_ref, upper_ref = reference_pipeline(graph, s, t, k, prune=prune)
        context = (seed, s, t, k, prune)
        assert_indexes_match(graph, fwd, fwd_ref, k, context)
        assert_indexes_match(graph, bwd, bwd_ref, k, context)
        assert_uppers_match(upper, upper_ref, context)
        expected = verify_undetermined_edges(upper_ref)
        assert verify_undetermined_edges(upper) == expected
        # build_spg runs the same pipeline on a pooled scratch.
        config = EVEConfig(forward_looking=prune)
        assert build_spg(graph, s, t, k, config).edges == expected, context

    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_distance_strategies(self, strategy, seed):
        graph = random_graph(seed, num_vertices=18, degree=2.6)
        s, t = random_query(graph, seed + 100)
        k = 6
        scratch = QueryScratch()
        _, fwd, bwd, upper = flat_pipeline(graph, s, t, k, strategy=strategy, scratch=scratch)
        _, fwd_ref, bwd_ref, upper_ref = reference_pipeline(graph, s, t, k, strategy=strategy)
        context = (strategy, seed, s, t)
        assert_indexes_match(graph, fwd, fwd_ref, k, context)
        assert_indexes_match(graph, bwd, bwd_ref, k, context)
        assert_uppers_match(upper, upper_ref, context)

    @pytest.mark.parametrize("seed", range(6))
    def test_end_to_end_eve_matches_reference_pipeline(self, seed):
        """EVE (flat path + verification) equals oracle pipeline + verification."""
        graph = random_graph(seed, num_vertices=16, degree=2.4)
        s, t = random_query(graph, seed + 50)
        for k in (4, 5, 6, 7):
            result = build_spg(graph, s, t, k)
            if result.upper_bound_edges:
                _, _, _, upper_ref = reference_pipeline(graph, s, t, k)
                assert result.edges == verify_undetermined_edges(upper_ref), (seed, k)
            assert result.exact

    def test_index_api_compat_on_figure1(self, figure1):
        """The flat index honours the reference index API contract."""
        graph, builder = figure1
        s, t = builder.vertex_id("s"), builder.vertex_id("t")
        flat = essential.propagate_forward(graph, s, t, 7, prune=False)
        ref = essential_reference.propagate_forward(graph, s, t, 7, prune=False)
        assert sorted(flat.reached_vertices()) == sorted(ref.reached_vertices())
        assert flat.stored_entries() == ref.stored_entries()
        assert flat.stored_items() == ref.stored_items()
        for vertex in graph.vertices():
            assert flat.first_level(vertex) == ref.first_level(vertex)
            assert flat.latest(vertex) == ref.latest(vertex)
            for level in range(7):
                assert flat.exists(vertex, level) == ref.exists(vertex, level)
        assert "forward" in repr(flat)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_fused_pass_reads_dict_distance_indexes(self, seed, k):
        """The fused pass gives one answer over array and dict distances.

        A dict index (the oracle's) takes the ``.get`` branch of every
        candidate test, including the skip of rows whose source lies
        outside the candidate space.
        """
        graph = random_graph(seed, num_vertices=18, degree=2.6)
        s, t = random_query(graph, seed + 200)
        uppers = []
        for index in (
            distances.compute_distance_index(graph, s, t, k),
            distances_reference.compute_distance_index(graph, s, t, k),
        ):
            fwd = essential.propagate_forward(graph, s, t, k, distances=index)
            bwd = essential.propagate_backward(graph, s, t, k, distances=index)
            uppers.append(labeling.compute_upper_bound(graph, s, t, k, index, fwd, bwd))
        assert_uppers_match(uppers[1], uppers[0], (seed, s, t, k))
        assert list(uppers[1].labels) == list(uppers[0].labels)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", range(3, 10))
    @pytest.mark.parametrize("prune", [True, False])
    def test_label_edge_spec_agrees_with_fused_pass(self, seed, k, prune):
        """The fused pass labels every edge as the per-edge spec does.

        The fused pass tests an edge only at the splits its two sets allow,
        and of the splits sharing ``u``'s forward set only the first.  The
        graphs are dense enough to reach both ends of an edge's split range
        and the lookup of a vertex holding several entries; the coverage
        asserts start at k = 5, the first k with a split.
        """
        graph = random_graph(seed, num_vertices=50, degree=4.0)
        s, t = random_query(graph, seed)
        index = distances.compute_distance_index(graph, s, t, k)
        fwd = essential.propagate_forward(graph, s, t, k, distances=index, prune=prune)
        bwd = essential.propagate_backward(graph, s, t, k, distances=index, prune=prune)
        upper = labeling.compute_upper_bound(graph, s, t, k, index, fwd, bwd)
        for (u, v), label in upper.labels.items():
            assert labeling_reference.label_edge(u, v, s, t, k, fwd, bwd) is label, (u, v)
        if k >= 5:
            # Some vertex on each side holds two or more entries.
            assert fwd.stored_entries() > len(fwd.reached_vertices())
            assert bwd.stored_entries() > len(bwd.reached_vertices())
        if k >= 6:
            # Edges that reached the split loop, with a range starting past
            # k_f = 2 (u first reached beyond level 2) and one ending before
            # k_f = k - 3 (v first reached beyond level 2).
            split = [edge for edge, label in upper.labels.items() if label is not EdgeLabel.DEFINITE]
            assert any((fwd.first_level(u) or 0) > 2 for u, _ in split)
            assert any((bwd.first_level(v) or 0) > 2 for _, v in split)


# ----------------------------------------------------------------------
# Small-k labelling: the vacuous split loop, proven against enumeration
# ----------------------------------------------------------------------
class TestSmallKLabeling:
    """``label_edge``'s split loop (``range(2, k - 2)``) is empty for
    ``k <= 4``.  That is vacuously *complete*, not a hole: every split of
    the ``k - 1`` interior hops with ``k_f >= 2`` and ``k_b >= 2`` needs
    ``k >= 5``, and the ``k_f <= 1`` / ``k_b <= 1`` splits are each settled
    conclusively by the Lemma 4.4/4.6 checks (DEFINITE, or impossible).
    These tests keep that argument honest against full enumeration.
    """

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_upper_bound_equals_enumeration(self, seed, k):
        graph = random_graph(seed, num_vertices=11, degree=2.4)
        s, t = random_query(graph, seed * 13 + k)
        oracle = EnumerationSPGBuilder(graph, PathEnum)
        exact = oracle.query(s, t, k).edges
        _, _, _, upper = flat_pipeline(graph, s, t, k)
        assert upper.edges == exact, (seed, s, t, k)
        # ... and EVE end to end (with and without verification) agrees.
        assert build_spg(graph, s, t, k).edges == exact
        assert (
            build_spg(graph, s, t, k, EVEConfig(verify=False)).edges == exact
        )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_no_undetermined_labels_at_small_k(self, seed, k):
        """For k <= 4 every candidate edge resolves to DEFINITE or FAILING;
        an UNDETERMINED label would be silently dropped by the verification
        phase's ``k < 5`` early-out, so none may ever be produced."""
        graph = random_graph(seed, num_vertices=12, degree=2.6)
        s, t = random_query(graph, seed + 7)
        _, _, _, upper = flat_pipeline(graph, s, t, k)
        assert not upper.undetermined_edges, (seed, s, t, k)
        assert all(
            label is not EdgeLabel.UNDETERMINED for label in upper.labels.values()
        )


# ----------------------------------------------------------------------
# Deterministic boundary truncation
# ----------------------------------------------------------------------
class TestDeterministicBoundaries:
    def _upper_with_order(self, order):
        """A k=3 upper bound whose adjacency lists follow ``order``.

        Star: s -> {x1..x5} -> v -> t, so v is a departure with five valid
        in-neighbours and the k - 2 = 1 cap must truncate.
        """
        s, t, v = 0, 7, 6
        xs = [1, 2, 3, 4, 5]
        upper = labeling.UpperBoundGraph(source=s, target=t, k=3)
        for x in order:
            upper.definite_edges.add((s, x))
            upper.out_adjacency.setdefault(s, []).append(x)
            upper.in_adjacency.setdefault(x, []).append(s)
        for x in order:
            upper.definite_edges.add((x, v))
            upper.out_adjacency.setdefault(x, []).append(v)
            upper.in_adjacency.setdefault(v, []).append(x)
        upper.definite_edges.add((v, t))
        upper.out_adjacency.setdefault(v, []).append(t)
        upper.in_adjacency.setdefault(t, []).append(v)
        assert sorted(order) == xs
        return upper, v

    def test_truncation_is_iteration_order_independent(self):
        """The retained neighbours are the smallest ids, whatever order the
        adjacency lists were built in (dict- or CSR-order)."""
        results = []
        for seed in range(6):
            order = [1, 2, 3, 4, 5]
            random.Random(seed).shuffle(order)
            upper, v = self._upper_with_order(order)
            labeling.collect_boundaries(upper)
            results.append((dict(upper.departures), dict(upper.arrivals)))
        first = results[0]
        assert all(result == first for result in results[1:])
        # k - 2 == 1 neighbour retained, and it is the smallest id.
        assert first[0] == {6: [1]}

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_flat_and_reference_boundaries_agree_under_shuffle(self, k):
        """collect_boundaries is a pure function of the upper-bound edge set."""
        graph = random_graph(17, num_vertices=16, degree=2.8)
        s, t = 0, 15
        _, _, _, upper = flat_pipeline(graph, s, t, k)
        shuffled = labeling.UpperBoundGraph(
            source=s,
            target=t,
            k=k,
            definite_edges=set(upper.definite_edges),
            undetermined_edges=set(upper.undetermined_edges),
            out_adjacency={u: list(vs) for u, vs in upper.out_adjacency.items()},
            in_adjacency={u: list(vs) for u, vs in upper.in_adjacency.items()},
        )
        rng = random.Random(5)
        for neighbors in shuffled.out_adjacency.values():
            rng.shuffle(neighbors)
        for neighbors in shuffled.in_adjacency.values():
            rng.shuffle(neighbors)
        labeling.collect_boundaries(shuffled)
        assert shuffled.departures == upper.departures
        assert shuffled.arrivals == upper.arrivals


# ----------------------------------------------------------------------
# Scratch reuse and epoch invalidation
# ----------------------------------------------------------------------
class TestEssentialScratch:
    def test_epoch_invalidation_across_queries(self):
        """A reused scratch must not leak entries of the previous query."""
        chain = DiGraph.from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4)])
        dense = random_graph(2, num_vertices=12, degree=3.0)
        scratch = EssentialScratch()
        # Query 1 reaches far down the chain ...
        first = essential.propagate_forward(chain, 0, 4, 4, prune=False, scratch=scratch)
        assert first.exists(3, 3)
        # ... query 2 on the same scratch reaches almost nothing; stale
        # entries from query 1 must be invisible.
        second = essential.propagate_forward(
            DiGraph.from_edge_list([(0, 1)], num_vertices=5), 0, 4, 4,
            prune=False, scratch=scratch,
        )
        assert second.get(1, 1) == frozenset({0, 1})
        for vertex in (2, 3):
            assert second.get(vertex, 3) is None
            assert not second.exists(vertex, 3)
            assert second.first_level(vertex) is None
        assert sorted(second.reached_vertices()) == [0, 1]
        # And a third, denser query is still oracle-identical.
        s, t = 0, 11
        third = essential.propagate_forward(dense, s, t, 6, prune=False, scratch=scratch)
        want = essential_reference.propagate_forward(dense, s, t, 6, prune=False)
        for vertex in dense.vertices():
            for level in range(6):
                assert third.get(vertex, level) == want.get(vertex, level)

    def test_scratch_grows_across_graphs(self):
        small = DiGraph.from_edge_list([(0, 1), (1, 2)])
        big = random_graph(4, num_vertices=80, degree=2.0)
        scratch = EssentialScratch()
        essential.propagate_forward(small, 0, 2, 3, scratch=scratch)
        assert scratch.capacity == 3
        index = essential.propagate_forward(big, 0, 79, 5, prune=False, scratch=scratch)
        assert scratch.capacity == 80
        want = essential_reference.propagate_forward(big, 0, 79, 5, prune=False)
        for vertex in big.vertices():
            for level in range(5):
                assert index.get(vertex, level) == want.get(vertex, level)

    def test_forward_and_backward_sides_are_independent(self):
        graph = random_graph(6, num_vertices=14, degree=2.5)
        s, t = 0, 13
        scratch = EssentialScratch()
        fwd = essential.propagate_forward(graph, s, t, 5, scratch=scratch)
        bwd = essential.propagate_backward(graph, s, t, 5, scratch=scratch)
        # Both indexes stay coherent simultaneously (separate sides).
        fwd_ref = essential_reference.propagate_forward(graph, s, t, 5)
        bwd_ref = essential_reference.propagate_backward(graph, s, t, 5)
        for vertex in graph.vertices():
            for level in range(5):
                assert fwd.get(vertex, level) == fwd_ref.get(vertex, level)
                assert bwd.get(vertex, level) == bwd_ref.get(vertex, level)

    def test_eve_reuses_query_scratch_bundle(self):
        graph = random_graph(8, num_vertices=30, degree=2.2)
        scratch = QueryScratch()
        engine = EVE(graph)
        for s, t, k in [(0, 29, 5), (3, 11, 6), (0, 29, 5), (1, 17, 7)]:
            with_scratch = engine.query(s, t, k, scratch=scratch)
            cold = build_spg(graph, s, t, k)
            assert with_scratch.edges == cold.edges
        assert scratch.essential.capacity == graph.num_vertices

    def test_scratch_keeps_only_the_latest_query(self):
        """A wide query's entries are freed when a narrow one follows, so a
        long-lived scratch holds one query's entries, not every query's."""
        graph = random_graph(3, num_vertices=60, degree=3.0)
        scratch = QueryScratch()
        _, wide, _, _ = flat_pipeline(graph, 0, 59, 8, prune=False, scratch=scratch)
        wide_reached = len(wide.reached_vertices())
        _, fwd, bwd, _ = flat_pipeline(graph, 1, 2, 3, scratch=scratch)
        assert len(fwd.reached_vertices()) < wide_reached
        for side, index in (
            (scratch.essential.forward, fwd),
            (scratch.essential.backward, bwd),
        ):
            reached = set(index.reached_vertices())
            assert {v for v, sets in enumerate(side.sets) if sets} == reached
            assert {v for v, levels in enumerate(side.levels) if levels} == reached
            # Merge sets live only while their level is in flight; consumed
            # ones wait, emptied, in the spare list.
            assert all(work is None for work in side.work)
            assert not any(side.spare)

    def test_build_spg_reuses_one_pooled_scratch(self, monkeypatch):
        pool = ScratchPool()
        monkeypatch.setattr(eve, "SCRATCH_POOL", pool)
        graph = random_graph(9, num_vertices=40, degree=2.5)
        rng = random.Random(9)
        for _ in range(50):
            s, t = rng.sample(range(graph.num_vertices), 2)
            build_spg(graph, s, t, rng.randint(3, 7))
        assert pool.allocations == 1
        assert pool.reuses == 49

    def test_build_spg_from_concurrent_threads(self, monkeypatch):
        """Concurrent callers borrow distinct bundles; answers stay exact."""
        pool = ScratchPool()
        monkeypatch.setattr(eve, "SCRATCH_POOL", pool)
        graph = random_graph(12, num_vertices=24, degree=2.6)
        rng = random.Random(12)
        queries = [
            (*rng.sample(range(graph.num_vertices), 2), rng.randint(3, 7))
            for _ in range(24)
        ]
        oracle = EnumerationSPGBuilder(graph, PathEnum)
        expected = {query: oracle.query(*query).edges for query in queries}
        barrier = threading.Barrier(4)
        failures = []

        def worker(offset):
            barrier.wait(timeout=30)
            try:
                for _ in range(3):
                    for query in queries[offset::4]:
                        if build_spg(graph, *query).edges != expected[query]:
                            failures.append(query)
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        # Switch threads often so queries interleave mid-phase.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert 1 <= pool.allocations <= 4
        assert pool.allocations + pool.reuses == 3 * len(queries)

    def test_nested_build_spg_gets_its_own_scratch(self, monkeypatch):
        """A query issued from inside a running query's tracer borrows a
        second bundle instead of clobbering the outer query's buffers."""
        pool = ScratchPool()
        monkeypatch.setattr(eve, "SCRATCH_POOL", pool)
        graph = random_graph(13, num_vertices=30, degree=2.8)
        oracle = EnumerationSPGBuilder(graph, PathEnum)
        rng = random.Random(13)
        answered = []
        while len(answered) < 2:
            query = (*rng.sample(range(graph.num_vertices), 2), 6)
            if oracle.query(*query).edges and query not in answered:
                answered.append(query)
        outer_query, inner_query = answered
        inner_edges = []

        class NestingTracer(Tracer):
            def record(self, name, started, duration, **attributes):
                if name == "phase.propagation" and not inner_edges:
                    inner_edges.append(build_spg(graph, *inner_query).edges)
                return super().record(name, started, duration, **attributes)

        outer = EVE(graph).query(*outer_query, tracer=NestingTracer())
        assert outer.edges == oracle.query(*outer_query).edges
        assert inner_edges == [oracle.query(*inner_query).edges]
        assert pool.allocations == 2


# ----------------------------------------------------------------------
# Serving-layer integration: pooled bundles + new counters
# ----------------------------------------------------------------------
class TestPooledPropagationScratch:
    def test_batch_counts_propagation_scratch(self):
        graph = random_graph(5, num_vertices=40, degree=2.0)
        engine = SPGEngine(graph, cache_size=0, max_workers=1)
        queries = [(s, 39, 4) for s in range(8)] + [(1, 20, 5), (2, 21, 5)]
        report = engine.run_batch(queries)
        assert report.num_ok == len(queries)
        stats = engine.stats_snapshot()
        # One bundle checkout per computed query covers every phase ...
        assert stats["scratch_allocations"] + stats["scratch_reuses"] == stats["cache_misses"]
        # ... and with one worker a single allocation serves the whole batch:
        # zero per-query propagation allocation.
        assert stats["scratch_allocations"] == 1
        assert stats["scratch_reuses"] == len(queries) - 1
        assert "propagation_scratch_allocations" not in stats

    def test_stats_reset_clears_propagation_counters(self):
        graph = random_graph(5, num_vertices=20, degree=2.0)
        engine = SPGEngine(graph, cache_size=0, max_workers=1)
        engine.run_batch([(0, 19, 4), (1, 19, 4)])
        assert engine.stats.scratch_allocations == 1
        engine.stats.reset()
        assert engine.stats.scratch_allocations == 0
        assert engine.stats.scratch_reuses == 0

    def test_pool_hands_out_query_scratch(self):
        from repro.service import ScratchPool

        pool = ScratchPool()
        with pool.borrow() as scratch:
            assert isinstance(scratch, QueryScratch)
            assert isinstance(scratch.essential, EssentialScratch)


# ----------------------------------------------------------------------
# ResultCache locking
# ----------------------------------------------------------------------
class TestResultCacheLocking:
    def test_repr_values(self):
        cache = ResultCache(max_entries=4)
        config = EVEConfig()
        key = make_cache_key(0, 1, 3, config, "fp")
        assert cache.get(key) is None
        cache.put(key, object())
        assert cache.get(key) is not None
        assert repr(cache) == "ResultCache(entries=1/4, evictions=0)"

    def test_counter_reads_race_free_under_hammering(self):
        """stats()/__repr__ take the lock; hammer them against get/put."""
        cache = ResultCache(max_entries=32)
        config = EVEConfig()
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    repr(cache)
                    assert cache.stats()["entries"] <= 32
                except Exception as exc:  # pragma: no cover - the assertion
                    errors.append(exc)
                    return

        def writer(offset):
            for i in range(600):
                key = make_cache_key(offset, i % 40, 3, config, "fp")
                if cache.get(key) is None:
                    cache.put(key, (offset, i))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(n,)) for n in range(3)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors
        stats = cache.stats()
        # 3 writers x 40 distinct keys through a 32-entry LRU.
        assert stats["entries"] == 32
        assert stats["evictions"] >= 3 * 40 - 32
