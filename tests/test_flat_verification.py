"""Differential harness for the flat explicit-stack verification path.

The CSR/explicit-stack rewrite of :mod:`repro.core.verification` is held
answer-identical to the retained dict/recursive oracle
(:mod:`repro.core.verification_reference`) the same way the earlier phases
are held to their ``*_reference`` twins: confirmed-edge-set identity on
randomized graphs across ``k in {5..9}``, every distance strategy, with
and without the Section 5.3 ordering, and through every executor backend
(serial / process) of the serving engine.

It also pins the behaviours the rewrite changed on purpose:

* the Section 5.3 ordering is a pure function of the upper-bound graph —
  shuffled adjacency lists produce identical ordered slices, identical
  answers and identical work counters (the old closure keys inherited
  whatever order iteration yielded);
* ``VerificationStats`` counters are backend-independent: the same batch
  records the same ``edges_checked`` / ``edges_confirmed`` / ``expansions``
  spans on every engine;
* the ``k < 5`` early-exit still records a (zero-work) verification span;
* scratch reuse: epoch invalidation across successive queries, buffer
  growth across graphs, and the pooled ``scratch_*`` counters on every
  backend.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core import verification_reference
from repro.core.distances import DISTANCE_STRATEGIES, compute_distance_index
from repro.core.essential import propagate_backward, propagate_forward
from repro.core.eve import EVE, QueryScratch
from repro.core.labeling import UpperBoundGraph, compute_upper_bound
from repro.core.verification import (
    VerificationScratch,
    VerificationStats,
    prepare_verification,
    verify_undetermined_edges,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.service import SPGEngine
from repro.telemetry import Tracer


def random_graph(seed: int, num_vertices: int = 16, degree: float = 2.6) -> DiGraph:
    return erdos_renyi(num_vertices, degree, seed=seed, name=f"flat-verify-{seed}")


def build_upper(graph, s, t, k, strategy="adaptive") -> UpperBoundGraph:
    index = compute_distance_index(graph, s, t, k, strategy)
    forward = propagate_forward(graph, s, t, k, distances=index)
    backward = propagate_backward(graph, s, t, k, distances=index)
    return compute_upper_bound(graph, s, t, k, index, forward, backward)


def reference_answer(upper: UpperBoundGraph, ordered: bool):
    """The oracle's confirmed set, on a private copy (ordering mutates)."""
    upper = copy.deepcopy(upper)
    if ordered:
        verification_reference.order_adjacency_reference(upper)
    return verification_reference.verify_undetermined_edges_reference(upper)


def slice_lists(prepared):
    """The materialised (out, in) adjacency lists, decoded from the slices."""
    scratch = prepared.scratch
    out, inn = {}, {}
    for vertex in scratch.touched:
        begin, stop = scratch.out_start[vertex], scratch.out_end[vertex]
        out[vertex] = scratch.out_targets[begin:stop]
        begin, stop = scratch.in_start[vertex], scratch.in_end[vertex]
        inn[vertex] = scratch.in_targets[begin:stop]
    return out, inn


# ----------------------------------------------------------------------
# The differential harness: flat vs oracle confirmed-edge sets
# ----------------------------------------------------------------------
class TestFlatMatchesReference:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_confirmed_set_identity(self, seed, k):
        """One shared scratch across every (seed, k) cell, both orderings."""
        graph = random_graph(seed)
        rng = random.Random(seed * 37 + k)
        s, t = rng.sample(range(graph.num_vertices), 2)
        upper = build_upper(graph, s, t, k)
        scratch = VerificationScratch()
        for ordered in (False, True):
            prepared = prepare_verification(upper, scratch=scratch)
            if ordered:
                prepared.apply_search_ordering()
            assert prepared.verify() == reference_answer(upper, ordered), (
                seed,
                s,
                t,
                k,
                ordered,
            )

    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    @pytest.mark.parametrize("seed", range(4))
    def test_all_distance_strategies(self, strategy, seed):
        graph = random_graph(seed, num_vertices=20, degree=3.0)
        rng = random.Random(seed + 11)
        s, t = rng.sample(range(graph.num_vertices), 2)
        scratch = VerificationScratch()
        for k in (5, 7, 9):
            upper = build_upper(graph, s, t, k, strategy=strategy)
            got = verify_undetermined_edges(
                upper, scratch=scratch, search_ordering=True
            )
            assert got == reference_answer(upper, ordered=k >= 6), (strategy, seed, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_wrapper_defaults_match_prepared_path(self, seed):
        """verify_undetermined_edges == prepare + ordering + verify."""
        graph = random_graph(seed, num_vertices=18, degree=2.8)
        upper = build_upper(graph, 0, graph.num_vertices - 1, 7)
        plain = verify_undetermined_edges(upper)
        ordered = verify_undetermined_edges(upper, search_ordering=True)
        prepared = prepare_verification(upper)
        prepared.apply_search_ordering()
        assert plain == ordered == prepared.verify()

    def test_incremental_confirmed_count_matches_answer(self):
        """edges_confirmed counts exactly the undetermined edges that settle,
        on both kernels (the rewrite made the count incremental)."""
        graph = random_graph(13, num_vertices=24, degree=3.2)
        for k in (5, 6, 8):
            upper = build_upper(graph, 1, 22, k)
            stats = VerificationStats()
            answer = verify_undetermined_edges(
                upper, stats=stats, search_ordering=True
            )
            assert stats.edges_confirmed == len(answer) - len(upper.definite_edges)
            ref_stats = VerificationStats()
            ref_upper = copy.deepcopy(upper)
            if k >= 6:
                verification_reference.order_adjacency_reference(ref_upper)
            ref_answer = verification_reference.verify_undetermined_edges_reference(
                ref_upper, stats=ref_stats
            )
            assert answer == ref_answer
            assert stats.edges_confirmed == ref_stats.edges_confirmed
            assert stats.edges_checked == ref_stats.edges_checked


# ----------------------------------------------------------------------
# Section 5.3 ordering: deterministic, shuffle-independent, oracle-equal
# ----------------------------------------------------------------------
class TestOrderingDeterminism:
    def _shuffled_copy(self, upper: UpperBoundGraph, seed: int) -> UpperBoundGraph:
        shuffled = copy.deepcopy(upper)
        rng = random.Random(seed)
        for neighbors in shuffled.out_adjacency.values():
            rng.shuffle(neighbors)
        for neighbors in shuffled.in_adjacency.values():
            rng.shuffle(neighbors)
        return shuffled

    @pytest.mark.parametrize("k", [6, 7, 9])
    def test_shuffled_adjacency_yields_identical_slices_and_stats(self, k):
        """The ordered slices, the answer and every work counter are a pure
        function of the upper-bound graph, not of adjacency-list order."""
        graph = random_graph(23, num_vertices=22, degree=3.0)
        upper = build_upper(graph, 0, 21, k)
        baseline_prepared = prepare_verification(upper)
        baseline_prepared.apply_search_ordering()
        baseline_slices = slice_lists(baseline_prepared)
        baseline_stats = VerificationStats()
        baseline = baseline_prepared.verify(stats=baseline_stats)
        for seed in range(5):
            shuffled = self._shuffled_copy(upper, seed)
            prepared = prepare_verification(shuffled)
            prepared.apply_search_ordering()
            assert slice_lists(prepared) == baseline_slices, (k, seed)
            stats = VerificationStats()
            assert prepared.verify(stats=stats) == baseline, (k, seed)
            assert stats == baseline_stats, (k, seed)

    @pytest.mark.parametrize("k", [6, 8])
    def test_flat_ordering_equals_reference_ordering(self, k):
        """apply_search_ordering sorts the slices into exactly the order
        order_adjacency_reference gives the dicts (same keys, same ties)."""
        graph = random_graph(29, num_vertices=20, degree=3.0)
        upper = build_upper(graph, 2, 17, k)
        prepared = prepare_verification(self._shuffled_copy(upper, 3))
        prepared.apply_search_ordering()
        out_slices, in_slices = slice_lists(prepared)
        ordered = copy.deepcopy(upper)
        verification_reference.order_adjacency_reference(ordered)
        for vertex, neighbors in ordered.out_adjacency.items():
            assert out_slices.get(vertex, []) == neighbors, ("out", vertex)
        for vertex, neighbors in ordered.in_adjacency.items():
            assert in_slices.get(vertex, []) == neighbors, ("in", vertex)


# ----------------------------------------------------------------------
# Scratch reuse and epoch invalidation
# ----------------------------------------------------------------------
class TestVerificationScratch:
    def test_epoch_invalidation_across_queries(self):
        """A reused scratch must not leak slices or marks across queries."""
        scratch = VerificationScratch()
        big = random_graph(31, num_vertices=40, degree=3.0)
        small = random_graph(32, num_vertices=10, degree=2.0)
        for graph, (s, t) in ((big, (0, 39)), (small, (0, 9)), (big, (1, 38))):
            for k in (5, 7):
                upper = build_upper(graph, s, t, k)
                got = verify_undetermined_edges(
                    upper, scratch=scratch, search_ordering=True
                )
                assert got == reference_answer(upper, ordered=k >= 6)

    def test_scratch_grows_across_graphs(self):
        scratch = VerificationScratch()
        small = random_graph(33, num_vertices=8, degree=2.0)
        upper = build_upper(small, 0, 7, 7)
        verify_undetermined_edges(upper, scratch=scratch, search_ordering=True)
        grown = scratch.capacity
        big = random_graph(34, num_vertices=60, degree=2.5)
        upper = build_upper(big, 0, 59, 7)
        verify_undetermined_edges(upper, scratch=scratch, search_ordering=True)
        assert scratch.capacity >= grown
        assert scratch.capacity >= max(
            list(upper.out_adjacency) + list(upper.in_adjacency), default=0
        )

    def test_k5_skips_slice_materialisation(self):
        """At k = 5 the search never scans adjacency, so preparation skips
        the CSR copy and the ordering pass is a no-op."""
        graph = random_graph(35, num_vertices=24, degree=3.5)
        upper = build_upper(graph, 0, 23, 5)
        assert upper.undetermined_edges, "want a non-trivial k=5 upper"
        prepared = prepare_verification(upper)
        assert prepared.active and not prepared.scanning
        assert not prepared.scratch.touched
        prepared.apply_search_ordering()
        assert prepared.arr_epoch == 0 and prepared.dep_epoch == 0
        assert prepared.verify() == reference_answer(upper, ordered=False)


# ----------------------------------------------------------------------
# Backend independence: counters, spans and pooled-scratch accounting
# ----------------------------------------------------------------------
def _verification_span_profile(graph, batch, make_engine):
    """Sorted (edges_checked, edges_confirmed, expansions) across a batch."""
    tracer = Tracer()
    with make_engine(graph) as engine:
        engine.tracer = tracer
        report = engine.run_batch(batch)
        assert report.num_ok == len(batch)
        stats = engine.stats_snapshot()
    spans = [
        (
            event.attributes["edges_checked"],
            event.attributes["edges_confirmed"],
            event.attributes["expansions"],
        )
        for event in tracer.events()
        if event.name == "phase.verification"
    ]
    return sorted(spans), stats


class TestBackendIndependence:
    BACKENDS = ["serial", "process"]

    @staticmethod
    def _engine_factory(backend):
        return lambda graph: SPGEngine(
            graph, cache_size=0, max_workers=2, executor_backend=backend
        )

    def test_stats_identical_on_every_backend(self):
        """The same batch records identical verification span counters on
        serial and process engines."""
        graph = erdos_renyi(80, 3.0, seed=41, name="backend-verify")
        rng = random.Random(41)
        batch = [
            (*rng.sample(range(graph.num_vertices), 2), k)
            for k in (5, 6, 7, 8)
            for _ in range(3)
        ]
        profiles = {}
        for backend in self.BACKENDS:
            spans, stats = _verification_span_profile(
                graph, batch, self._engine_factory(backend)
            )
            profiles[backend] = spans
            # Pooled-scratch invariant, per backend: one bundle checkout per
            # computed query, split between allocations and reuses.
            assert (
                stats["scratch_allocations"] + stats["scratch_reuses"]
                == stats["cache_misses"]
            ), backend
            assert stats["scratch_allocations"] >= 1, backend
        serial = profiles["serial"]
        assert any(checked > 0 for checked, _, _ in serial)
        for backend in self.BACKENDS[1:]:
            assert profiles[backend] == serial, backend

    def test_small_k_early_exit_records_zero_work_span(self):
        """k < 5 skips the search but still records a verification span with
        all-zero counters, so phase coverage stays complete."""
        graph = random_graph(43, num_vertices=20, degree=2.5)
        tracer = Tracer()
        eve = EVE(graph)
        eve.query(0, 19, 4, tracer=tracer, scratch=QueryScratch())
        spans = [
            event for event in tracer.events() if event.name == "phase.verification"
        ]
        assert len(spans) == 1
        attrs = spans[0].attributes
        assert attrs["edges_checked"] == 0
        assert attrs["edges_confirmed"] == 0
        assert attrs["expansions"] == 0

    def test_single_worker_batch_allocates_one_scratch(self):
        """Zero per-query verification allocation: one worker, one bundle."""
        graph = random_graph(44, num_vertices=40, degree=2.5)
        queries = [(s, 39, 5 + s % 3) for s in range(8)]
        with SPGEngine(graph, cache_size=0, max_workers=1) as engine:
            report = engine.run_batch(queries)
            assert report.num_ok == len(queries)
            stats = engine.stats_snapshot()
        assert stats["scratch_allocations"] == 1
        assert stats["scratch_reuses"] == len(queries) - 1
