"""Figure 11 companion: propagation + labelling kernel, dict vs flat-buffer.

The Figure 11 ablation varies EVE's distance-search strategy; this file
regression-guards the *other* two phase-2 kernels along the same lines as
``bench_fig10b_distance.py`` does for distances: it times the retained
dict/frozenset propagation + per-edge labelling oracles
(:mod:`repro.core.essential_reference` /
:mod:`repro.core.labeling_reference`) against the CSR flat-buffer path
(:mod:`repro.core.essential` / :mod:`repro.core.labeling`) and asserts the
>= 1.5x speedup that justified moving those phases onto the flat-array
machinery.

The workload follows the Figure 10(b) observation: pairs whose distance is
small relative to ``k`` have the richest candidate spaces, which is where
essential-vertex propagation and labelling dominate per-query latency —
exactly the per-miss profile the serving engine sees.  The same workload
also holds ``build_spg`` (no scratch passed) to the speed of a query on an
explicitly reused scratch.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core import essential, essential_reference, labeling, labeling_reference
from repro.core import eve as eve_module
from repro.core.distances import compute_distance_index
from repro.core.eve import EVE, QueryScratch, ScratchPool, build_spg
from repro.core.verification import verify_undetermined_edges
from repro.graph.generators import erdos_renyi
from repro.queries.workload import distance_stratified_queries


def _close_pair_queries(graph, k, seed, per_distance=4, distances=(1, 2, 3)):
    buckets = distance_stratified_queries(
        graph, k, per_distance=per_distance, seed=seed, distances=list(distances)
    )
    return [
        (query.source, query.target)
        for distance in distances
        for query in buckets[distance].queries
    ]


def test_fig11_labeling_kernel_speedup(benchmark, scale, show_table):
    """Old dict propagation+labelling vs the flat kernel, answer-checked.

    Cross-checks every stored EV set, every label and the boundary maps on
    the run's dataset proxies first (timing means nothing unless the
    kernels agree), then times both sides on a generated graph large enough
    for kernel cost to dominate, with the flat side reusing one pooled-style
    scratch bundle (the serving configuration).  Asserts the acceptance bar
    of a >= 1.5x speedup.
    """
    scratch = QueryScratch()

    # ------------------------------------------------------------------
    # Answer check on the run's dataset proxies.
    proxy = max(
        (scale.load_graph(code) for code in scale.datasets),
        key=lambda g: g.num_edges,
    )
    proxy_k = max(scale.hop_values)
    for query in scale.workload(proxy, proxy_k).queries:
        for prune in (True, False):
            index = compute_distance_index(
                proxy, query.source, query.target, query.k, scratch=scratch
            )
            forward = essential.propagate_forward(
                proxy, query.source, query.target, query.k,
                distances=index, prune=prune, scratch=scratch.essential,
            )
            backward = essential.propagate_backward(
                proxy, query.source, query.target, query.k,
                distances=index, prune=prune, scratch=scratch.essential,
            )
            upper = labeling.compute_upper_bound(
                proxy, query.source, query.target, query.k, index, forward, backward
            )
            ref_forward = essential_reference.propagate_forward(
                proxy, query.source, query.target, query.k,
                distances=index, prune=prune,
            )
            ref_backward = essential_reference.propagate_backward(
                proxy, query.source, query.target, query.k,
                distances=index, prune=prune,
            )
            ref_upper = labeling_reference.compute_upper_bound(
                proxy, query.source, query.target, query.k,
                index, ref_forward, ref_backward,
            )
            for vertex in proxy.vertices():
                for level in range(query.k):
                    assert forward.get(vertex, level) == ref_forward.get(vertex, level)
                    assert backward.get(vertex, level) == ref_backward.get(vertex, level)
            assert upper.labels == ref_upper.labels
            assert upper.departures == ref_upper.departures
            assert upper.arrivals == ref_upper.arrivals
            assert verify_undetermined_edges(upper) == verify_undetermined_edges(ref_upper)

    # ------------------------------------------------------------------
    # Time on a graph big enough that kernel cost dominates, on the
    # close-pair workload where propagation/labelling dominate the query.
    graph = erdos_renyi(20_000, 8.0, seed=scale.seed, name="labeling-bench")
    k = 7
    graph.csr()
    graph.csr_reverse()
    queries = _close_pair_queries(graph, k, seed=scale.seed)
    if not queries:  # pragma: no cover - generator always has close pairs
        pytest.skip("no close pairs in the generated benchmark graph")
    # Distance indexes are shared, precomputed inputs: both kernels consume
    # the same maps (as they do inside EVE), so only phase 2 is timed.
    indexes = [compute_distance_index(graph, s, t, k) for s, t in queries]
    pairs = list(zip(queries, indexes))
    # Best-of-5 on both sides: the asserted ratio gates CI on shared
    # runners, so buy noise headroom with extra rounds (each is ~100ms).
    rounds = 5

    def run_reference() -> float:
        started = time.perf_counter()
        for (s, t), index in pairs:
            forward = essential_reference.propagate_forward(
                graph, s, t, k, distances=index
            )
            backward = essential_reference.propagate_backward(
                graph, s, t, k, distances=index
            )
            labeling_reference.compute_upper_bound(
                graph, s, t, k, index, forward, backward
            )
        return time.perf_counter() - started

    def run_flat() -> float:
        started = time.perf_counter()
        for (s, t), index in pairs:
            forward = essential.propagate_forward(
                graph, s, t, k, distances=index, scratch=scratch.essential
            )
            backward = essential.propagate_backward(
                graph, s, t, k, distances=index, scratch=scratch.essential
            )
            labeling.compute_upper_bound(graph, s, t, k, index, forward, backward)
        return time.perf_counter() - started

    reference_seconds = min(run_reference() for _ in range(rounds))
    # pedantic returns run_flat's result (the last round's wall time); fold
    # in extra rounds so both sides report their best-of-N.
    flat_seconds = benchmark.pedantic(run_flat, rounds=rounds, iterations=1)
    flat_seconds = min(flat_seconds, *(run_flat() for _ in range(rounds - 1)))

    speedup = reference_seconds / max(flat_seconds, 1e-9)
    show_table(
        [
            {
                "graph": graph.name,
                "queries": len(pairs),
                "kernel": "dict (reference)",
                "seconds": round(reference_seconds, 4),
                "speedup": 1.0,
            },
            {
                "graph": graph.name,
                "queries": len(pairs),
                "kernel": "flat CSR + scratch",
                "seconds": round(flat_seconds, 4),
                "speedup": round(speedup, 2),
            },
        ],
        f"Figure 11 kernel: dict vs flat propagation + labelling, k = {k}",
    )
    assert speedup >= 1.5, (
        f"expected the flat propagation+labelling kernel to be >= 1.5x faster "
        f"than the dict kernel on {graph.name}, got {speedup:.2f}x "
        f"({reference_seconds:.4f}s vs {flat_seconds:.4f}s)"
    )


def test_fig11_labeling_serving_allocations(scale):
    """Zero per-query propagation allocation on the batch serving path.

    The engine-level twin of the kernel benchmark's claim: a single-worker
    batch checks out exactly one scratch bundle (which carries the
    propagation buffers), so the ``scratch_*`` counters show one allocation
    however many cache misses the batch computes.
    """
    from repro.service import SPGEngine

    graph = erdos_renyi(2_000, 4.0, seed=scale.seed, name="labeling-serving")
    queries = _close_pair_queries(graph, 5, seed=scale.seed, per_distance=6)
    batch = [(s, t, 5) for s, t in queries]
    with SPGEngine(graph, cache_size=0, max_workers=1) as engine:
        report = engine.run_batch(batch)
        assert report.num_ok == len(batch)
        stats = engine.stats_snapshot()
    assert stats["scratch_allocations"] == 1
    assert stats["scratch_allocations"] + stats["scratch_reuses"] == stats["cache_misses"]


def test_fig11_build_spg_matches_pooled_path(scale, show_table, monkeypatch):
    """``build_spg`` with no scratch runs as fast as an explicit reused one.

    ``build_spg`` borrows from the core :data:`repro.core.eve.SCRATCH_POOL`,
    so on a graph where a fresh O(n) scratch per call would dominate, the
    README path must keep pace with ``EVE.query(scratch=QueryScratch())``.
    Checks identical answers, exactly one pooled allocation (deterministic),
    and a loose >= 0.8x throughput bar (wall time on shared runners is
    noise; a per-call allocation measured about 30x slower).
    """
    pool = ScratchPool()
    monkeypatch.setattr(eve_module, "SCRATCH_POOL", pool)
    graph = erdos_renyi(20_000, 4.0, seed=scale.seed, name="build-spg-pool")
    k = 6
    graph.csr()
    graph.csr_reverse()
    queries = _close_pair_queries(graph, k, seed=scale.seed)
    scratch = QueryScratch()
    eve = EVE(graph)

    def timed(answer):
        started = time.perf_counter()
        answers = [answer(s, t).edges for s, t in queries]
        return time.perf_counter() - started, answers

    # Alternate the two paths round by round so collector pauses and
    # runner noise land on both; keep each side's best round.
    gc.collect()
    build_seconds = pooled_seconds = float("inf")
    for _ in range(7):
        spent, build_answers = timed(lambda s, t: build_spg(graph, s, t, k))
        build_seconds = min(build_seconds, spent)
        spent, pooled_answers = timed(lambda s, t: eve.query(s, t, k, scratch=scratch))
        pooled_seconds = min(pooled_seconds, spent)
    assert build_answers == pooled_answers
    assert pool.allocations == 1
    ratio = pooled_seconds / max(build_seconds, 1e-9)
    show_table(
        [
            {"path": "EVE.query(scratch=QueryScratch())", "queries": len(queries),
             "seconds": round(pooled_seconds, 4), "relative": 1.0},
            {"path": "build_spg (core pool)", "queries": len(queries),
             "seconds": round(build_seconds, 4), "relative": round(ratio, 2)},
        ],
        f"build_spg vs explicit scratch on {graph.name}, k = {k}",
    )
    assert ratio >= 0.8, (
        f"build_spg should reach >= 0.8x the pooled path's throughput, got "
        f"{ratio:.2f}x ({build_seconds:.4f}s vs {pooled_seconds:.4f}s)"
    )
