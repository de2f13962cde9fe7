"""Figure 13(b) companion: verification kernel, dict/recursive vs flat.

Figure 13's case study attributes the per-query latency of EVE's final
phase to Algorithm 3; this file regression-guards that phase the same way
``bench_fig10b_distance.py`` and ``bench_fig11_labeling.py`` guard the
earlier ones: it times the retained dict-adjacency recursive oracle
(:mod:`repro.core.verification_reference`) against the explicit-stack flat
kernel (:mod:`repro.core.verification`) and asserts the >= 1.5x speedup
that justified moving verification onto the epoch-stamped buffer machinery.

The timed workload is UNDETERMINED-heavy by construction: a dense
Erdos-Renyi graph at ``k = 5`` yields upper-bound graphs where nearly every
edge is undetermined (tens of thousands per query), and each one must run
the Theorem 5.6 endpoint test.  That is the per-edge-overhead regime the
rewrite targets — the reference rebuilds a ``{u, v, s, t}`` set, recurses
through ``forward``/``backward`` and allocates two filtered endpoint lists
per edge, while the flat kernel settles the same edge with an epoch bump,
four stamp writes and an allocation-free inline scan.  Both sides follow
the production ordering policy (:class:`repro.core.eve.EVE` applies the
Section 5.3 ordering only for ``k >= 6``), so neither pays for an ordering
pass the pipeline would skip.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import verification_reference
from repro.core.distances import compute_distance_index
from repro.core.essential import propagate_backward, propagate_forward
from repro.core.labeling import compute_upper_bound
from repro.core.verification import (
    VerificationScratch,
    VerificationStats,
    prepare_verification,
)
from repro.graph.generators import erdos_renyi


def _undetermined_heavy_uppers(graph, k, seed, want, min_undetermined):
    """Sample s-t pairs until ``want`` uppers with rich undetermined sets."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    uppers = []
    tries = 0
    while len(uppers) < want and tries < 50 * want:
        tries += 1
        source, target = rng.sample(vertices, 2)
        index = compute_distance_index(graph, source, target, k)
        if index.shortest_st_distance() > k:
            continue
        forward = propagate_forward(graph, source, target, k, distances=index)
        backward = propagate_backward(graph, source, target, k, distances=index)
        upper = compute_upper_bound(
            graph, source, target, k, index, forward, backward
        )
        if len(upper.undetermined_edges) >= min_undetermined:
            uppers.append(upper)
    return uppers


def test_fig13b_verification_kernel_speedup(benchmark, scale, show_table):
    """Old recursive verification vs the flat kernel, answer-checked.

    Cross-checks confirmed-edge-set identity on the run's dataset proxies
    first (timing means nothing unless the kernels agree), then times both
    sides on a dense generated workload where every query carries thousands
    of undetermined edges, with the flat side reusing one pooled-style
    scratch (the serving configuration).  Asserts the acceptance bar of a
    >= 1.5x speedup.
    """
    scratch = VerificationScratch()

    # ------------------------------------------------------------------
    # Answer check on the run's dataset proxies, across k and ordering.
    proxy = max(
        (scale.load_graph(code) for code in scale.datasets),
        key=lambda g: g.num_edges,
    )
    for k in scale.hop_values:
        for query in scale.workload(proxy, k).queries:
            index = compute_distance_index(proxy, query.source, query.target, k)
            forward = propagate_forward(
                proxy, query.source, query.target, k, distances=index
            )
            backward = propagate_backward(
                proxy, query.source, query.target, k, distances=index
            )
            upper = compute_upper_bound(
                proxy, query.source, query.target, k, index, forward, backward
            )
            prepared = prepare_verification(upper, scratch=scratch)
            if k >= 6:
                prepared.apply_search_ordering()
                verification_reference.order_adjacency_reference(upper)
            assert prepared.verify() == (
                verification_reference.verify_undetermined_edges_reference(upper)
            )

    # ------------------------------------------------------------------
    # Time on the dense k = 5 workload: every upper is UNDETERMINED-heavy
    # and every undetermined edge costs one endpoint test.
    graph = erdos_renyi(5_000, 40.0, seed=scale.seed, name="verification-bench")
    k = 5
    uppers = _undetermined_heavy_uppers(
        graph, k, seed=scale.seed, want=10, min_undetermined=2_000
    )
    if len(uppers) < 5:  # pragma: no cover - dense generator always qualifies
        pytest.skip("not enough undetermined-heavy uppers in the generated graph")
    undetermined_total = sum(len(u.undetermined_edges) for u in uppers)
    assert undetermined_total >= 10_000, "workload is not undetermined-heavy"
    # Best-of-5 on both sides: the asserted ratio gates CI on shared
    # runners, so buy noise headroom with extra rounds.
    rounds = 5

    def run_reference() -> float:
        started = time.perf_counter()
        for upper in uppers:
            verification_reference.verify_undetermined_edges_reference(upper)
        return time.perf_counter() - started

    def run_flat() -> float:
        started = time.perf_counter()
        for upper in uppers:
            prepare_verification(upper, scratch=scratch).verify()
        return time.perf_counter() - started

    flat_answers = [
        prepare_verification(upper, scratch=scratch).verify() for upper in uppers
    ]
    reference_answers = [
        verification_reference.verify_undetermined_edges_reference(upper)
        for upper in uppers
    ]
    assert flat_answers == reference_answers

    reference_seconds = min(run_reference() for _ in range(rounds))
    # pedantic returns run_flat's result (the last round's wall time); fold
    # in extra rounds so both sides report their best-of-N.
    flat_seconds = benchmark.pedantic(run_flat, rounds=rounds, iterations=1)
    flat_seconds = min(flat_seconds, *(run_flat() for _ in range(rounds - 1)))

    stats = VerificationStats()
    for upper in uppers:
        prepare_verification(upper, scratch=scratch).verify(stats=stats)

    speedup = reference_seconds / max(flat_seconds, 1e-9)
    show_table(
        [
            {
                "graph": graph.name,
                "uppers": len(uppers),
                "undetermined": undetermined_total,
                "kernel": "dict/recursive (reference)",
                "seconds": round(reference_seconds, 4),
                "speedup": 1.0,
            },
            {
                "graph": graph.name,
                "uppers": len(uppers),
                "undetermined": undetermined_total,
                "kernel": "flat explicit-stack",
                "seconds": round(flat_seconds, 4),
                "speedup": round(speedup, 2),
            },
        ],
        f"Figure 13(b) kernel: dict/recursive vs flat verification, k = {k} "
        f"({stats.edges_checked} edges checked)",
    )
    assert speedup >= 1.5, (
        f"expected the flat verification kernel to be >= 1.5x faster than "
        f"the dict/recursive kernel on {graph.name}, got {speedup:.2f}x "
        f"({reference_seconds:.4f}s vs {flat_seconds:.4f}s)"
    )


def test_fig13b_verification_serving_allocations(scale):
    """Zero per-query verification allocation on the batch serving path.

    The engine-level twin of the kernel benchmark's claim: a single-worker
    batch checks out exactly one scratch bundle (which carries the
    verification buffers), so the ``scratch_*`` counters show one
    allocation however many cache misses the batch computes.
    """
    from repro.service import SPGEngine

    graph = erdos_renyi(2_000, 8.0, seed=scale.seed, name="verification-serving")
    rng = random.Random(scale.seed)
    vertices = sorted(graph.vertices())
    batch = []
    while len(batch) < 24:
        source, target = rng.sample(vertices, 2)
        batch.append((source, target, 5 + len(batch) % 3))
    with SPGEngine(graph, cache_size=0, max_workers=1) as engine:
        report = engine.run_batch(batch)
        assert report.num_ok == len(batch)
        stats = engine.stats_snapshot()
    assert stats["scratch_allocations"] == 1
    assert stats["scratch_allocations"] + stats["scratch_reuses"] == stats["cache_misses"]
