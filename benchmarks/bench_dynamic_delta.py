"""Dynamic graphs: delta-overlay apply cost vs full CSR rebuild.

The point of the overlay design is that a small batch of edge changes
should cost Python work proportional to the *touched rows*, not the
whole graph: the touched rows are rebuilt from their CSR slices, and the
untouched CSR runs are spliced in C (one memcpy per run of targets, and
one memcpy or one big-int lane add per run of offsets; no per-offset
Python loop).  This benchmark makes that claim concrete on a graph large
enough for the difference to matter:

* **apply vs rebuild** — applying a small :class:`GraphDelta` through
  :func:`repro.graph.delta.apply_delta` (including the spliced CSR)
  must beat rebuilding a from-scratch :class:`DiGraph` over the mutated
  edge list by >= ``OVERLAY_SPEEDUP_BAR`` (best of repeats, identical
  resulting adjacency asserted).
* **scoped invalidation retention** — on a localized-mutation workload
  (cached queries clustered away from the touched region), the engine's
  k-ball scoped invalidation must retain >= ``RETENTION_BAR`` of the
  cache, and the retained entries must keep serving hits.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.service import SPGEngine

#: Overlay apply (small delta, large graph) vs full rebuild, best of repeats.
OVERLAY_SPEEDUP_BAR = 1.5

#: Scoped invalidation must keep at least this fraction of cache entries
#: on a mutation far away from every cached query's k-ball.
RETENTION_BAR = 0.5

APPLY_REPEATS = 5

#: Large enough that a full rebuild clearly pays O(n + m); small enough
#: that the benchmark stays in CI budget at the tiny preset.
NUM_VERTICES = 20_000
AVG_DEGREE = 4.0


def _delta_for(graph: DiGraph, rng: random.Random, changes: int) -> GraphDelta:
    inserts: List[Tuple[int, int]] = []
    while len(inserts) < changes:
        u, v = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
        if u != v and not graph.has_edge(u, v):
            inserts.append((u, v))
    deletes = rng.sample(sorted(graph.edge_set()), changes)
    deletes = [edge for edge in deletes if edge not in set(inserts)]
    return GraphDelta(inserts=inserts, deletes=deletes)


def test_overlay_apply_beats_full_rebuild(benchmark, show_table):
    rng = random.Random(97)
    graph = erdos_renyi(NUM_VERTICES, AVG_DEGREE, seed=97, name="delta-bench")
    delta = _delta_for(graph, rng, changes=32)

    def apply_overlay():
        view = apply_delta(graph, delta)
        view.csr()  # the spliced CSR is part of the apply cost
        view.csr_reverse()
        return view

    def full_rebuild():
        edges = graph.edge_set()
        edges.difference_update(delta.deletes)
        edges.update(delta.inserts)
        rebuilt = DiGraph(graph.num_vertices, sorted(edges), name="rebuilt")
        rebuilt.csr()
        rebuilt.csr_reverse()
        return rebuilt

    overlay_seconds = []
    rebuild_seconds = []
    view = rebuilt = None
    for _ in range(APPLY_REPEATS):
        started = time.perf_counter()
        view = apply_overlay()
        overlay_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        rebuilt = full_rebuild()
        rebuild_seconds.append(time.perf_counter() - started)
    # pytest-benchmark records the overlay apply as the measured operation.
    benchmark.pedantic(apply_overlay, rounds=1, iterations=1)

    assert view == rebuilt
    assert view.csr() is not None and rebuilt.csr() is not None

    best_overlay = min(overlay_seconds)
    best_rebuild = min(rebuild_seconds)
    speedup = best_rebuild / max(best_overlay, 1e-9)
    show_table(
        [
            {
                "graph": f"n={NUM_VERTICES} m={graph.num_edges}",
                "changes": delta.num_inserts + delta.num_deletes,
                "mode": "full rebuild",
                "seconds": round(best_rebuild, 4),
                "speedup": 1.0,
            },
            {
                "graph": f"n={NUM_VERTICES} m={graph.num_edges}",
                "changes": delta.num_inserts + delta.num_deletes,
                "mode": "delta overlay",
                "seconds": round(best_overlay, 4),
                "speedup": round(speedup, 2),
            },
        ],
        "Dynamic graphs: overlay apply vs full CSR rebuild",
    )
    assert speedup >= OVERLAY_SPEEDUP_BAR, (
        f"expected overlay apply >= {OVERLAY_SPEEDUP_BAR}x faster than a full "
        f"rebuild, got {speedup:.2f}x ({best_rebuild:.4f}s vs {best_overlay:.4f}s)"
    )


def _two_cluster_graph(cluster: int, bridge: int, seed: int) -> DiGraph:
    """Two dense clusters joined by one long path (localized k-balls)."""
    rng = random.Random(seed)
    second = cluster + bridge
    edges = set()
    for base in (0, second):
        for _ in range(cluster * 4):
            u = base + rng.randrange(cluster)
            v = base + rng.randrange(cluster)
            if u != v:
                edges.add((u, v))
    for u in range(cluster - 1, second):
        edges.add((u, u + 1))
    return DiGraph(second + cluster, sorted(edges), name="two-cluster")


def test_scoped_invalidation_retention(benchmark, show_table):
    graph = _two_cluster_graph(cluster=40, bridge=12, seed=31)
    rng = random.Random(32)
    with SPGEngine(graph, executor_backend="serial") as engine:
        queries = []
        while len(queries) < 48:
            s, t = rng.randrange(40), rng.randrange(40)
            if s != t:
                queries.append((s, t, rng.choice((3, 4, 5))))
        engine.run_batch(queries)
        entries_before = len(engine.cache)

        far = [edge for edge in graph.edge_set() if edge[0] >= 52]
        delta = GraphDelta(
            inserts=[(53, 70), (54, 71), (55, 72)], deletes=far[:3]
        )
        report = benchmark.pedantic(
            lambda: engine.apply_delta(delta), rounds=1, iterations=1
        )
        total = report.cache_retained + report.cache_invalidated
        retention = report.cache_retained / max(1, total)

        outcomes = engine.run_batch(queries)
        hits = sum(1 for outcome in outcomes if outcome.cached)
        show_table(
            [
                {
                    "entries": entries_before,
                    "invalidated": report.cache_invalidated,
                    "retained": report.cache_retained,
                    "retention": f"{retention:.0%}",
                    "post-delta hits": f"{hits}/{len(queries)}",
                }
            ],
            "Dynamic graphs: scoped invalidation on a localized mutation",
        )
        assert retention >= RETENTION_BAR, (
            f"scoped invalidation retained only {retention:.0%} "
            f"(bar {RETENTION_BAR:.0%}) on a localized mutation"
        )
        assert hits >= report.cache_retained
