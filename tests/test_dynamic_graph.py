"""Dynamic graphs: delta overlays, epoch swap, and scoped invalidation.

Four layers of guarantees, each with its own differential oracle:

1. **Structure** — a :class:`~repro.graph.delta.DeltaOverlayView` is
   content-identical to a from-scratch :class:`DiGraph` over the mutated
   edge list (adjacency, CSR pairs, edge set), while splicing its CSR
   from the previous epoch and chaining its fingerprint lineage.
2. **Serving** — for random mutation schedules over generator topologies
   x ``k in {3..8}`` x executor backends, every post-delta engine answer
   is identical to a cold engine on a from-scratch rebuild at the same
   epoch, including answers served from retained cache entries.
3. **Scoped invalidation** — over-invalidation is allowed, under-
   invalidation is a failure: after every delta, every *retained* cache
   entry is audited against a from-scratch oracle; a localized-mutation
   workload must retain >= 50% of its entries (the acceptance bar); and
   the engine's stopping search decides every cached key exactly like two
   full-depth passes over the union of both epochs.
4. **Concurrency** — interleaving ``apply_delta`` with live
   ``run_batch``/``astream`` traffic never yields a torn epoch: each
   individual answer matches one of the graph epochs alive during the
   call, never a mix.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import threading
from array import array
from itertools import accumulate, chain

import pytest

from repro.core.eve import EVE, EVEConfig
from repro.exceptions import EdgeError, GraphError
from repro.graph import DeltaOverlayView, DiGraph, GraphDelta, apply_delta
from repro.graph.delta import _splice_csr
from repro.graph.generators import erdos_renyi, power_law_cluster
from repro.service import ResultCache, SPGEngine, make_cache_key
from repro.service.engine import _scoped_keep_predicate


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def random_delta(graph: DiGraph, rng: random.Random, inserts: int, deletes: int) -> GraphDelta:
    """A random delta against ``graph``: fresh edges in, existing edges out."""
    n = graph.num_vertices
    insert_edges = []
    for _ in range(inserts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            insert_edges.append((u, v))
    existing = sorted(graph.edge_set())
    delete_edges = rng.sample(existing, min(len(existing), deletes))
    insert_edges = [edge for edge in insert_edges if edge not in set(delete_edges)]
    return GraphDelta(inserts=insert_edges, deletes=delete_edges)


def mutated_edges(graph: DiGraph, delta: GraphDelta) -> set:
    """The edge set a from-scratch rebuild at the next epoch must have."""
    edges = graph.edge_set()
    edges.difference_update(delta.deletes)
    edges.update(delta.inserts)
    return edges


def rebuild(graph: DiGraph, delta: GraphDelta) -> DiGraph:
    return DiGraph(graph.num_vertices, sorted(mutated_edges(graph, delta)))


def random_queries(rng: random.Random, n: int, count: int, ks=(3, 4, 5, 6, 7, 8)):
    queries = []
    while len(queries) < count:
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            queries.append((s, t, rng.choice(ks)))
    return queries


def assert_same_outcomes(report, oracle_report):
    for got, want in zip(report, oracle_report):
        assert (got.source, got.target, got.k) == (want.source, want.target, want.k)
        assert (got.error is None) == (want.error is None), (got, want)
        assert got.edges == want.edges, (got.source, got.target, got.k)


def bounded_multi_source_distances(graph, sources, max_depth, reverse=False, extra_adjacency=None):
    """Depth-bounded multi-source BFS through ``graph`` plus extra edges.

    Starts from every vertex in ``sources`` at distance 0 and returns a
    ``{vertex: distance}`` dict for all vertices within ``max_depth``
    hops; ``extra_adjacency`` adds out-edges (in-edges when ``reverse``).
    One of the two full-depth passes of :func:`full_ball_keep`.
    """
    offsets, targets = graph.csr_reverse() if reverse else graph.csr()
    n = graph.num_vertices
    dist = {}
    frontier = []
    for source in sources:
        if 0 <= source < n and source not in dist:
            dist[source] = 0
            frontier.append(source)
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier = []
        for u in frontier:
            extra = extra_adjacency.get(u, ()) if extra_adjacency else ()
            for v in chain(targets[offsets[u]:offsets[u + 1]], extra):
                if v not in dist:
                    dist[v] = depth
                    next_frontier.append(v)
        frontier = next_frontier
    return dist


def full_ball_keep(graph, inserted, deleted, keys):
    """The k-ball keep test computed with two full-depth passes.

    Reverse from the touched tails and forward from the touched heads,
    both to ``max k - 1`` over ``graph`` plus the deleted edges; a key is
    kept when ``dist(s, tails) + 1 + dist(heads, t) > k``.  The oracle for
    the engine's search that stops once every key is decided.
    """
    keys = list(keys)
    if not keys:
        return lambda key: False
    k_max = max(key[2] for key in keys)
    extra_forward, extra_reverse = {}, {}
    for u, v in deleted:
        extra_forward.setdefault(u, []).append(v)
        extra_reverse.setdefault(v, []).append(u)
    touched = inserted + deleted
    depth = max(0, k_max - 1)
    to_tails = bounded_multi_source_distances(
        graph, {u for u, _ in touched}, depth, reverse=True, extra_adjacency=extra_reverse
    )
    from_heads = bounded_multi_source_distances(
        graph, {v for _, v in touched}, depth, extra_adjacency=extra_forward
    )

    def keep(key):
        source, target, k = key[0], key[1], key[2]
        if k > k_max:
            return False
        if source not in to_tails or target not in from_heads:
            return True
        return to_tails[source] + 1 + from_heads[target] > k

    return keep


# ----------------------------------------------------------------------
# GraphDelta validation
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_deduplicates_preserving_order(self):
        delta = GraphDelta(inserts=[(3, 4), (1, 2), (3, 4)], deletes=[(5, 6), (5, 6)])
        assert delta.inserts == ((3, 4), (1, 2))
        assert delta.deletes == ((5, 6),)
        assert delta.num_inserts == 2 and delta.num_deletes == 1

    def test_self_loops_dropped(self):
        delta = GraphDelta(inserts=[(2, 2), (0, 1)], deletes=[(7, 7)])
        assert delta.inserts == ((0, 1),)
        assert delta.deletes == ()
        assert delta.dropped_self_loops == 2

    def test_edge_in_both_lists_rejected(self):
        with pytest.raises(GraphError, match="both inserts and deletes"):
            GraphDelta(inserts=[(0, 1)], deletes=[(0, 1)])

    @pytest.mark.parametrize("bad", [(True, 1), (0, 2.5), ("a", 1), (None, 0)])
    def test_non_integer_endpoints_rejected(self, bad):
        with pytest.raises(GraphError, match="non-integer endpoint"):
            GraphDelta(inserts=[bad])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(GraphError, match="not a \\(u, v\\) pair"):
            GraphDelta(inserts=[(1, 2, 3)])

    def test_lists_accepted_as_pairs(self):
        delta = GraphDelta(inserts=[[0, 1]], deletes=[[2, 3]])
        assert delta.inserts == ((0, 1),) and delta.deletes == ((2, 3),)

    def test_out_of_range_rejected_at_apply(self):
        graph = DiGraph(4, [(0, 1)])
        with pytest.raises(EdgeError, match="outside"):
            apply_delta(graph, GraphDelta(inserts=[(0, 9)]))
        with pytest.raises(EdgeError, match="outside"):
            apply_delta(graph, GraphDelta(deletes=[(-1, 2)]))

    def test_empty_and_touched(self):
        assert GraphDelta().is_empty
        delta = GraphDelta(inserts=[(0, 1)], deletes=[(2, 3)])
        assert delta.touched_vertices() == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# Overlay structure vs from-scratch rebuild
# ----------------------------------------------------------------------
class TestDeltaOverlayView:
    def test_matches_rebuild_everywhere(self):
        rng = random.Random(11)
        graph = erdos_renyi(50, 3.0, seed=4)
        view = graph
        for step in range(12):
            delta = random_delta(view, rng, inserts=4, deletes=3)
            oracle = rebuild(view, delta)
            view = apply_delta(view, delta)
            assert isinstance(view, DeltaOverlayView)
            assert view == oracle
            assert view.num_edges == oracle.num_edges
            for u in range(50):
                assert sorted(view.out_neighbors(u)) == sorted(oracle.out_neighbors(u))
                assert sorted(view.in_neighbors(u)) == sorted(oracle.in_neighbors(u))
            # Each spliced CSR must equal the CSR a from-scratch graph
            # builds from that CSR's own edges in row order (same order,
            # same offsets).
            assert view.csr() == DiGraph(50, list(view.edges())).csr()
            flipped = DiGraph(50, list(view.reverse().edges()))
            assert view.csr_reverse() == flipped.csr()

    def test_idempotent_noops_are_skipped(self):
        graph = DiGraph(5, [(0, 1), (1, 2)])
        view = apply_delta(
            graph, GraphDelta(inserts=[(0, 1), (2, 3)], deletes=[(3, 4)])
        )
        assert view.applied_inserts == ((2, 3),)
        assert view.applied_deletes == ()
        noop = apply_delta(graph, GraphDelta(inserts=[(0, 1)], deletes=[(2, 0)]))
        assert noop.is_noop
        assert noop.fingerprint() == graph.fingerprint()

    def test_fingerprint_lineage(self):
        graph = erdos_renyi(30, 2.0, seed=1)
        delta = GraphDelta(inserts=[(0, 15)])
        view = apply_delta(graph, delta)
        assert view.fingerprint() != graph.fingerprint()
        assert view.root_fingerprint == graph.fingerprint()
        # Deterministic: same base + same net overlay -> same fingerprint,
        # regardless of the order the delta was split into steps.
        two_step = apply_delta(
            apply_delta(graph, GraphDelta(inserts=[(0, 15), (1, 16)])),
            GraphDelta(deletes=[(1, 16)]),
        )
        assert two_step.fingerprint() == view.fingerprint()
        # Content differs from an equal from-scratch graph's fingerprint —
        # allowed (over-invalidation only) and documented.
        assert view.fingerprint() != rebuild(graph, delta).fingerprint()

    def test_cancelling_delta_restores_root_fingerprint(self):
        graph = erdos_renyi(30, 2.0, seed=2)
        view = apply_delta(graph, GraphDelta(inserts=[(0, 15)]))
        back = apply_delta(view, GraphDelta(deletes=[(0, 15)]))
        assert back == graph
        assert back.fingerprint() == graph.fingerprint()
        assert back.overlay_size == 0

    def test_overlay_merges_instead_of_chaining(self):
        graph = erdos_renyi(30, 2.0, seed=3)
        view = graph
        rng = random.Random(5)
        for _ in range(6):
            view = apply_delta(view, random_delta(view, rng, 2, 1))
        assert isinstance(view, DeltaOverlayView)
        # The lineage root is still the original base, not an intermediate.
        assert view.root_fingerprint == graph.fingerprint()
        assert f"edges={view.num_edges}" in repr(view)

    def test_compact_shares_storage_and_fingerprint(self):
        graph = erdos_renyi(30, 2.0, seed=6)
        view = apply_delta(graph, GraphDelta(inserts=[(0, 15), (1, 16)]))
        compacted = view.compact()
        assert type(compacted) is DiGraph
        assert compacted == view
        assert compacted.fingerprint() == view.fingerprint()
        assert compacted.csr() is view.csr()
        assert compacted.csr_reverse() is view.csr_reverse()
        # Deltas on the compacted graph chain off the *new* root.
        next_view = apply_delta(compacted, GraphDelta(inserts=[(2, 17)]))
        assert next_view.root_fingerprint == compacted.fingerprint()
        assert next_view.overlay_size == 1

    def test_pickle_round_trip(self):
        graph = erdos_renyi(30, 2.0, seed=7)
        view = apply_delta(graph, GraphDelta(inserts=[(0, 15)], deletes=[]))
        clone = pickle.loads(pickle.dumps(view))
        assert isinstance(clone, DeltaOverlayView)
        assert clone == view
        assert clone.fingerprint() == view.fingerprint()
        assert clone.csr() == view.csr()
        # Unpickled views are detached (empty overlay, self-rooted).
        assert clone.overlay_size == 0

    def test_reverse_and_copy_still_work(self):
        graph = erdos_renyi(30, 2.0, seed=8)
        view = apply_delta(graph, GraphDelta(inserts=[(0, 15)]))
        reverse = view.reverse()
        assert reverse.edge_set() == {(v, u) for (u, v) in view.edge_set()}
        clone = view.copy()
        assert clone == view and clone.fingerprint() == view.fingerprint()

    def test_empty_graph_and_full_deletion(self):
        empty = DiGraph.empty(3)
        grown = apply_delta(empty, GraphDelta(inserts=[(0, 1), (1, 2)]))
        assert grown.edge_set() == {(0, 1), (1, 2)}
        bare = apply_delta(grown, GraphDelta(deletes=[(0, 1), (1, 2)]))
        assert bare.num_edges == 0
        assert bare.fingerprint() == empty.fingerprint()

    def test_splice_csr_against_reference(self):
        def flatten(rows):
            return (
                array("q", accumulate(map(len, rows), initial=0)),
                array("q", chain.from_iterable(rows)),
            )

        def random_row(rng, n, degree):
            return sorted(rng.sample(range(n), rng.randrange(0, min(n, degree) + 1)))

        # Which rows change, and to what.
        def any_rows(rng, rows, degree):
            n = len(rows)
            picked = rng.sample(range(n), rng.randrange(0, n + 1))
            return {u: random_row(rng, n, degree) for u in picked}

        def emptied(rng, rows, degree):  # a net-negative shift
            full = [u for u, row in enumerate(rows) if row]
            return {u: [] for u in full[:1] + rng.sample(full, len(full) // 2)}

        def ends(rng, rows, degree):
            return {u: random_row(rng, len(rows), degree) for u in {0, len(rows) - 1}}

        def every_row(rng, rows, degree):
            return {u: random_row(rng, len(rows), degree) for u in range(len(rows))}

        rng = random.Random(13)
        for change in (any_rows, emptied, ends, every_row):
            for trial in range(24):
                # Small graphs with rows up to every vertex, then a few
                # thousand vertices at sparse-graph degree.
                if trial < 20:
                    n, degree = rng.randrange(1, 12), 12
                else:
                    n, degree = rng.randrange(2000, 4000), 6
                adjacency = [random_row(rng, n, degree) for _ in range(n)]
                adjacency[rng.randrange(n)] = list(range(min(n, degree)))
                base = flatten(adjacency)
                changed = change(rng, adjacency, degree)
                expected = flatten([changed.get(u, adjacency[u]) for u in range(n)])
                if change is emptied:
                    assert len(expected[1]) < len(base[1])
                # An owned base, and the same base as memoryviews (what a
                # graph attached to a shared-memory block holds).
                for source in (base, tuple(memoryview(part) for part in base)):
                    spliced = _splice_csr(source, changed, n)
                    assert spliced == expected, (change.__name__, trial)
                    assert {type(part) for part in spliced} == {array}


# ----------------------------------------------------------------------
# The oracle's union-graph bounded multi-source BFS
# ----------------------------------------------------------------------
class TestBoundedMultiSourceDistances:
    def _oracle(self, edges, n, sources, depth):
        from collections import deque

        adjacency = {u: [] for u in range(n)}
        for u, v in edges:
            adjacency[u].append(v)
        dist = {s: 0 for s in sources}
        queue = deque(sources)
        while queue:
            u = queue.popleft()
            if dist[u] >= depth:
                continue
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_oracle_with_extra_edges(self, seed):
        rng = random.Random(seed)
        graph = erdos_renyi(40, 2.5, seed=seed)
        extra = {}
        extra_edges = []
        for _ in range(6):
            u, v = rng.randrange(40), rng.randrange(40)
            if u != v:
                extra.setdefault(u, []).append(v)
                extra_edges.append((u, v))
        sources = {rng.randrange(40) for _ in range(3)}
        depth = rng.randrange(0, 6)
        union_edges = list(graph.edge_set()) + extra_edges
        want = self._oracle(union_edges, 40, sources, depth)
        got = bounded_multi_source_distances(
            graph, sources, depth, extra_adjacency=extra
        )
        assert got == want
        # Reverse traversal == forward traversal of the flipped edges.
        reverse_extra = {}
        for u, v in extra_edges:
            reverse_extra.setdefault(v, []).append(u)
        want_reverse = self._oracle(
            [(v, u) for (u, v) in union_edges], 40, sources, depth
        )
        got_reverse = bounded_multi_source_distances(
            graph, sources, depth, reverse=True, extra_adjacency=reverse_extra
        )
        assert got_reverse == want_reverse

    def test_empty_sources_and_zero_depth(self):
        graph = erdos_renyi(10, 2.0, seed=0)
        assert bounded_multi_source_distances(graph, (), 5) == {}
        assert bounded_multi_source_distances(graph, (3,), 0) == {3: 0}


# ----------------------------------------------------------------------
# The invalidation search against the two full-depth passes
# ----------------------------------------------------------------------
class TestScopedKeepPredicate:
    TOPOLOGIES = {
        "erdos": lambda seed: erdos_renyi(60, 2.5, seed=seed),
        "power-law": lambda seed: power_law_cluster(60, 2, seed=seed),
    }
    #: ``(inserts, deletes)`` asked of :func:`random_delta`.
    DELTAS = {"insert": (4, 0), "delete": (0, 4), "mixed": (3, 2)}

    @staticmethod
    def _keys(rng, n, count, ks=range(1, 9)):
        keys = set()
        while len(keys) < count:
            s, t = rng.randrange(n), rng.randrange(n)
            if s != t:
                keys.add((s, t, rng.choice(ks)))
        return sorted(keys)

    @pytest.mark.parametrize("kind", sorted(DELTAS))
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_decides_every_key_like_the_full_passes(self, topology, kind):
        rng = random.Random(f"{topology}:{kind}")
        decisions = set()
        for seed in range(6):
            graph = self.TOPOLOGIES[topology](seed)
            view = apply_delta(graph, random_delta(graph, rng, *self.DELTAS[kind]))
            inserted, deleted = view.applied_inserts, view.applied_deletes
            for count in (1, 8, 60, 400):
                keys = self._keys(rng, 60, count)
                keep = _scoped_keep_predicate(view, inserted + deleted, keys)
                oracle = full_ball_keep(view, inserted, deleted, keys)
                for key in keys:
                    assert keep(key) == oracle(key), (seed, key, inserted, deleted)
                    decisions.add(keep(key))
                # A key put after the search stopped is kept only when the
                # final radii prove what the full passes would.
                for key in self._keys(rng, 60, 40, ks=range(1, max(k for *_, k in keys) + 1)):
                    assert not keep(key) or oracle(key), (seed, key, inserted, deleted)
        assert decisions == {True, False}

    def test_empty_cache_drops_racing_puts(self):
        graph = erdos_renyi(60, 2.5, seed=3)
        view = apply_delta(graph, GraphDelta(deletes=sorted(graph.edge_set())[:2]))
        keep = _scoped_keep_predicate(view, view.applied_deletes, [])
        assert not keep((40, 41, 1))
        assert not keep(make_cache_key(40, 41, 1, EVEConfig(), view.fingerprint()))

    def test_racing_put_above_k_max_is_dropped(self):
        graph = erdos_renyi(60, 2.5, seed=4)
        view = apply_delta(graph, random_delta(graph, random.Random(4), 2, 2))
        keys = self._keys(random.Random(5), 60, 30, ks=(1, 2, 3, 4))
        keep = _scoped_keep_predicate(view, view.applied_inserts + view.applied_deletes, keys)
        kept = [key for key in keys if keep(key)]
        assert kept
        for s, t, _ in kept:
            assert not keep((s, t, 5))
            assert not keep(make_cache_key(s, t, 5, EVEConfig(), "fp-old"))


# ----------------------------------------------------------------------
# ResultCache: rekey_fingerprint
# ----------------------------------------------------------------------
class TestCacheScopedInvalidation:
    CONFIG = EVEConfig()

    def _fill(self, cache, fingerprint, count, result):
        for index in range(count):
            cache.put(make_cache_key(index, index + 1, 4, self.CONFIG, fingerprint), result)

    def test_engine_counts_across_partial_invalidation(self):
        """EngineStats alone counts hits, misses and invalidated entries.

        After a delta, every distinct cached query is either retained (a
        hit on the next batch) or invalidated (recomputed).
        """
        graph = erdos_renyi(40, 2.0, seed=44)
        queries = list(dict.fromkeys(random_queries(random.Random(3), 40, 24)))
        with SPGEngine(graph) as engine:
            assert all(outcome.ok for outcome in engine.run_batch(queries))
            report = engine.apply_delta(GraphDelta(inserts=[(0, 1), (2, 3)]))
            assert report.cache_invalidated > 0 and report.cache_retained > 0
            assert report.cache_invalidated + report.cache_retained == len(queries)
            again = engine.run_batch(queries)
            stats = engine.stats
        assert again.cache_hits == report.cache_retained
        assert stats.cache_entries_invalidated == report.cache_invalidated
        assert stats.cache_entries_retained == report.cache_retained
        assert stats.cache_misses == len(queries) + report.cache_invalidated

    def test_rekey_fingerprint_migrates_and_drops(self, figure1_graph):
        result = EVE(figure1_graph, self.CONFIG).query(0, 3, 4)
        cache = ResultCache(64)
        self._fill(cache, "fp-old", 6, result)
        self._fill(cache, "fp-other", 3, result)
        invalidated, retained = cache.rekey_fingerprint(
            "fp-old", "fp-new", keep=lambda key: key[0] >= 2
        )
        assert (invalidated, retained) == (2, 4)
        fingerprints = {key[4] for key in cache.keys()}
        assert fingerprints == {"fp-new", "fp-other"}
        # Retained entries answer under the new fingerprint without a miss.
        assert cache.get(make_cache_key(2, 3, 4, self.CONFIG, "fp-new")) is result
        assert cache.get(make_cache_key(0, 1, 4, self.CONFIG, "fp-old")) is None

    def test_concurrent_invalidation_with_traffic(self, figure1_graph):
        result = EVE(figure1_graph, self.CONFIG).query(0, 3, 4)
        cache = ResultCache(512)
        stop = threading.Event()
        errors = []

        def traffic():
            rng = random.Random(0)
            while not stop.is_set():
                index = rng.randrange(64)
                key = make_cache_key(index, index + 1, 4, self.CONFIG, "fp")
                cache.put(key, result)
                cache.get(key)

        def invalidator():
            try:
                for _ in range(200):
                    # Re-keying onto the same fingerprint drops exactly the
                    # entries ``keep`` rejects.
                    cache.rekey_fingerprint("fp", "fp", keep=lambda key: key[0] % 3 != 0)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=traffic) for _ in range(3)]
        worker = threading.Thread(target=invalidator)
        for thread in threads:
            thread.start()
        worker.start()
        worker.join()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
        assert {key[4] for key in cache.keys()} <= {"fp"}
        assert cache.stats()["entries"] <= 64


# ----------------------------------------------------------------------
# The delta-vs-rebuild differential harness
# ----------------------------------------------------------------------
def run_schedule(engine_factory, graph, seed, steps=4, query_count=16):
    """Drive one engine through a random mutation schedule.

    After every delta the engine's answers (including cache hits — each
    round queries twice) are compared to a cold serial engine on a
    from-scratch ``DiGraph`` with the same edge set, and every *retained*
    cache entry is audited against a fresh EVE run on the new graph
    (under-invalidation check).
    """
    rng = random.Random(seed)
    engine = engine_factory(graph)
    current = graph
    try:
        queries = random_queries(rng, graph.num_vertices, query_count)
        engine.run_batch(queries)
        for step in range(steps):
            delta = random_delta(current, rng, inserts=3, deletes=2)
            current = rebuild(current, delta)
            report = engine.apply_delta(delta)
            assert engine.graph == current, f"step {step}: wrong edge set"

            with SPGEngine(current, executor_backend="serial", cache_size=0) as oracle:
                oracle_report = oracle.run_batch(queries)
                # First run may mix retained-cache hits and fresh computes;
                # second run must be all-hits — both must match the oracle.
                assert_same_outcomes(engine.run_batch(queries), oracle_report)
                second = engine.run_batch(queries)
                assert_same_outcomes(second, oracle_report)

            if engine.cache is not None:
                fingerprint = engine.graph.fingerprint()
                config = engine.config
                for key, cached in engine.cache.items():
                    if key[4] != fingerprint:
                        continue
                    expected = EVE(current, config).query(key[0], key[1], key[2])
                    assert cached.edges == expected.edges, (
                        f"stale retained entry {key[:3]} after step {step}"
                    )

            snapshot = engine.stats_snapshot()
            assert snapshot["graph_epoch"] == engine.graph_epoch
            assert snapshot["deltas_applied"] == step + 1
            assert snapshot["delta_edges_inserted"] >= report.inserted
            assert (
                report.cache_invalidated + report.cache_retained >= 0
            )
    finally:
        engine.close()


class TestDifferentialHarness:
    TOPOLOGIES = [
        ("erdos", lambda: erdos_renyi(48, 2.5, seed=21)),
        ("power-law", lambda: power_law_cluster(48, 3, seed=22)),
    ]

    @pytest.mark.parametrize("topology", [name for name, _ in TOPOLOGIES])
    def test_delta_answers_match_rebuild(self, topology):
        build = dict(self.TOPOLOGIES)[topology]
        run_schedule(
            lambda g: SPGEngine(g, max_workers=2),
            build(),
            seed=hash(("serial", topology)) % (2**31),
        )

    def test_process_backend_pool_refreshes_across_epochs(self):
        # One schedule on the process backend: the warm pool serving the
        # old fingerprint must be detected stale and rebuilt lazily, and
        # the answers must still match the from-scratch rebuild.
        run_schedule(
            lambda g: SPGEngine(g, executor_backend="process", max_workers=2),
            erdos_renyi(36, 2.5, seed=24),
            seed=99,
            steps=2,
            query_count=10,
        )

    def test_every_k_in_range(self):
        # Explicit sweep of the spec'd k range on one schedule: every k
        # gets its own query set against the same mutation sequence.
        rng = random.Random(31)
        graph = erdos_renyi(40, 2.5, seed=31)
        with SPGEngine(graph) as engine:
            current = graph
            for _ in range(3):
                delta = random_delta(current, rng, 3, 2)
                current = rebuild(current, delta)
                engine.apply_delta(delta)
                for k in range(3, 9):
                    queries = [
                        (s, t, k) for (s, t, _) in random_queries(rng, 40, 6)
                    ]
                    with SPGEngine(
                        current, executor_backend="serial", cache_size=0
                    ) as oracle:
                        assert_same_outcomes(
                            engine.run_batch(queries), oracle.run_batch(queries)
                        )


# ----------------------------------------------------------------------
# Engine delta semantics
# ----------------------------------------------------------------------
class TestEngineDeltaSemantics:
    def test_epoch_and_report_bookkeeping(self):
        graph = erdos_renyi(30, 2.0, seed=41)
        with SPGEngine(graph) as engine:
            assert engine.graph_epoch == 0
            report = engine.apply_delta(GraphDelta(inserts=[(0, 15)]))
            assert report.epoch == 1 and engine.graph_epoch == 1
            assert report.inserted == 1 and report.deleted == 0
            assert not report.noop
            # Idempotent replay: everything skipped, nothing changes.
            replay = engine.apply_delta(GraphDelta(inserts=[(0, 15)]))
            assert replay.noop and replay.skipped_inserts == 1
            assert engine.graph_epoch == 1
            snapshot = engine.stats_snapshot()
            assert snapshot["deltas_applied"] == 2
            assert snapshot["graph_epoch"] == 1

    def test_noop_delta_keeps_cache_warm(self):
        graph = erdos_renyi(30, 2.0, seed=42)
        with SPGEngine(graph) as engine:
            queries = random_queries(random.Random(1), 30, 8)
            engine.run_batch(queries)
            engine.run_batch(queries)
            existing = next(iter(graph.edge_set()))
            report = engine.apply_delta(GraphDelta(inserts=[existing]))
            assert report.noop
            outcomes = engine.run_batch(queries)
            assert all(outcome.cached for outcome in outcomes)

    def test_compaction_threshold_triggers(self, monkeypatch):
        monkeypatch.setattr("repro.service.engine.COMPACT_THRESHOLD", 4)
        graph = erdos_renyi(40, 2.0, seed=43)
        with SPGEngine(graph) as engine:
            report = engine.apply_delta(
                GraphDelta(inserts=[(0, 20), (1, 21), (2, 22)])
            )
            assert not report.compacted  # overlay size 3 < 4
            assert isinstance(engine.graph, DeltaOverlayView)
            report = engine.apply_delta(GraphDelta(inserts=[(3, 23), (4, 24)]))
            assert report.compacted  # overlay size 5 >= 4
            assert type(engine.graph) is DiGraph
            assert engine.stats_snapshot()["delta_compactions"] == 1
            # Post-compaction queries still serve correctly.
            with SPGEngine(
                DiGraph(40, sorted(engine.graph.edge_set())),
                executor_backend="serial",
                cache_size=0,
            ) as oracle:
                queries = random_queries(random.Random(2), 40, 8)
                assert_same_outcomes(
                    engine.run_batch(queries), oracle.run_batch(queries)
                )

    def test_out_of_range_delta_leaves_engine_untouched(self):
        graph = DiGraph(4, [(0, 1), (1, 2)])
        with SPGEngine(graph) as engine:
            with pytest.raises(EdgeError):
                engine.apply_delta(GraphDelta(inserts=[(0, 99)]))
            assert engine.graph is graph
            assert engine.graph_epoch == 0


# ----------------------------------------------------------------------
# Scoped invalidation: the >= 50% retention acceptance bar
# ----------------------------------------------------------------------
class TestScopedRetention:
    def _two_cluster_graph(self):
        """Two dense 30-vertex clusters joined by one long directed path.

        Queries inside cluster A (vertices 0..29) have k-balls that cannot
        reach cluster B (vertices 40..69) within k <= 5 hops: the bridge
        path 29 -> 30 -> ... -> 40 is 11 hops long.
        """
        rng = random.Random(51)
        edges = set()
        for base in (0, 40):
            for _ in range(120):
                u = base + rng.randrange(30)
                v = base + rng.randrange(30)
                if u != v:
                    edges.add((u, v))
        for u in range(29, 40):
            edges.add((u, u + 1))
        return DiGraph(70, sorted(edges))

    def test_localized_mutation_retains_majority(self):
        graph = self._two_cluster_graph()
        with SPGEngine(graph) as engine:
            rng = random.Random(52)
            queries = []
            while len(queries) < 20:
                s, t = rng.randrange(30), rng.randrange(30)
                if s != t:
                    queries.append((s, t, rng.choice((3, 4, 5))))
            engine.run_batch(queries)
            entries_before = len(engine.cache)
            assert entries_before >= 15

            # Mutate only cluster B: insert and delete edges far from
            # every cached query's k-ball.
            b_edges = [e for e in graph.edge_set() if e[0] >= 40]
            delta = GraphDelta(
                inserts=[(41, 55), (42, 56)], deletes=b_edges[:2]
            )
            report = engine.apply_delta(delta)
            assert not report.noop
            retention = report.cache_retained / max(
                1, report.cache_retained + report.cache_invalidated
            )
            assert retention >= 0.5, (
                f"scoped invalidation retained only {retention:.0%} on a "
                f"localized mutation ({report})"
            )
            # The retained entries actually serve: the same workload is
            # all cache hits, and matches a from-scratch oracle.
            outcomes = engine.run_batch(queries)
            assert all(outcome.cached for outcome in outcomes)
            rebuilt = rebuild(graph, delta)
            with SPGEngine(
                rebuilt, executor_backend="serial", cache_size=0
            ) as oracle:
                assert_same_outcomes(outcomes, oracle.run_batch(queries))

    def test_mutation_inside_ball_invalidates(self):
        graph = self._two_cluster_graph()
        with SPGEngine(graph) as engine:
            engine.query(0, 5, 4)
            # Delete an edge adjacent to the cached source: its ball
            # certainly intersects, so the entry must die.
            victim = next(e for e in graph.edge_set() if e[0] == 0)
            report = engine.apply_delta(GraphDelta(deletes=[victim]))
            assert report.cache_invalidated >= 1


# ----------------------------------------------------------------------
# Concurrent mutation under live traffic: no torn epochs
# ----------------------------------------------------------------------
class TestConcurrentMutation:
    def _oracle_answers(self, graphs, queries):
        """Per-query answer sets acceptable under each epoch."""
        table = []
        for s, t, k in queries:
            accepted = []
            for graph in graphs:
                try:
                    accepted.append(EVE(graph, EVEConfig()).query(s, t, k).edges)
                except Exception:
                    accepted.append(None)  # errored under this epoch
            table.append(accepted)
        return table

    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_batch_interleaved_with_apply_delta(self, seed):
        rng = random.Random(seed)
        base = erdos_renyi(36, 2.5, seed=seed)
        deltas = []
        graphs = [base]
        current = base
        for _ in range(3):
            delta = random_delta(current, rng, 2, 1)
            deltas.append(delta)
            current = rebuild(current, delta)
            graphs.append(current)
        queries = random_queries(rng, 36, 12)
        oracle = self._oracle_answers(graphs, queries)

        with SPGEngine(base, max_workers=2) as engine:
            start = threading.Barrier(2)
            mutator_done = threading.Event()

            def mutate():
                start.wait()
                for delta in deltas:
                    engine.apply_delta(delta)
                mutator_done.set()

            mutator = threading.Thread(target=mutate)
            mutator.start()
            start.wait()
            reports = []
            for _ in range(6):
                reports.append(engine.run_batch(queries))
            mutator.join()
            reports.append(engine.run_batch(queries))  # final epoch only

        for report in reports:
            for index, outcome in enumerate(report):
                accepted = oracle[index]
                if outcome.error is not None:
                    assert any(answer is None for answer in accepted), (
                        f"query {queries[index]} errored but no epoch errors"
                    )
                else:
                    assert outcome.edges in [a for a in accepted if a is not None], (
                        f"torn epoch: query {queries[index]} answer matches "
                        f"no single epoch"
                    )
        # The final batch (after all mutations) must match the last epoch.
        final = reports[-1]
        for index, outcome in enumerate(final):
            last = oracle[index][-1]
            if last is None:
                assert outcome.error is not None
            else:
                assert outcome.edges == last

    def test_astream_interleaved_with_apply_delta(self):
        rng = random.Random(7)
        base = erdos_renyi(36, 2.5, seed=7)
        delta = random_delta(base, rng, 3, 2)
        after = rebuild(base, delta)
        queries = random_queries(rng, 36, 10)
        oracle = self._oracle_answers([base, after], queries)

        async def drive():
            with SPGEngine(base, max_workers=2) as engine:
                outcomes = []
                stream = engine.astream(queries, batch_size=2)
                loop = asyncio.get_running_loop()
                applied = False
                async for outcome in stream:
                    outcomes.append(outcome)
                    if not applied and len(outcomes) == 4:
                        applied = True
                        await loop.run_in_executor(None, engine.apply_delta, delta)
                return outcomes

        outcomes = asyncio.run(drive())
        assert len(outcomes) == len(queries)
        for index, outcome in enumerate(outcomes):
            accepted = oracle[index]
            if outcome.error is not None:
                assert any(answer is None for answer in accepted)
            else:
                assert outcome.edges in [a for a in accepted if a is not None]

    def test_concurrent_mutators_serialize(self):
        base = erdos_renyi(30, 2.0, seed=9)
        with SPGEngine(base) as engine:
            inserts = [(u, (u + 15) % 30) for u in range(12)]
            inserts = [e for e in inserts if e not in base.edge_set()]

            def apply_one(edge):
                return engine.apply_delta(GraphDelta(inserts=[edge]))

            threads = [
                threading.Thread(target=apply_one, args=(edge,)) for edge in inserts
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert engine.graph_epoch == len(inserts)
            assert engine.graph.edge_set() == base.edge_set() | set(inserts)
            snapshot = engine.stats_snapshot()
            assert snapshot["delta_edges_inserted"] == len(inserts)
