"""Tests for the serving layer (repro.service) and its core reuse hooks.

Covers the graph fingerprint, the shared backward-pass hook in
``repro.core.distances``/``repro.core.eve``, the LRU result cache, the
batch planner, ``SPGEngine`` (batch == sequential,
cache hit/invalidation, determinism under threads, error isolation,
streaming), the workload adapters, and a CLI round trip.
"""

from __future__ import annotations

import importlib
import json
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import DiGraph, EVEConfig, SPGEngine, build_spg
from repro.core.distances import (
    backward_distance_map,
    bounded_bfs,
    compute_distance_index,
)
from repro.core.eve import EVE
from repro.exceptions import QueryError
from repro.graph.generators import erdos_renyi, power_law_cluster
from repro.queries.workload import (
    Query,
    random_reachable_queries,
    target_grouped_queries,
    workloads_to_batch,
)
from repro.service import (
    EngineConfig,
    EngineStats,
    LatencyWindow,
    ResultCache,
    make_cache_key,
    plan_batch,
)
from repro.service.workload_io import iter_query_lines, outcome_record, parse_query_line

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# Graph fingerprint
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_graphs_share_fingerprint(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        a = DiGraph(3, edges, name="a")
        b = DiGraph(3, reversed(edges), name="b")  # order/name must not matter
        assert a.fingerprint() == b.fingerprint()

    def test_different_edges_differ(self):
        a = DiGraph(3, [(0, 1), (1, 2)])
        b = DiGraph(3, [(0, 1), (2, 1)])
        assert a.fingerprint() != b.fingerprint()

    def test_vertex_count_matters(self):
        a = DiGraph(3, [(0, 1)])
        b = DiGraph(4, [(0, 1)])
        assert a.fingerprint() != b.fingerprint()

    def test_cached_and_stable(self):
        g = erdos_renyi(20, 2.0, seed=1)
        first = g.fingerprint()
        assert g.fingerprint() is first  # cached string object

    def test_copy_and_reverse(self):
        g = erdos_renyi(15, 2.0, seed=2)
        assert g.copy().fingerprint() == g.fingerprint()
        rev = g.reverse()
        assert rev.fingerprint() != g.fingerprint()
        assert rev.reverse().fingerprint() == g.fingerprint()


# ----------------------------------------------------------------------
# Shared backward pass (core reuse hooks)
# ----------------------------------------------------------------------
class TestSharedBackward:
    def test_backward_map_is_full_reverse_bfs(self, figure1_graph, figure1_ids):
        t = figure1_ids("t")
        shared = backward_distance_map(figure1_graph, t, 4)
        assert shared.distances == bounded_bfs(figure1_graph, t, 4, reverse=True)
        assert shared.target == t and shared.k == 4

    def test_index_exact_on_candidate_space(self):
        for seed in range(5):
            g = erdos_renyi(25, 3.0, seed=seed)
            rng = random.Random(seed)
            s, t = rng.sample(range(25), 2)
            k = 5
            shared = backward_distance_map(g, t, k)
            index = compute_distance_index(g, s, t, k, shared_backward=shared)
            reference = compute_distance_index(g, s, t, k, strategy="single")
            assert index.candidate_vertices() == reference.candidate_vertices()
            for v in reference.candidate_vertices():
                assert index.dist_from_source(v) == reference.dist_from_source(v)
                assert index.dist_to_target(v) == reference.dist_to_target(v)

    def test_eve_answers_identical_with_shared_backward(self):
        for seed in range(8):
            g = power_law_cluster(22, 2, seed=seed)
            rng = random.Random(seed + 100)
            for _ in range(5):
                s, t = rng.sample(range(22), 2)
                for k in (3, 5, 7):
                    shared = backward_distance_map(g, t, k)
                    with_shared = EVE(g).query(s, t, k, shared_backward=shared)
                    cold = build_spg(g, s, t, k)
                    assert with_shared.edges == cold.edges
                    assert with_shared.upper_bound_edges == cold.upper_bound_edges
                    assert with_shared.labels == cold.labels

    def test_wider_budget_is_accepted(self, diamond_graph):
        shared = backward_distance_map(diamond_graph, 3, 5)
        result = EVE(diamond_graph).query(0, 3, 2, shared_backward=shared)
        assert result.edges == build_spg(diamond_graph, 0, 3, 2).edges

    def test_mismatched_target_rejected(self, diamond_graph):
        shared = backward_distance_map(diamond_graph, 2, 3)
        with pytest.raises(QueryError, match="target"):
            compute_distance_index(diamond_graph, 0, 3, 3, shared_backward=shared)

    def test_narrower_budget_rejected(self, diamond_graph):
        shared = backward_distance_map(diamond_graph, 3, 2)
        with pytest.raises(QueryError, match="k="):
            compute_distance_index(diamond_graph, 0, 3, 4, shared_backward=shared)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _key(self, i: int):
        return make_cache_key(i, i + 1, 3, EVEConfig(), "fp")

    def test_get_put_and_size_stats(self):
        cache = ResultCache(max_entries=4)
        assert cache.get(self._key(0)) is None
        cache.put(self._key(0), "r0")
        assert cache.get(self._key(0)) == "r0"
        # Hits and misses are EngineStats' to count, not the cache's.
        assert cache.stats() == {"entries": 1, "max_entries": 4, "evictions": 0}

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(self._key(0), "r0")
        cache.put(self._key(1), "r1")
        cache.get(self._key(0))  # refresh 0; 1 becomes LRU
        cache.put(self._key(2), "r2")
        assert cache.get(self._key(1)) is None
        assert cache.get(self._key(0)) == "r0"
        assert cache.evictions == 1

    def test_config_and_fingerprint_partition_keys(self):
        verify_on = make_cache_key(0, 1, 3, EVEConfig(), "fp")
        verify_off = make_cache_key(0, 1, 3, EVEConfig(verify=False), "fp")
        other_graph = make_cache_key(0, 1, 3, EVEConfig(), "fp2")
        assert len({verify_on, verify_off, other_graph}) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_thread_safety_smoke(self):
        cache = ResultCache(max_entries=64)

        def worker(base: int) -> None:
            for i in range(200):
                key = self._key((base * 200 + i) % 100)
                cache.put(key, i)
                cache.get(key)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_groups_by_target_and_k(self):
        queries = [(0, 9, 4), (1, 9, 4), (2, 8, 4), (3, 9, 5), (4, 9, 4)]
        plan = plan_batch(queries)
        by_key = {(g.target, g.k): g for g in plan.groups}
        assert set(by_key) == {(9, 4), (8, 4), (9, 5)}
        assert [q.index for q in by_key[(9, 4)].queries] == [0, 1, 4]
        assert by_key[(9, 4)].shared
        assert not by_key[(8, 4)].shared and not by_key[(9, 5)].shared
        assert plan.num_queries == 5
        assert plan.num_shared_groups == 1
        assert plan.reused_backward_passes == 2

    def test_deterministic_group_order(self):
        queries = [(i, i % 3, 4) for i in range(12)]
        first = plan_batch(queries)
        second = plan_batch(list(queries))
        assert [(g.target, g.k) for g in first.groups] == [
            (g.target, g.k) for g in second.groups
        ]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestSPGEngine:
    def test_batch_equals_sequential_over_random_graphs(self):
        for seed in range(6):
            graph = erdos_renyi(28, 2.5, seed=seed)
            workload = random_reachable_queries(graph, 4, 12, seed=seed)
            engine = SPGEngine(graph, max_workers=4)
            report = engine.run_batch(workload.as_batch())
            assert len(report) == 12
            for outcome, query in zip(report, workload):
                reference = build_spg(graph, query.source, query.target, query.k)
                assert outcome.ok
                assert outcome.edges == reference.edges

    def test_accepts_tuples_queries_and_mappings(self, diamond_graph):
        engine = SPGEngine(diamond_graph)
        report = engine.run_batch(
            [(0, 3, 2), Query(source=0, target=3, k=2), {"source": 0, "target": 3, "k": 2}]
        )
        expected = build_spg(diamond_graph, 0, 3, 2).edges
        assert [o.edges for o in report] == [expected] * 3
        # All three normalise to one query: two are in-batch dedup hits.
        assert report.cache_hits == 2

    def test_cache_hits_across_batches(self, small_dense_graph):
        workload = random_reachable_queries(small_dense_graph, 4, 8, seed=3)
        queries = sorted(set(workload.as_batch()))  # drop in-batch duplicates
        engine = SPGEngine(small_dense_graph, max_workers=1)
        first = engine.run_batch(queries)
        second = engine.run_batch(queries)
        assert first.cache_hits == 0
        assert second.cache_hits == len(queries)
        assert [o.edges for o in first] == [o.edges for o in second]
        assert engine.stats.hit_rate == 0.5

    def test_graph_swap_invalidates_and_equal_graph_rehits(self, small_dense_graph):
        workload = random_reachable_queries(small_dense_graph, 4, 6, seed=4)
        engine = SPGEngine(small_dense_graph, max_workers=1)
        engine.run_batch(workload.as_batch())

        # A genuinely different graph must not serve stale results.
        edges = small_dense_graph.to_edge_list()
        changed = DiGraph(
            small_dense_graph.num_vertices, edges[:-1], name="changed"
        )
        engine.set_graph(changed)
        changed_report = engine.run_batch(workload.as_batch())
        assert changed_report.cache_hits == 0
        for outcome, query in zip(changed_report, workload):
            if outcome.ok:
                reference = build_spg(changed, query.source, query.target, query.k)
                assert outcome.edges == reference.edges

        # Swapping back to an *equal* graph (new object) hits again.
        engine.set_graph(small_dense_graph.copy(name="same-content"))
        rehit = engine.run_batch(workload.as_batch())
        assert rehit.cache_hits == len(workload)

    def test_concurrent_execution_is_deterministic(self):
        graph = power_law_cluster(40, 2, seed=9)
        queries = [(s, t, 5) for s in range(8) for t in range(30, 38) if s != t]
        reports = []
        for _ in range(3):
            engine = SPGEngine(graph, max_workers=8)
            reports.append(engine.run_batch(queries))
        baseline = [(o.source, o.target, o.k, sorted(o.edges)) for o in reports[0]]
        for report in reports[1:]:
            assert [(o.source, o.target, o.k, sorted(o.edges)) for o in report] == baseline

    def test_error_isolation(self, diamond_graph):
        engine = SPGEngine(diamond_graph, max_workers=4)
        report = engine.run_batch([(0, 0, 2), (99, 3, 2), (0, 3, -1), (0, 3, 2)])
        assert [outcome.ok for outcome in report] == [False, False, False, True]
        assert "distinct" in report.outcomes[0].error
        assert "vertex" in report.outcomes[1].error
        assert report.errors == 3
        assert report.outcomes[3].edges == build_spg(diamond_graph, 0, 3, 2).edges

    def test_errors_are_not_cached(self, diamond_graph):
        engine = SPGEngine(diamond_graph, max_workers=1)
        for _ in range(2):
            report = engine.run_batch([(0, 0, 2)])
            assert not report.outcomes[0].ok
            assert report.cache_hits == 0

    def test_shared_groups_report_reuse(self):
        graph = erdos_renyi(30, 3.0, seed=11)
        workload = target_grouped_queries(graph, 4, 2, 3, seed=11)
        engine = SPGEngine(graph, max_workers=1)
        report = engine.run_batch(workload.as_batch())
        assert report.shared_groups == 2
        assert report.reused_backward_passes == 4
        assert all(outcome.reused_backward for outcome in report)
        for outcome, query in zip(report, workload):
            assert outcome.edges == build_spg(
                graph, query.source, query.target, query.k
            ).edges

    def test_single_query_api_and_stats(self, small_dense_graph):
        engine = SPGEngine(small_dense_graph)
        workload = random_reachable_queries(small_dense_graph, 4, 1, seed=5)
        query = workload.queries[0]
        first = engine.query(query.source, query.target, query.k)
        second = engine.query(query.source, query.target, query.k)
        assert first.edges == second.edges
        snapshot = engine.stats_snapshot()
        assert snapshot["queries_served"] == 2
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache"]["entries"] == 1
        with pytest.raises(QueryError):
            engine.query(query.source, query.source, query.k)
        assert engine.stats_snapshot()["errors"] == 1

    def test_cache_disabled(self, small_dense_graph):
        engine = SPGEngine(small_dense_graph, cache_size=0, max_workers=1)
        assert engine.cache is None
        workload = random_reachable_queries(small_dense_graph, 4, 4, seed=6)
        for _ in range(2):
            report = engine.run_batch(workload.as_batch())
            assert report.cache_hits == 0

    def test_run_stream_orders_and_chunks(self):
        graph = erdos_renyi(25, 2.5, seed=13)
        workload = random_reachable_queries(graph, 4, 10, seed=13)
        engine = SPGEngine(graph, max_workers=2)
        outcomes = list(engine.run_stream(iter(workload.as_batch()), batch_size=3))
        assert [(o.source, o.target) for o in outcomes] == [
            (q.source, q.target) for q in workload
        ]
        assert engine.stats.batches_served == 4  # ceil(10 / 3)

    def test_malformed_queries_are_isolated(self, diamond_graph):
        engine = SPGEngine(diamond_graph)
        report = engine.run_batch(
            [(0, 3), {"s": 0, "t": 3, "k": 2}, ("a", "b", 2), (0, 3, 2)]
        )
        assert [outcome.ok for outcome in report] == [False, False, False, True]
        assert "triples" in report.outcomes[0].error
        assert "source/target/k" in report.outcomes[1].error
        assert "non-integer" in report.outcomes[2].error
        assert report.outcomes[3].edges == build_spg(diamond_graph, 0, 3, 2).edges

    def test_errored_duplicates_do_not_count_as_hits(self, diamond_graph):
        engine = SPGEngine(diamond_graph, max_workers=1)
        report = engine.run_batch([(0, 99, 2), (0, 99, 2)])
        assert [outcome.ok for outcome in report] == [False, False]
        assert report.cache_hits == 0
        assert engine.stats_snapshot()["hit_rate"] == 0.0

    def test_snapshot_reports_one_hit_count(self):
        """Regression: the cache's own lookup count disagreed with EngineStats.

        The in-batch duplicate is a hit for the engine (computed once), but
        the cache saw three misses, so one snapshot reported hit rates of
        1/3 and 0.
        """
        engine = SPGEngine(erdos_renyi(200, 4.0, seed=1))
        engine.run_batch([(0, 5, 4), (0, 5, 4), (1, 5, 4)])
        snapshot = engine.stats_snapshot()
        assert (snapshot["cache_hits"], snapshot["cache_misses"]) == (1, 2)
        assert snapshot["hit_rate"] == pytest.approx(1 / 3)
        assert snapshot["cache"] == {"entries": 2, "max_entries": 1024, "evictions": 0}

    @pytest.mark.parametrize(
        "name, value", [("cache_size", -7), ("cache_size", -1), ("max_workers", 0), ("max_workers", -2)]
    )
    def test_out_of_range_sizes_rejected(self, diamond_graph, name, value):
        """Regression: a negative cache size used to turn the cache off, and
        the backends clamped a worker count below 1 to 1."""
        with pytest.raises(ValueError, match=name):
            SPGEngine(diamond_graph, **{name: value})
        with pytest.raises(ValueError, match=name):
            SPGEngine.from_config(diamond_graph, EngineConfig(**{name: value}))


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
class TestStats:
    def test_latency_window_quantiles(self):
        window = LatencyWindow(capacity=100)
        for value in range(1, 101):
            window.record(value / 1000.0)
        assert window.quantile(0.5) == pytest.approx(0.050)
        assert window.quantile(0.95) == pytest.approx(0.095)
        assert window.quantile(1.0) == pytest.approx(0.100)
        assert window.quantile(0.0) == pytest.approx(0.001)

    def test_latency_window_wraps(self):
        window = LatencyWindow(capacity=4)
        for value in (1.0, 2.0, 3.0, 4.0, 10.0, 20.0):
            window.record(value)
        assert window.recorded == 6
        assert len(window) == 4
        assert window.quantile(1.0) == 20.0

    def test_engine_stats_reset(self):
        stats = EngineStats()
        stats.record_query(0.01, cached=False)
        stats.record_query(0.0, cached=True, reused_backward=True)
        assert stats.hit_rate == 0.5
        assert stats.shared_backward_reuses == 1
        stats.reset()
        assert stats.queries_served == 0
        assert stats.snapshot()["p95_ms"] == 0.0


# ----------------------------------------------------------------------
# Workload adapters
# ----------------------------------------------------------------------
class TestWorkloadAdapters:
    def test_as_batch_and_merge(self, small_dense_graph):
        first = random_reachable_queries(small_dense_graph, 3, 3, seed=1)
        second = random_reachable_queries(small_dense_graph, 4, 2, seed=2)
        batch = workloads_to_batch([first, second])
        assert batch == first.as_batch() + second.as_batch()
        assert all(len(entry) == 3 for entry in batch)

    def test_target_grouped_queries_shape(self):
        graph = erdos_renyi(30, 3.0, seed=21)
        workload = target_grouped_queries(graph, 4, 3, 4, seed=21)
        assert len(workload) == 12
        by_target = {}
        for query in workload:
            by_target.setdefault(query.target, set()).add(query.source)
            assert query.distance is not None and query.distance <= 4
        assert len(by_target) == 3
        assert all(len(sources) == 4 for sources in by_target.values())

    def test_target_grouped_queries_too_sparse(self):
        path = DiGraph(3, [(0, 1), (1, 2)], name="path")
        with pytest.raises(QueryError):
            target_grouped_queries(path, 2, 3, 2, seed=0)


# ----------------------------------------------------------------------
# Workload IO + CLI
# ----------------------------------------------------------------------
class TestWorkloadIO:
    def test_parse_json_and_plain_lines(self):
        assert parse_query_line('{"source": 1, "target": 2, "k": 3}') == (1, 2, 3)
        assert parse_query_line("a b 4") == ("a", "b", 4)
        with pytest.raises(QueryError):
            parse_query_line("1 2")
        with pytest.raises(QueryError):
            parse_query_line('{"source": 1}')

    def test_iter_skips_blanks_and_comments(self):
        lines = ["# header", "", "0 1 3", "  ", "{\"source\": 2, \"target\": 0, \"k\": 2}"]
        assert list(iter_query_lines(lines)) == [("0", "1", 3), (2, 0, 2)]

    def test_outcome_record_relabel(self, diamond_graph):
        engine = SPGEngine(diamond_graph)
        outcome = engine.run_batch([(0, 3, 2)]).outcomes[0]
        record = outcome_record(outcome, relabel=lambda v: f"v{v}")
        assert record["source"] == "v0" and record["target"] == "v3"
        assert ["v0", "v3"] in [list(edge) for edge in record["edges"]]


class TestCLI:
    def _run(self, args, stdin_text):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=300,
            env={"PYTHONPATH": str(SRC_DIR)},
        )
        return completed

    def test_round_trip_on_edge_list(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("# toy\na b\nb c\na c\nc d\n", encoding="utf-8")
        stdin_text = (
            '{"source": "a", "target": "d", "k": 3}\n'
            "a d 3\n"          # duplicate -> cache/dedup hit
            "a zzz 2\n"        # unknown label -> isolated error
        )
        completed = self._run(["--edges", str(edges), "--stats"], stdin_text)
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in completed.stdout.splitlines()]
        assert len(records) == 3
        assert records[0]["ok"] and records[0]["num_edges"] == 4
        assert sorted(map(tuple, records[0]["edges"])) == [
            ("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")
        ]
        assert records[1]["ok"] and records[1]["cached"]
        assert records[1]["edges"] == records[0]["edges"]
        assert not records[2]["ok"] and "zzz" in records[2]["error"]
        stats = json.loads(completed.stderr.strip().splitlines()[-1])
        assert stats["queries_served"] == 2

    def test_round_trip_matches_build_spg_on_dataset(self, tmp_path):
        from repro.datasets import load_dataset

        graph = load_dataset("ps", scale=0.08)
        workload = random_reachable_queries(graph, 4, 5, seed=7)
        queries_file = tmp_path / "queries.jsonl"
        queries_file.write_text(
            "".join(
                json.dumps({"source": q.source, "target": q.target, "k": q.k}) + "\n"
                for q in workload
            ),
            encoding="utf-8",
        )
        completed = self._run(
            ["--dataset", "ps", "--scale", "0.08", "--queries", str(queries_file)],
            "",
        )
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in completed.stdout.splitlines()]
        assert len(records) == 5
        for record, query in zip(records, workload):
            reference = build_spg(graph, query.source, query.target, query.k)
            assert record["ok"]
            assert sorted(map(tuple, record["edges"])) == sorted(reference.edges)

    def test_bad_graph_source_fails_cleanly(self):
        completed = self._run(["--edges", "/nonexistent/graph.txt"], "")
        assert completed.returncode == 2
        assert "could not load graph" in completed.stderr

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_flag_round_trip(self, tmp_path, backend):
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\na c\nc d\n", encoding="utf-8")
        completed = self._run(
            ["--edges", str(edges), "--backend", backend, "--workers", "2", "--stats"],
            "a d 3\nb d 2\n",
        )
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in completed.stdout.splitlines()]
        assert [record["ok"] for record in records] == [True, True]
        assert sorted(map(tuple, records[0]["edges"])) == [
            ("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")
        ]
        stats = json.loads(completed.stderr.strip().splitlines()[-1])
        assert stats["executor_backend"] == backend

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "async"):
            completed = self._run(["--dataset", "ps", "--backend", backend], "")
            assert completed.returncode == 2
            assert "--backend" in completed.stderr


class TestSharedCLIFlags:
    """``python -m repro.service`` and ``python -m repro.service.http``
    declare their graph and engine flags once, in ``workload_io``."""

    SHARED_ARGV = [
        "--dataset", "ps", "--scale", "0.05", "--seed", "3", "--workers", "3",
        "--backend", "serial", "--cache-size", "17", "--strategy", "single",
        "--no-verify",
    ]

    @staticmethod
    def _config_built_by(main, argv, monkeypatch):
        """Run a CLI's ``main`` up to its engine and return the config it built."""
        built = []

        def capture(graph, config):
            built.append(config)
            raise ValueError("stop before serving")

        monkeypatch.setattr(SPGEngine, "from_config", capture)
        assert main(argv) == 2
        return built[0]

    def test_both_clis_build_the_same_engine_config(self, tmp_path, monkeypatch):
        from repro.service.__main__ import main as service_main
        from repro.service.http.__main__ import main as http_main

        queries = tmp_path / "queries.jsonl"
        queries.write_text("", encoding="utf-8")
        offline = self._config_built_by(
            service_main, [*self.SHARED_ARGV, "--queries", str(queries)], monkeypatch
        )
        served = self._config_built_by(http_main, self.SHARED_ARGV, monkeypatch)
        assert offline == served == EngineConfig(
            strategy="single",
            verify=False,
            cache_size=17,
            max_workers=3,
            executor_backend="serial",
        )

    @pytest.mark.parametrize("module", ["repro.service.__main__", "repro.service.http.__main__"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--distance-strategy", "single"),
            ("--min-group-size", "4"),
            ("--compact-threshold", "4"),
            ("--coalesce-max-batch", "4"),
        ],
    )
    def test_removed_flags_rejected(self, module, flag, value, capsys):
        parser = importlib.import_module(module).build_parser()
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(["--dataset", "ps", flag, value])
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module, flag, value, error",
        [
            ("repro.service.__main__", "--cache-size", "-1", "invalid engine configuration"),
            ("repro.service.__main__", "--workers", "0", "invalid engine configuration"),
            ("repro.service.http.__main__", "--cache-size", "-1", "invalid configuration"),
            ("repro.service.http.__main__", "--workers", "0", "invalid configuration"),
            ("repro.service.http.__main__", "--drain-timeout", "-1", "invalid configuration"),
        ],
    )
    def test_out_of_range_values_exit_2(
        self, module, flag, value, error, tmp_path, capsys, monkeypatch
    ):
        """Regression: both CLIs used to serve with the size values."""
        argv = ["--dataset", "ps", "--scale", "0.05", flag, value]
        if module == "repro.service.__main__":
            queries = tmp_path / "queries.jsonl"
            queries.write_text("0 5 4\n", encoding="utf-8")
            argv += ["--queries", str(queries)]
        assert self._main(module, monkeypatch)(argv) == 2
        assert f"error: {error}" in capsys.readouterr().err

    @staticmethod
    def _main(module, monkeypatch):
        """A CLI's ``main``; the HTTP one returns 0 where it would serve."""
        cli = importlib.import_module(module)
        if hasattr(cli, "_serve"):
            async def serve_nothing(frontend, drain_timeout):
                return 0

            monkeypatch.setattr(cli, "_serve", serve_nothing)
        return cli.main


class TestConfigurationSurface:
    """Every setting the engine, the HTTP front end and the two CLIs take.

    Adding or removing a setting means editing this list.
    """

    def test_engine_and_http_settings(self):
        import dataclasses
        import inspect

        from repro.service.http import HTTPConfig

        assert [field.name for field in dataclasses.fields(EngineConfig)] == [
            "strategy", "forward_looking", "search_ordering", "verify",
            "cache_size", "max_workers", "executor_backend", "shared_memory",
        ]
        assert list(inspect.signature(SPGEngine).parameters) == [
            "graph", "config",
            "cache_size", "max_workers", "executor_backend", "shared_memory", "tracer",
        ]
        assert [field.name for field in dataclasses.fields(HTTPConfig)] == [
            "host", "port", "max_queue_depth",
            "tenant_rate", "tenant_burst", "tenant_header", "default_tenant",
        ]

    SHARED_FLAGS = [
        "--dataset", "--edges", "--scale", "--seed", "--workers", "--backend",
        "--cache-size", "--strategy", "--no-verify",
    ]

    OWN_FLAGS = {
        "repro.service.__main__": [
            "--queries", "--no-edges", "--stats", "--metrics-out", "--trace-out",
        ],
        "repro.service.http.__main__": [
            "--host", "--port", "--max-queue-depth", "--tenant-rate", "--tenant-burst",
            "--drain-timeout", "--trace",
        ],
    }

    @pytest.mark.parametrize("module", sorted(OWN_FLAGS))
    def test_cli_flags(self, module):
        parser = importlib.import_module(module).build_parser()
        flags = [
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        assert flags == self.SHARED_FLAGS + self.OWN_FLAGS[module]


# ----------------------------------------------------------------------
# CLI ingestion: endpoint coercion, translation failures, telemetry loss
# ----------------------------------------------------------------------
class TestVertexIdCoercion:
    def test_integral_values_accepted(self):
        from repro.service.workload_io import coerce_vertex_id

        assert coerce_vertex_id(5) == 5
        assert coerce_vertex_id(3.0) == 3
        assert coerce_vertex_id("7") == 7

    def test_non_integral_float_rejected(self):
        from repro.service.workload_io import coerce_vertex_id

        with pytest.raises(QueryError, match="integral"):
            coerce_vertex_id(2.9)

    def test_boolean_rejected(self):
        # bool is a subclass of int: int(True) == 1 would silently answer
        # for vertex 1, a different query than the caller wrote.
        from repro.service.workload_io import coerce_vertex_id

        with pytest.raises(QueryError, match="boolean"):
            coerce_vertex_id(True)
        with pytest.raises(QueryError, match="boolean"):
            coerce_vertex_id(False)

    def test_garbage_rejected(self):
        from repro.service.workload_io import coerce_vertex_id

        with pytest.raises(QueryError):
            coerce_vertex_id("x7")
        with pytest.raises(QueryError):
            coerce_vertex_id(None)

    def test_translate_queries_isolates_failures_in_order(self):
        from repro.service.workload_io import translate_queries

        good, failed = translate_queries(
            [(0, 5, 3), (2.9, 5, 3), (1, True, 4), (4.0, "6", 2)]
        )
        assert good == [(0, 5, 3), (4, 6, 2)]
        assert [index for index, _ in failed] == [1, 2]
        assert "integral" in failed[0][1]
        assert "boolean" in failed[1][1]


class TestCLIIngestion:
    def _run(self, args, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=300,
            env={"PYTHONPATH": str(SRC_DIR)},
        )

    def test_non_integral_endpoints_error_per_query(self):
        """Regression: 2.9 used to be silently truncated to vertex 2."""
        stdin_text = (
            '{"source": 2.9, "target": 9, "k": 3}\n'
            '{"source": true, "target": 9, "k": 3}\n'
            '{"source": 3.0, "target": 9, "k": 3}\n'
        )
        completed = self._run(["--dataset", "ps", "--scale", "0.08"], stdin_text)
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in completed.stdout.splitlines()]
        assert len(records) == 3
        assert not records[0]["ok"] and "integral" in records[0]["error"]
        assert records[0]["source"] == 2.9  # echoed back, not truncated
        assert not records[1]["ok"] and "boolean" in records[1]["error"]
        assert records[2]["ok"] and records[2]["source"] == 3

    def test_bad_queries_path_exits_2(self):
        completed = self._run(
            ["--dataset", "ps", "--queries", "/nonexistent/queries.jsonl"], ""
        )
        assert completed.returncode == 2
        assert "could not read queries" in completed.stderr

    def test_stdin_and_queries_file_parity(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\na c\nc d\n", encoding="utf-8")
        workload = 'a d 3\n{"source": "b", "target": "d", "k": 2}\na zzz 2\n'
        queries_file = tmp_path / "queries.jsonl"
        queries_file.write_text(workload, encoding="utf-8")

        from_stdin = self._run(["--edges", str(edges)], workload)
        from_file = self._run(
            ["--edges", str(edges), "--queries", str(queries_file)], ""
        )
        assert from_stdin.returncode == 0, from_stdin.stderr
        assert from_file.returncode == 0, from_file.stderr

        def stable(output):
            records = []
            for line in output.splitlines():
                record = json.loads(line)
                record.pop("latency_ms", None)
                records.append(record)
            return records

        assert stable(from_stdin.stdout) == stable(from_file.stdout)

    def test_all_queries_failing_translation_still_interleaves(self, tmp_path):
        """With --edges, every query failing translation must still emit
        one error record per query, in input order, with exit 0."""
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\n", encoding="utf-8")
        stdin_text = 'zzz c 2\n{"source": 2.9, "target": "c", "k": 3}\nqqq b 2\n'
        completed = self._run(["--edges", str(edges), "--stats"], stdin_text)
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in completed.stdout.splitlines()]
        assert len(records) == 3
        assert [record["ok"] for record in records] == [False, False, False]
        assert records[0]["source"] == "zzz"
        assert records[1]["source"] == 2.9
        assert records[2]["source"] == "qqq"
        stats = json.loads(completed.stderr.strip().splitlines()[-1])
        assert stats["queries_served"] == 0


class TestTelemetryOnBatchFailure:
    def test_exports_survive_run_batch_failure(self, tmp_path, monkeypatch, capsys):
        """Regression: --stats/--metrics-out/--trace-out used to be lost
        whenever engine.run_batch raised."""
        from repro.service.__main__ import main as service_main

        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\n", encoding="utf-8")
        queries = tmp_path / "queries.jsonl"
        queries.write_text("a c 2\n", encoding="utf-8")
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"

        def explode(self, *args, **kwargs):
            raise RuntimeError("batch exploded")

        monkeypatch.setattr(SPGEngine, "run_batch", explode)
        with pytest.raises(RuntimeError, match="batch exploded"):
            service_main(
                [
                    "--edges", str(edges),
                    "--queries", str(queries),
                    "--stats",
                    "--metrics-out", str(metrics),
                    "--trace-out", str(trace),
                ]
            )

        captured = capsys.readouterr()
        stats_line = captured.err.strip().splitlines()[0]
        assert json.loads(stats_line)["queries_served"] == 0
        assert metrics.exists()
        assert "repro_queries_served_total 0" in metrics.read_text(encoding="utf-8")
        assert trace.exists()  # no spans recorded, but the export ran
