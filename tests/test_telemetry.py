"""Tests for the phase-level telemetry stack (repro.telemetry + stats).

Covers the tracer (bounded ring, spans, JSONL export, worker-event
merging), the Prometheus text-format renderers and the strict exposition
parser, the :class:`LatencyWindow` histogram/quantile mechanics,
:class:`EngineStats` exposition and worker-counter merging (including a
concurrent scrape-while-recording hammer), the EVE query spans, the
cross-backend telemetry consistency contract (every executor backend
reports identical phase counters, and phase spans cover >= 85% of
recorded miss latency), and the service CLI's telemetry exports.
"""

from __future__ import annotations

import io
import json
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.core.eve import EVE
from repro.core.result import PHASE_NAMES
from repro.graph.generators import erdos_renyi
from repro.service import EngineStats, LatencyWindow, SPGEngine
from repro.service.executor import EXECUTOR_BACKENDS
from repro.service.stats import DEFAULT_LATENCY_BUCKETS, METRICS
from repro.telemetry import (
    NOOP_TRACER,
    NoopTracer,
    TraceEvent,
    Tracer,
    parse_exposition,
    render_counter,
    render_gauge,
    render_histogram,
)
from repro.telemetry.prometheus import samples_by_name

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"


def _event(name: str = "x", duration: float = 0.001, **attributes) -> TraceEvent:
    return TraceEvent(
        name=name, started=0.0, duration=duration, wall_time=1.0, attributes=attributes
    )


# ======================================================================
# Tracer
# ======================================================================
class TestTracer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_record_returns_and_retains_event(self):
        tracer = Tracer()
        event = tracer.record("phase.distance", 10.0, 0.25, strategy="adaptive")
        assert event.name == "phase.distance"
        assert event.duration == 0.25
        assert event.attributes == {"strategy": "adaptive"}
        assert tracer.events() == [event]
        assert len(tracer) == 1

    def test_ring_drops_oldest_and_counts_dropped(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.record(f"e{index}", 0.0, 0.0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [event.name for event in tracer.events()] == ["e2", "e3", "e4"]

    def test_extend_merges_worker_events(self):
        tracer = Tracer()
        tracer.extend([_event("a"), _event("b")])
        assert [event.name for event in tracer.events()] == ["a", "b"]

    def test_span_measures_and_records_attributes(self):
        tracer = Tracer()
        with tracer.span("work", fixed=1) as span:
            span.set(late=2)
        (event,) = tracer.events()
        assert event.name == "work"
        assert event.duration >= 0.0
        assert event.attributes == {"fixed": 1, "late": 2}

    def test_span_records_on_exception_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [event.name for event in tracer.events()] == ["failing"]

    def test_drain_empties_buffer(self):
        tracer = Tracer()
        tracer.record("a", 0.0, 0.0)
        drained = tracer.drain()
        assert [event.name for event in drained] == ["a"]
        assert len(tracer) == 0
        assert tracer.drain() == []

    def test_clear_resets_dropped(self):
        tracer = Tracer(capacity=1)
        tracer.record("a", 0.0, 0.0)
        tracer.record("b", 0.0, 0.0)
        assert tracer.dropped == 1
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_export_jsonl_to_handle_and_path(self, tmp_path):
        tracer = Tracer()
        tracer.record("query", 1.0, 0.5, source=0, target=3, k=2)
        buffer = io.StringIO()
        assert tracer.export_jsonl(buffer) == 1
        record = json.loads(buffer.getvalue())
        assert record["name"] == "query"
        assert record["duration_seconds"] == 0.5
        assert record["attributes"] == {"source": 0, "target": 3, "k": 2}

        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        assert json.loads(path.read_text(encoding="utf-8")) == record
        # export does not drain
        assert len(tracer) == 1

    def test_events_are_picklable(self):
        import pickle

        event = _event("phase.distance", strategy="adaptive", index_size=7)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event

    def test_noop_tracer_records_nothing(self, tmp_path):
        noop = NoopTracer()
        assert noop.record("a", 0.0, 0.0) is None
        noop.append(_event())
        noop.extend([_event()])
        with noop.span("s") as span:
            span.set(ignored=True)
        assert noop.events() == [] and noop.drain() == []
        assert len(noop) == 0
        assert noop.export_jsonl(str(tmp_path / "never.jsonl")) == 0
        assert not (tmp_path / "never.jsonl").exists()
        assert NOOP_TRACER.enabled is False and Tracer().enabled is True


# ======================================================================
# Prometheus rendering
# ======================================================================
class TestPrometheusRender:
    def test_counter_golden(self):
        assert render_counter("repro_queries_served_total", "Queries served.", 7) == [
            "# HELP repro_queries_served_total Queries served.",
            "# TYPE repro_queries_served_total counter",
            "repro_queries_served_total 7",
        ]

    def test_gauge_with_labels_and_float_value(self):
        lines = render_gauge("pool_size", "Pool size.", 0.5, labels={"pool": "a b"})
        assert lines[2] == 'pool_size{pool="a b"} 0.5'

    def test_histogram_golden(self):
        lines = render_histogram(
            "lat_seconds",
            "Latency.",
            [({"phase": "distance"}, (0.1, 1.0), [2, 3], 0.75, 4)],
        )
        assert lines == [
            "# HELP lat_seconds Latency.",
            "# TYPE lat_seconds histogram",
            'lat_seconds_bucket{phase="distance",le="0.1"} 2',
            'lat_seconds_bucket{phase="distance",le="1"} 3',
            'lat_seconds_bucket{phase="distance",le="+Inf"} 4',
            'lat_seconds_sum{phase="distance"} 0.75',
            'lat_seconds_count{phase="distance"} 4',
        ]

    def test_histogram_rejects_non_cumulative_counts(self):
        with pytest.raises(ValueError, match="cumulative"):
            render_histogram("h", "x", [(None, (0.1, 1.0), [3, 2], 0.0, 3)])

    def test_histogram_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="bounds"):
            render_histogram("h", "x", [(None, (0.1,), [1, 2], 0.0, 2)])

    def test_histogram_rejects_finite_buckets_exceeding_count(self):
        with pytest.raises(ValueError, match="count"):
            render_histogram("h", "x", [(None, (0.1,), [5], 0.0, 3)])

    def test_invalid_metric_and_label_names_rejected(self):
        with pytest.raises(ValueError):
            render_counter("bad-name", "x", 1)
        with pytest.raises(ValueError):
            render_gauge("ok", "x", 1, labels={"bad-label": "v"})
        with pytest.raises(ValueError):
            render_gauge("ok", "x", 1, labels={"__reserved": "v"})

    def test_label_value_escaping_round_trips_through_parser(self):
        tricky = 'quote " backslash \\ newline \n end'
        lines = render_gauge("g", "help", 1.0, labels={"value": tricky})
        (sample,) = parse_exposition("\n".join(lines))
        assert sample.labels == {"value": tricky}


# ======================================================================
# Prometheus parsing
# ======================================================================
class TestPrometheusParser:
    VALID = (
        "# free-form comment, skipped\n"
        "# HELP requests_total The total.\n"
        "# TYPE requests_total counter\n"
        "requests_total 10\n"
        "# TYPE lat histogram\n"
        'lat_bucket{le="0.1"} 1\n'
        'lat_bucket{le="+Inf"} 2\n'
        "lat_sum 0.3\n"
        "lat_count 2\n"
        "free_sample 1.5e-3 1700000000\n"
    )

    def test_parses_valid_exposition(self):
        samples = parse_exposition(self.VALID)
        grouped = samples_by_name(samples)
        assert grouped["requests_total"][0].value == 10
        assert [s.labels["le"] for s in grouped["lat_bucket"]] == ["0.1", "+Inf"]
        assert grouped["free_sample"][0].value == pytest.approx(0.0015)

    def test_histogram_family_samples_after_type_are_legal(self):
        # _bucket/_sum/_count resolve to the typed family, so no error.
        parse_exposition(self.VALID)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("metric oops\n", "bad sample value"),
            ("9metric 1\n", "bad metric name"),
            ('m{le="0.1" 1\n', "unterminated label"),
            ('m{le="a\\q"} 1\n', "invalid escape"),
            ('m{le="1",le="2"} 1\n', "duplicate label"),
            ("# TYPE m wat\nm 1\n", "unknown metric type"),
            ("# TYPE m counter\n# TYPE m counter\nm 1\n", "repeated TYPE"),
            ("m 1\n# TYPE m counter\n", "after its samples"),
            ("# TYPE m\n", "TYPE needs a name and a type"),
            ("m 1 not-a-timestamp\n", "bad timestamp"),
        ],
    )
    def test_grammar_violations_raise(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_exposition(text)


# ======================================================================
# LatencyWindow
# ======================================================================
class TestLatencyWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(capacity=0)
        with pytest.raises(ValueError):
            LatencyWindow(buckets=())
        with pytest.raises(ValueError):
            LatencyWindow(buckets=(0.1, 0.1))
        with pytest.raises(ValueError):
            LatencyWindow().quantile(1.5)

    def test_capacity_is_public(self):
        assert LatencyWindow(capacity=16).capacity == 16
        assert LatencyWindow().bucket_bounds == DEFAULT_LATENCY_BUCKETS

    def test_quantiles_nearest_rank(self):
        window = LatencyWindow()
        for value in (0.1, 0.2, 0.3, 0.4):
            window.record(value)
        assert window.quantile(0.0) == 0.1
        assert window.quantile(0.5) == 0.2
        assert window.quantile(1.0) == 0.4

    def test_quantile_cache_invalidated_by_record(self):
        window = LatencyWindow()
        window.record(0.5)
        assert window.quantile(1.0) == 0.5  # populates the cached sort
        window.record(0.9)
        assert window.quantile(1.0) == 0.9  # cache was invalidated

    def test_histogram_is_cumulative_and_survives_ring_overwrite(self):
        window = LatencyWindow(capacity=2, buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5, 0.5, 0.5):
            window.record(value)
        bounds, cumulative, total, count = window.histogram()
        assert bounds == (0.1, 1.0)
        # The ring only retains the last 2 samples, but the histogram
        # remembers all 5 — Prometheus counters never decrease.
        assert len(window) == 2
        assert cumulative == [2, 5]
        assert count == window.recorded == 5
        assert total == pytest.approx(0.05 * 2 + 0.5 * 3)
        assert window.sum_seconds == total

    def test_bucket_counts_monotone_for_random_samples(self):
        window = LatencyWindow()
        rng = random.Random(3)
        for _ in range(500):
            window.record(rng.expovariate(100.0))
        _, cumulative, _, count = window.histogram()
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] <= count == 500

    def test_sample_above_every_bound_lands_only_in_inf(self):
        window = LatencyWindow(buckets=(0.1,))
        window.record(5.0)
        _, cumulative, _, count = window.histogram()
        assert cumulative == [0] and count == 1

    def test_reset(self):
        window = LatencyWindow(capacity=4)
        for value in (0.1, 0.2):
            window.record(value)
        window.reset()
        assert len(window) == 0 and window.recorded == 0
        assert window.quantile(0.5) == 0.0
        _, cumulative, total, count = window.histogram()
        assert sum(cumulative) == 0 and total == 0.0 and count == 0
        window.record(0.3)
        assert window.quantile(0.5) == 0.3


# ======================================================================
# EngineStats: exposition + worker-counter merging
# ======================================================================
def _golden_stats() -> EngineStats:
    """One EngineStats fed through every ``record_*`` method.

    Latencies are powers of two, so every sum and quantile is exact.
    """
    stats = EngineStats()
    stats.record_query(
        2.0**-7,
        cached=False,
        reused_backward=True,
        phases={
            "distance": 2.0**-10,
            "propagation": 2.0**-12,
            "upper_bound": 2.0**-13,
            "ordering": 0.0,
            "verification": 2.0**-9,
        },
    )
    stats.record_query(2.0**-13, cached=True)
    stats.record_query(2.0**-4, cached=False, error=True)
    stats.record_batch()
    stats.record_scratch(reused=False)
    stats.record_scratch(reused=True)
    stats.merge_counters({"scratch_reuses": 2})
    for decision in ("admitted", "admitted", "shed", "quota", "draining"):
        stats.record_admission(decision)
    stats.set_queue_depth(3)
    stats.set_queue_depth(1)
    stats.record_delta(inserted=3, deleted=1, invalidated=2, retained=5, compacted=True, epoch=4)
    return stats


#: ``_golden_stats().snapshot()``, recorded before the stats surfaces were
#: generated from :data:`repro.service.stats.METRICS`; the matching
#: exposition is ``data/engine_stats.prom``.
GOLDEN_SNAPSHOT = {
    "queries_served": 3,
    "batches_served": 1,
    "cache_hits": 1,
    "cache_misses": 2,
    "hit_rate": 1 / 3,
    "errors": 1,
    "shared_backward_reuses": 1,
    "scratch_allocations": 1,
    "scratch_reuses": 3,
    "http_requests_admitted": 2,
    "http_requests_shed": 1,
    "http_quota_rejections": 1,
    "http_drain_rejections": 1,
    "http_queue_depth": 1,
    "http_queue_depth_peak": 3,
    "deltas_applied": 1,
    "delta_edges_inserted": 3,
    "delta_edges_deleted": 1,
    "delta_compactions": 1,
    "cache_entries_invalidated": 2,
    "cache_entries_retained": 5,
    "graph_epoch": 4,
    "p50_ms": 7.8125,
    "p95_ms": 62.5,
    "p99_ms": 62.5,
    "phases": {
        "distance": {"samples": 1, "total_seconds": 2.0**-10, "p50_ms": 0.9765625, "p95_ms": 0.9765625},
        "propagation": {"samples": 1, "total_seconds": 2.0**-12, "p50_ms": 0.244140625, "p95_ms": 0.244140625},
        "upper_bound": {"samples": 1, "total_seconds": 2.0**-13, "p50_ms": 0.1220703125, "p95_ms": 0.1220703125},
        "ordering": {"samples": 1, "total_seconds": 0.0, "p50_ms": 0.0, "p95_ms": 0.0},
        "verification": {"samples": 1, "total_seconds": 2.0**-9, "p50_ms": 1.953125, "p95_ms": 1.953125},
    },
}

#: Every family perfbench's http-mixed workload reads from ``/metrics``
#: (``http_layers`` in ``perfbench/http_mixed.py``).
PERFBENCH_SCRAPED = (
    "repro_queries_served_total",
    "repro_batches_served_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_http_requests_shed_total",
    "repro_http_quota_rejections_total",
    "repro_http_queue_depth_peak",
    "repro_delta_compactions_total",
)


class TestEngineStats:
    def _populated(self) -> EngineStats:
        stats = EngineStats()
        stats.record_query(0.002, cached=False, phases={"distance": 0.001, "verification": 0.0005})
        stats.record_query(0.0001, cached=True)
        stats.record_query(0.05, cached=False, error=True, reused_backward=True)
        stats.record_batch()
        stats.record_scratch(reused=False)
        stats.record_scratch(reused=True)
        return stats

    def test_phase_windows_recorded_only_for_computed_queries(self):
        stats = self._populated()
        assert stats.phase_recorded("distance") == 1
        assert stats.phase_recorded("verification") == 1
        assert stats.phase_recorded("ordering") == 0
        assert stats.phase_percentile_seconds("distance", 0.5) == 0.001
        snap = stats.snapshot()
        assert set(snap["phases"]) == {"distance", "verification"}
        assert snap["phases"]["distance"]["samples"] == 1
        assert snap["phases"]["distance"]["total_seconds"] == pytest.approx(0.001)

    def test_record_query_rejects_unknown_phase(self):
        stats = EngineStats()
        with pytest.raises(KeyError):
            stats.record_query(0.001, cached=False, phases={"distance": 0.001, "warmup": 0.1})
        # A rejected call must not partially apply: no counter, no latency
        # sample and no phase window moved.
        fresh = EngineStats()
        assert stats.to_prometheus() == fresh.to_prometheus()
        assert stats.snapshot() == fresh.snapshot()

    def test_merge_counters_folds_worker_deltas(self):
        stats = EngineStats()
        stats.record_scratch(reused=False)
        stats.merge_counters({"scratch_allocations": 2, "scratch_reuses": 5})
        assert stats.scratch_allocations == 3
        assert stats.scratch_reuses == 5

    def test_merge_counters_rejects_unknown_and_negative(self):
        stats = EngineStats()
        for name in ("cache_hits", "sharded_backward_passes"):
            with pytest.raises(ValueError, match="unknown counter"):
                stats.merge_counters({name: 1})
        with pytest.raises(ValueError, match=">= 0"):
            stats.merge_counters({"scratch_reuses": -1})
        # A rejected mapping must not partially apply.
        assert stats.scratch_reuses == 0

    def test_to_prometheus_parses_and_matches_snapshot(self):
        stats = self._populated()
        exposition = stats.to_prometheus()
        assert exposition.endswith("\n")
        grouped = samples_by_name(parse_exposition(exposition))
        snap = stats.snapshot()
        assert grouped["repro_queries_served_total"][0].value == snap["queries_served"] == 3
        assert grouped["repro_cache_hits_total"][0].value == 1
        assert grouped["repro_cache_misses_total"][0].value == 2
        assert grouped["repro_errors_total"][0].value == 1
        assert grouped["repro_shared_backward_reuses_total"][0].value == 1
        assert grouped["repro_scratch_allocations_total"][0].value == 1
        assert grouped["repro_scratch_reuses_total"][0].value == 1
        assert grouped["repro_cache_hit_ratio"][0].value == pytest.approx(1 / 3)

    def test_to_prometheus_histogram_semantics(self):
        exposition = self._populated().to_prometheus()
        grouped = samples_by_name(parse_exposition(exposition))

        def check_series(samples, expected_count):
            values = [s.value for s in samples]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert samples[-1].labels["le"] == "+Inf"
            assert samples[-1].value == expected_count

        check_series(grouped["repro_query_latency_seconds_bucket"], 3)
        assert grouped["repro_query_latency_seconds_count"][0].value == 3
        assert grouped["repro_query_latency_seconds_sum"][0].value == pytest.approx(
            0.002 + 0.0001 + 0.05
        )
        # One labelled series per canonical phase, each internally monotone.
        phase_buckets = grouped["repro_phase_latency_seconds_bucket"]
        assert {s.labels["phase"] for s in phase_buckets} == set(PHASE_NAMES)
        for phase in PHASE_NAMES:
            series = [s for s in phase_buckets if s.labels["phase"] == phase]
            check_series(series, 1 if phase in ("distance", "verification") else 0)

    def test_golden_exposition_and_snapshot(self):
        stats = _golden_stats()
        golden = (DATA_DIR / "engine_stats.prom").read_text(encoding="utf-8")
        assert stats.to_prometheus() == golden
        assert stats.snapshot() == GOLDEN_SNAPSHOT

    @pytest.mark.parametrize("attribute, kind, help_text", METRICS, ids=[row[0] for row in METRICS])
    def test_metric_row_is_one_family(self, attribute, kind, help_text):
        """A row of METRICS is exposed as ``repro_<attribute>`` (plus
        ``_total`` for a counter) with its HELP text and its snapshot value."""
        stats = _golden_stats()
        exposition = stats.to_prometheus()
        family = f"repro_{attribute}_total" if kind == "counter" else f"repro_{attribute}"
        assert f"# HELP {family} {help_text}\n# TYPE {family} {kind}\n" in exposition
        grouped = samples_by_name(parse_exposition(exposition))
        assert grouped[family][0].value == stats.snapshot()[attribute] == getattr(stats, attribute)

    @pytest.mark.parametrize("family", PERFBENCH_SCRAPED)
    def test_perfbench_scraped_family_present(self, family):
        grouped = samples_by_name(parse_exposition(_golden_stats().to_prometheus()))
        assert len(grouped[family]) == 1

    def test_reset_zeroes_exposition(self):
        stats = _golden_stats()
        stats.reset()
        fresh = EngineStats()
        assert stats.to_prometheus() == fresh.to_prometheus()
        assert stats.snapshot() == fresh.snapshot()
        assert stats.phase_recorded("distance") == 0

    def test_concurrent_scrape_while_recording(self):
        """Scrapes taken mid-hammer always parse and end totals are exact."""
        stats = EngineStats()
        # 4,400 samples: enough to wrap the 4,096-sample latency ring.
        per_thread, threads = 1100, 4
        stop = threading.Event()
        failures: list = []

        def hammer(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for index in range(per_thread):
                    stats.record_query(
                        rng.random() / 100.0,
                        cached=index % 3 == 0,
                        phases=None if index % 3 == 0 else {"distance": 0.001},
                    )
                    stats.merge_counters({"scratch_reuses": 1})
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        def scrape() -> None:
            try:
                while not stop.is_set():
                    samples = parse_exposition(stats.to_prometheus())
                    grouped = samples_by_name(samples)
                    served = grouped["repro_queries_served_total"][0].value
                    hits = grouped["repro_cache_hits_total"][0].value
                    misses = grouped["repro_cache_misses_total"][0].value
                    assert hits + misses == served
                    stats.snapshot()
                    stats.percentile_seconds(0.95)
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(exc)

        workers = [threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)]
        scraper = threading.Thread(target=scrape)
        scraper.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        scraper.join()
        assert not failures
        assert stats.queries_served == per_thread * threads
        assert stats.scratch_reuses == per_thread * threads
        assert stats.phase_recorded("distance") == stats.cache_misses


# ======================================================================
# EVE query spans
# ======================================================================
class TestEVESpans:
    def test_query_records_phase_spans_with_attributes(self, figure1_graph, figure1_ids):
        tracer = Tracer()
        eve = EVE(figure1_graph)
        result = eve.query(
            figure1_ids("s"), figure1_ids("t"), 4, tracer=tracer
        )
        by_name = {event.name: event for event in tracer.events()}
        # k = 4 answers exactly from the upper bound: no ordering (k < 6)
        # and no verification span.
        assert set(by_name) >= {
            "phase.distance",
            "phase.propagation",
            "phase.upper_bound",
            "query",
        }
        assert by_name["phase.distance"].attributes["strategy"]
        propagation = by_name["phase.propagation"].attributes
        assert "forward_reached" in propagation and "backward_reached" in propagation
        upper = by_name["phase.upper_bound"].attributes
        assert upper["labeled_edges"] >= upper["definite_edges"]
        query_span = by_name["query"]
        assert query_span.attributes["source"] == figure1_ids("s")
        assert query_span.attributes["k"] == 4
        assert query_span.attributes["answer_edges"] == len(result.edges)
        # Span durations mirror PhaseStats — no second clock read.
        assert by_name["phase.distance"].duration == result.phases.distance_seconds

    def test_large_k_query_records_ordering_span(self, figure1_graph, figure1_ids):
        tracer = Tracer()
        eve = EVE(figure1_graph)
        eve.query(figure1_ids("s"), figure1_ids("t"), 7, tracer=tracer)
        names = {event.name for event in tracer.events()}
        assert "phase.ordering" in names

    def test_verification_span_counts_dfs_work(self, small_power_law_graph):
        tracer = Tracer()
        eve = EVE(small_power_law_graph)
        for source in range(4):
            for target in range(4, 8):
                eve.query(source, target, 7, tracer=tracer)
        verification = [
            event for event in tracer.events() if event.name == "phase.verification"
        ]
        assert verification
        assert any(event.attributes["edges_checked"] > 0 for event in verification)
        for event in verification:
            attrs = event.attributes
            assert attrs["expansions"] >= 0
            assert attrs["edges_confirmed"] >= 0

    def test_unreachable_query_still_records_query_span(self, diamond_graph):
        tracer = Tracer()
        eve = EVE(diamond_graph)
        result = eve.query(3, 0, 4, tracer=tracer)  # no 3 -> 0 path
        assert result.is_empty
        query_events = [event for event in tracer.events() if event.name == "query"]
        assert len(query_events) == 1
        assert query_events[0].attributes["empty"] is True

    def test_tracer_off_records_nothing(self, figure1_graph, figure1_ids):
        eve = EVE(figure1_graph)
        untraced = eve.query(figure1_ids("s"), figure1_ids("t"), 4)
        traced = eve.query(figure1_ids("s"), figure1_ids("t"), 4, tracer=Tracer())
        assert sorted(untraced.edges) == sorted(traced.edges)


# ======================================================================
# Cross-backend consistency (the PR's acceptance contract)
# ======================================================================
def _workload(graph, count: int, seed: int, ks=(4, 6, 7)):
    rng = random.Random(seed)
    n = graph.num_vertices
    queries = []
    while len(queries) < count:
        source, target = rng.randrange(n), rng.randrange(n)
        if source != target:
            queries.append((source, target, rng.choice(ks)))
    return queries


@pytest.fixture(scope="module")
def telemetry_graph():
    # Large enough that per-miss phase work (hundreds of microseconds to
    # milliseconds at k >= 6) dominates the fixed per-query overhead the
    # coverage assertion tolerates (validation, result assembly, the
    # tracer.record calls themselves — a few microseconds each).
    return erdos_renyi(800, 4.0, seed=7, name="telemetry")


@pytest.fixture(scope="module")
def backend_telemetry(telemetry_graph):
    """Serve one seeded workload on every backend, tracing enabled."""
    queries = _workload(telemetry_graph, 40, seed=11, ks=(6, 7, 8))
    observed = {}
    for backend in EXECUTOR_BACKENDS:
        engine = SPGEngine(
            telemetry_graph, executor_backend=backend, cache_size=0, max_workers=2
        )
        engine.tracer = Tracer()
        with engine:
            report = engine.run_batch(queries)
        observed[backend] = {
            "snapshot": engine.stats.snapshot(),
            "events": engine.tracer.events(),
            "latency_sum": sum(
                outcome.latency_seconds
                for outcome in report.outcomes
                if not outcome.cached
            ),
            "answers": [
                (outcome.source, outcome.target, outcome.k, sorted(outcome.edges or []))
                for outcome in report.outcomes
            ],
        }
    return observed


class TestBackendTelemetryConsistency:
    def test_scratch_counters_cover_every_miss_on_every_backend(self, backend_telemetry):
        """The process backend's scratch blind spot is closed: on *every*
        backend each miss checks out exactly one scratch bundle, and
        allocations stay bounded by the worker pool."""
        for backend, data in backend_telemetry.items():
            snap = data["snapshot"]
            assert (
                snap["scratch_allocations"] + snap["scratch_reuses"]
                == snap["cache_misses"]
            ), backend
            assert 1 <= snap["scratch_allocations"] <= 2, backend

    def test_phase_histograms_identical_across_backends(self, backend_telemetry):
        reference = backend_telemetry["serial"]["snapshot"]
        for backend, data in backend_telemetry.items():
            snap = data["snapshot"]
            assert snap["cache_misses"] == reference["cache_misses"], backend
            assert set(snap["phases"]) == set(reference["phases"]), backend
            for phase, aggregates in snap["phases"].items():
                assert (
                    aggregates["samples"] == reference["phases"][phase]["samples"]
                ), (backend, phase)

    def test_every_phase_window_counts_every_miss(self, backend_telemetry):
        for backend, data in backend_telemetry.items():
            snap = data["snapshot"]
            for phase in PHASE_NAMES:
                assert (
                    snap["phases"][phase]["samples"] == snap["cache_misses"]
                ), (backend, phase)

    def test_trace_event_names_identical_across_backends(self, backend_telemetry):
        """Process workers ship their spans home: every backend yields the
        same multiset of span names for the same workload."""
        reference = Counter(e.name for e in backend_telemetry["serial"]["events"])
        assert reference["query"] == backend_telemetry["serial"]["snapshot"]["cache_misses"]
        for backend, data in backend_telemetry.items():
            assert Counter(e.name for e in data["events"]) == reference, backend

    def test_phase_spans_cover_85_percent_of_miss_latency(self, backend_telemetry):
        """Acceptance bar: per-phase spans explain >= 85% of the recorded
        end-to-end miss latency on every backend (the remainder is cache
        keying, scratch checkout and result plumbing — a fixed per-query
        cost, so its *share* grew when the flat verification kernel cut the
        dominant phase time; the bar was 90% before that rewrite)."""
        for backend, data in backend_telemetry.items():
            phase_seconds = sum(
                event.duration
                for event in data["events"]
                if event.name.startswith("phase.")
            )
            assert data["latency_sum"] > 0.0, backend
            coverage = phase_seconds / data["latency_sum"]
            assert coverage >= 0.85, (backend, coverage)
            # Spans measure real time inside the query: never more than
            # the whole query took (allow timer-resolution slack).
            assert coverage <= 1.0 + 1e-6, (backend, coverage)

    def test_answers_identical_across_backends(self, backend_telemetry):
        reference = backend_telemetry["serial"]["answers"]
        for backend, data in backend_telemetry.items():
            assert data["answers"] == reference, backend


class TestEngineTracerAttachment:
    def test_disabled_tracer_normalises_to_none(self, telemetry_graph):
        with SPGEngine(telemetry_graph, tracer=NOOP_TRACER) as engine:
            # A disabled tracer must leave the hot path on the one-branch
            # ``tracer is None`` fast path, so the engine folds it to None.
            assert engine.tracer is None
            live = Tracer()
            engine.tracer = live
            assert engine.tracer is live
            engine.tracer = NoopTracer()
            assert engine.tracer is None


# ======================================================================
# Service CLI: --metrics-out / --trace-out
# ======================================================================
class TestServiceCLITelemetry:
    def _run(self, args, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            input=stdin_text,
            capture_output=True,
            text=True,
            timeout=300,
            env={"PYTHONPATH": str(SRC_DIR)},
        )

    def test_metrics_and_trace_round_trip(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\na c\nc d\nd e\nb e\n", encoding="utf-8")
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        stdin_text = "a d 3\na e 4\nb e 2\na d 3\n"
        completed = self._run(
            [
                "--edges", str(edges),
                "--backend", "serial",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ],
            stdin_text,
        )
        assert completed.returncode == 0, completed.stderr

        grouped = samples_by_name(parse_exposition(metrics.read_text(encoding="utf-8")))
        assert grouped["repro_queries_served_total"][0].value == 4
        assert grouped["repro_cache_hits_total"][0].value == 1
        assert grouped["repro_cache_misses_total"][0].value == 3
        assert grouped["repro_query_latency_seconds_count"][0].value == 4
        phase_counts = {
            sample.labels["phase"]: sample.value
            for sample in grouped["repro_phase_latency_seconds_bucket"]
            if sample.labels["le"] == "+Inf"
        }
        assert phase_counts == {phase: 3 for phase in PHASE_NAMES}

        lines = trace.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert sum(1 for record in records if record["name"] == "query") == 3
        for record in records:
            assert {"name", "started", "duration_seconds", "wall_time", "attributes"} <= set(record)

    def test_metrics_to_stderr(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\n", encoding="utf-8")
        completed = self._run(["--edges", str(edges), "--metrics-out", "-"], "a c 2\n")
        assert completed.returncode == 0, completed.stderr
        samples = parse_exposition(completed.stderr)
        assert samples_by_name(samples)["repro_queries_served_total"][0].value == 1


# ======================================================================
# Atomic JSONL export (regression: truncate-on-open destroyed the
# previous export whenever serialisation failed mid-write)
# ======================================================================
class TestAtomicExport:
    def test_failed_export_leaves_previous_file_intact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.append(_event("good", phase="one"))
        assert tracer.export_jsonl(str(path)) == 1
        before = path.read_text(encoding="utf-8")

        tracer.append(_event("bad", payload=object()))  # not JSON-serialisable
        with pytest.raises(TypeError):
            tracer.export_jsonl(str(path))
        assert path.read_text(encoding="utf-8") == before

    def test_failed_export_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.append(_event("bad", payload=object()))
        with pytest.raises(TypeError):
            tracer.export_jsonl(str(path))
        assert list(tmp_path.iterdir()) == []

    def test_successful_export_replaces_previous_content(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        tracer.append(_event("first"))
        tracer.export_jsonl(str(path))
        tracer.append(_event("second"))
        assert tracer.export_jsonl(str(path)) == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["first", "second"]
        assert [entry.name for entry in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_handle_export_is_unchanged(self):
        buffer = io.StringIO()
        tracer = Tracer()
        tracer.append(_event("x"))
        assert tracer.export_jsonl(buffer) == 1
        assert json.loads(buffer.getvalue())["name"] == "x"
