"""The two in-process workloads: ``lib-sparse`` and ``batch-dense``.

``lib-sparse`` calls ``build_spg`` once per query, the README quickstart
path.  ``batch-dense`` calls ``SPGEngine.run_batch`` on the default engine
with fraud-screening shaped batches.  Both are closed loops with one
caller and only read: the write path is measured on ``http-mixed``.
Afterwards a seeded sample of answers is checked against path
enumeration.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import EVE, DiGraph, SPGEngine, build_spg
from repro.core.distances import backward_distance_map
from repro.core.eve import QueryScratch
from repro.enumeration import PathEnum
from repro.enumeration.spg_via_enumeration import EnumerationSPGBuilder
from repro.service.engine import EngineConfig
from repro.service.planner import plan_batch
from repro.telemetry import Tracer

from inputs import dense_batches, erdos_renyi_edges, lib_sparse_queries, stream
from measure import (
    Outcome,
    PhaseTotals,
    latency_summary,
    median_of,
    ratio,
    self_peak_rss_mb,
    timed,
)

Query = Tuple[int, int, int]

SETUP_REPEATS = 9
LIB_SPARSE_N, LIB_SPARSE_DEGREE = 20_000, 4
BATCH_DENSE_N, BATCH_DENSE_DEGREE = 20_000, 8
LIB_WARMUP_QUERIES = 20
LIB_SAMPLE_EVERY, LIB_SAMPLES = 20, 40
# Traced runs fold the counter block over this many queries of a stream of
# their own, so the block does not depend on how far the timed loop got.
LIB_COUNTER_QUERIES = 300
DENSE_SAMPLES_PER_K = 2
# 20 groups of 15 sources: short cycles are screened more often, and with
# equal shares of k = 5..8 the median latency sat on the gap between the
# k <= 6 and k >= 7 halves and swung by 30% from run to run.
DENSE_GROUPS_PER_K, DENSE_SOURCES = {5: 6, 6: 6, 7: 4, 8: 4}, 15
# Peak RSS is read after this many batches, whatever the run reaches, so
# it measures the same cache contents on every run.
DENSE_RSS_BATCHES = 2


def _enumerate(graph: DiGraph, query: Query):
    result = EnumerationSPGBuilder(graph, PathEnum).query(*query)
    if not result.exact:
        raise RuntimeError(f"oracle enumeration was truncated for {query}")
    return result.edges


def _check(graph: DiGraph, query: Query, edges, where: str, mismatches: List[str]) -> None:
    """Compare one answer with enumeration; record a mismatch."""
    expected = _enumerate(graph, query)
    if set(edges) != expected:
        mismatches.append(
            f"{where}: answer for {query} has {len(edges)} edges, "
            f"enumeration has {len(expected)}"
        )


def _closed_loop(
    call: Callable[[Query], object],
    queries: Iterator[Query],
    seconds: float,
    min_count: int = 0,
    keep: Callable[[int], bool] = lambda index: False,
) -> Tuple[List[float], int, float, List[Tuple[Query, object]]]:
    """Call ``call`` on successive queries for ``seconds``.

    Returns ``(latencies of successes, failures, elapsed seconds, kept
    results)``; ``keep(index)`` selects results retained for the answer
    check.
    """
    latencies: List[float] = []
    kept: List[Tuple[Query, object]] = []
    failed = 0
    started = time.perf_counter()
    index = 0
    while True:
        begun = time.perf_counter()
        if begun - started >= seconds and index >= min_count:
            break
        query = next(queries)
        try:
            result = call(query)
        except Exception:  # noqa: BLE001 - an errored query is a counted failure
            failed += 1
        else:
            latencies.append(time.perf_counter() - begun)
            if keep(index):
                kept.append((query, result))
        index += 1
    return latencies, failed, time.perf_counter() - started, kept


def _setup_graphs(n: int, edges, build_engine: bool):
    """Build the served objects ``SETUP_REPEATS`` times; keep the last.

    Returns ``(graph, engine, setup seconds, csr seconds)``, each time a
    list over the repeats.
    """
    setups: List[float] = []
    csr_times: List[float] = []
    graph = engine = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        gc.collect()
        started = time.perf_counter()
        graph = DiGraph(n, edges)
        csr_started = time.perf_counter()
        graph.csr()
        graph.csr_reverse()
        csr_done = time.perf_counter()
        if build_engine:
            engine = SPGEngine.from_config(graph, EngineConfig())
        setups.append(time.perf_counter() - started)
        csr_times.append(csr_done - csr_started)
    return graph, engine, setups, csr_times


def _fold(tracer: Tracer, *totals: PhaseTotals) -> None:
    events = tracer.drain()
    for total in totals:
        total.add(events)


def _phase_metrics(counters: PhaseTotals, timing: PhaseTotals) -> Dict[str, float]:
    """Counts and ratios from ``counters``; phase times from ``timing``."""
    metrics = counters.metrics()
    for name, value in timing.metrics().items():
        if name.endswith("ms"):
            metrics[name] = value
    return metrics


def _trace_overhead(untraced_qps: float, traced_qps: float) -> Dict[str, float]:
    return {
        "trace.qps_untraced": untraced_qps,
        "trace.qps_traced": traced_qps,
        "trace.overhead_ratio": 1.0 - ratio(traced_qps, untraced_qps),
    }


# ----------------------------------------------------------------------
# lib-sparse
# ----------------------------------------------------------------------
def lib_sparse(seed: int, seconds: float, trace: bool) -> Outcome:
    n = LIB_SPARSE_N
    edges = erdos_renyi_edges(n, LIB_SPARSE_DEGREE, stream(seed, "graph"))
    graph, _, setups, csr_times = _setup_graphs(n, edges, build_engine=False)
    queries = lib_sparse_queries(n, stream(seed, "queries"))
    for _ in range(LIB_WARMUP_QUERIES):
        build_spg(graph, *next(queries))

    def keep(index: int) -> bool:
        return index % LIB_SAMPLE_EVERY == 0 and index // LIB_SAMPLE_EVERY < LIB_SAMPLES

    run_seconds = seconds / 2 if trace else seconds
    latencies, failed, elapsed, kept = _closed_loop(
        lambda q: build_spg(graph, *q), queries, run_seconds, keep=keep
    )
    qps = len(latencies) / elapsed
    rss_mb = self_peak_rss_mb()
    layers: Dict[str, float] = {"graph.csr_build_s": median_of(csr_times)}
    traced_ok = 0
    if trace:
        tracer = Tracer()
        counters, timing = PhaseTotals(), PhaseTotals()
        traced = lib_sparse_queries(n, stream(seed, "traced-queries"))

        def traced_call(query: Query):
            return EVE(graph).query(*query, tracer=tracer)

        first, first_failed, first_elapsed, _ = _closed_loop(
            traced_call, traced, 0.0, min_count=LIB_COUNTER_QUERIES
        )
        _fold(tracer, counters, timing)
        rest, rest_failed, rest_elapsed, _ = _closed_loop(
            traced_call, traced, max(0.0, run_seconds - first_elapsed)
        )
        _fold(tracer, timing)
        failed += first_failed + rest_failed
        traced_ok = len(first) + len(rest)
        traced_qps = traced_ok / (first_elapsed + rest_elapsed)
        layers.update(_phase_metrics(counters, timing))
        layers.update(_trace_overhead(qps, traced_qps))

    mismatches: List[str] = []
    for query, result in kept:
        _check(graph, query, result.edges, "lib-sparse", mismatches)

    ok = len(latencies) + traced_ok
    attempted = ok + failed
    layers["error_ratio"] = ratio(failed, attempted)
    penalty = [seconds] * failed  # a failed query misses every latency limit
    latency, tail = latency_summary(latencies + penalty)
    layers.update(tail)
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": median_of(setups),
            "qps": qps,
            **latency,
            "success_ratio": ratio(ok, attempted),
            "rss_mb": rss_mb,
        },
        per_layer=layers,
        mismatches=mismatches,
    )


# ----------------------------------------------------------------------
# batch-dense
# ----------------------------------------------------------------------
def _batch_loop(
    engine: SPGEngine,
    batches,
    seconds: float,
    min_batches: int = 1,
    between: Optional[Callable[[int], None]] = None,
):
    """Run whole batches for ``seconds`` of batch time and at least
    ``min_batches`` batches; ``between(batches done)`` runs after each
    batch, outside the batch time.  Returns the reports and the batch
    time."""
    reports = []
    busy = 0.0
    while busy < seconds or len(reports) < min_batches:
        batch = next(batches)
        spent, report = timed(lambda: engine.run_batch(batch))
        busy += spent
        reports.append(report)
        if between is not None:
            between(len(reports))
    return reports, busy


def _serial_replay(graph: DiGraph, batch: List[Query]) -> Dict[str, float]:
    """Plan one batch and run it with one caller, timing each layer.

    Calls the planner and the shared backward pass exactly as the engine
    does, then ``EVE.query`` per query with a tracer, so phase times hold
    no waits for the interpreter lock.
    """
    plan_seconds, plan = timed(lambda: plan_batch(batch))
    tracer = Tracer()
    totals = PhaseTotals()
    scratch = QueryScratch()
    eve = EVE(graph)
    backward_seconds = 0.0
    for group in plan.groups:
        shared = None
        if group.shared:
            spent, shared = timed(lambda: backward_distance_map(graph, group.target, group.k))
            backward_seconds += spent
        for planned in group.queries:
            eve.query(
                planned.source, planned.target, planned.k,
                shared_backward=shared, scratch=scratch, tracer=tracer,
            )
    _fold(tracer, totals)
    metrics = totals.metrics()
    metrics.update({
        "planner.ms": plan_seconds * 1000.0,
        "planner.groups": len(plan.groups),
        "planner.shared_groups": plan.num_shared_groups,
        "planner.reused_backward_passes": plan.reused_backward_passes,
        "planner.backward_ms": ratio(backward_seconds * 1000.0, plan.num_shared_groups),
    })
    return metrics


def batch_dense(seed: int, seconds: float, trace: bool) -> Outcome:
    n = BATCH_DENSE_N
    edges = erdos_renyi_edges(n, BATCH_DENSE_DEGREE, stream(seed, "graph"))
    graph, engine, setups, csr_times = _setup_graphs(n, edges, build_engine=True)
    try:
        return _batch_dense_on(seed, seconds, trace, n, edges, graph, engine, setups, csr_times)
    finally:
        engine.close()


def _batch_dense_on(seed, seconds, trace, n, edges, graph, engine, setups, csr_times) -> Outcome:
    # Start the executor pool on a small batch of its own before timing.
    warmup = next(dense_batches(n, edges, stream(seed, "warmup"), {5: 2}, 2))
    engine.run_batch(warmup)

    rss_mb = 0.0

    def after_batch(done: int) -> None:
        nonlocal rss_mb
        if done == DENSE_RSS_BATCHES:
            rss_mb = self_peak_rss_mb()

    batches = dense_batches(n, edges, stream(seed, "batches"), DENSE_GROUPS_PER_K, DENSE_SOURCES)
    run_seconds = seconds / 2 if trace else seconds
    reports, elapsed = _batch_loop(
        engine, batches, run_seconds,
        min_batches=1 if trace else DENSE_RSS_BATCHES, between=after_batch,
    )
    layers: Dict[str, float] = {"graph.csr_build_s": median_of(csr_times)}
    queries = sum(len(report) for report in reports)
    ok = sum(report.num_ok for report in reports)
    qps = ok / elapsed
    if trace:
        allocations_before = engine.stats.scratch_allocations
        engine.tracer = Tracer()
        traced_reports, traced_elapsed = _batch_loop(engine, batches, run_seconds)
        engine.tracer = None
        traced_ok = sum(report.num_ok for report in traced_reports)
        traced_queries = sum(len(report) for report in traced_reports)
        queries += traced_queries
        ok += traced_ok
        hits = sum(report.cache_hits for report in traced_reports)
        layers.update({
            "engine.batch_wall_s": median_of(r.wall_seconds for r in traced_reports),
            "engine.query_busy_s": median_of(
                sum(o.latency_seconds for o in r.outcomes) for r in traced_reports
            ),
            "engine.scratch_allocations": engine.stats.scratch_allocations - allocations_before,
            "cache.hits": hits,
            "cache.hit_ratio": ratio(hits, traced_queries),
            "cache.entries": len(engine.cache),
        })
        layers.update(_trace_overhead(qps, traced_ok / traced_elapsed))
        replay = next(dense_batches(
            n, edges, stream(seed, "traced-batch"), DENSE_GROUPS_PER_K, DENSE_SOURCES
        ))
        layers.update(_serial_replay(graph, replay))

    mismatches: List[str] = []
    by_k: Dict[int, int] = {}
    for outcome in reports[0].outcomes:
        if by_k.get(outcome.k, 0) < DENSE_SAMPLES_PER_K and outcome.ok:
            by_k[outcome.k] = by_k.get(outcome.k, 0) + 1
            _check(graph, (outcome.source, outcome.target, outcome.k),
                   outcome.edges, "batch-dense", mismatches)

    failed = queries - ok
    latencies = [o.latency_seconds for r in reports for o in r.outcomes if o.ok]
    timed_failed = sum(len(r) - r.num_ok for r in reports)
    latency, tail = latency_summary(latencies + [seconds] * timed_failed)
    layers.update(tail)
    layers["error_ratio"] = ratio(failed, queries)
    return Outcome(
        attempted=queries,
        failed=failed,
        end_to_end={
            "setup_s": median_of(setups),
            "qps": qps,
            **latency,
            "success_ratio": ratio(ok, queries),
            "rss_mb": rss_mb,
        },
        per_layer=layers,
        mismatches=mismatches,
    )
