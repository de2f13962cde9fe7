"""Service-layer throughput: batch engine vs the sequential query loop.

A serving deployment answers *workloads*, not single queries: rolling
screening sweeps repeat queries (cache hits) and many sources are checked
against the same hub (shared backward passes).  This benchmark times the
seed's sequential ``build_spg`` loop against ``SPGEngine.run_batch`` on
such a cached/target-grouped workload and asserts the acceptance bar of a
>= 1.5x speedup at identical answers.  A second measurement isolates the
planner's backward-pass reuse on a completely cold, deduplicated batch.
Both paths additionally assert — via the scratch-pool counters in
:class:`repro.service.stats.EngineStats` — that cache misses allocate no
per-query distance buffers: allocations are bounded by the worker count,
everything else reuses pooled flat buffers.

A third measurement compares executor backends on a CPU-bound, cold,
deduplicated multi-query workload: the serial backend runs every query on
the calling thread, the process backend runs EVE queries truly in
parallel.  On a multi-core runner the process backend must be >= 1.5x
faster than the serial backend (answers identical); on a single available
core the assertion is skipped — there is nothing to parallelise — but the
identical-answers check still runs.

A shared-memory measurement checks the process pool's zero-copy claim:
per-worker peak RSS for spawn-family pools must *drop* by most of one copy
of the CSR arrays when workers attach to the shared-memory CSR segment
instead of unpickling the graph (asserted via worker probes).

A telemetry measurement guards the observability PR's overhead claim:
with tracing *disabled* (no tracer, or a disabled tracer the engine
normalises to ``None``) the query path pays one branch per telemetry site
and must stay within 3% of untraced serving; with a live
:class:`repro.telemetry.Tracer` attached, per-phase span recording must
stay within a modest slack of untraced serving.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.core.eve import build_spg
from repro.exceptions import QueryError
from repro.graph.generators import erdos_renyi
from repro.queries.workload import random_reachable_queries
from repro.queries.workload import target_grouped_queries
from repro.service import Call, SPGEngine, default_worker_count
from repro.service.engine import _worker_graph_probe
from repro.telemetry import NOOP_TRACER, Tracer

REPEAT_SWEEPS = 3

#: Process-over-serial acceptance bar on CPU-bound multi-query workloads
#: (at 4 or more workers; 2-3 workers need 1.1x).
PARALLEL_SPEEDUP_BAR = 1.5

#: Disabled tracing (the engine normalises a disabled tracer to ``None``,
#: leaving one branch per telemetry site) may not slow serving by more
#: than this fraction — the PR's "< 3% when disabled" acceptance bar.
TRACING_DISABLED_SLACK = 0.03

#: A live tracer records ~6 span events (attribute dicts included) per
#: cache miss; on sub-millisecond queries that is a few percent, so the
#: enabled bar is looser than the disabled one.
TRACING_ENABLED_SLACK = 0.15

#: Minimum per-worker peak-RSS saving of shared-memory workers over
#: pickled-graph workers, as a fraction of the one CSR copy sharing saves
#: each worker: ``16 * (n + 1) + 16 * m`` bytes (fixed before measuring;
#: the rest is slack for allocator noise).
SHARED_MEMORY_RSS_SAVING_FRACTION = 0.8


def _grouped_workload(scale) -> Tuple[object, List[Tuple[int, int, int]]]:
    """A target-grouped workload on the first dataset dense enough to host one."""
    k = max(scale.hop_values)
    shapes = [(4, 4), (3, 3), (2, 2)]
    for code in scale.datasets:
        graph = scale.load_graph(code)
        for num_targets, per_target in shapes:
            try:
                workload = target_grouped_queries(
                    graph, k, num_targets, per_target, seed=scale.seed
                )
            except QueryError:
                continue
            return graph, workload.as_batch()
    raise QueryError("no scale dataset could host a target-grouped workload")


def test_service_batch_speedup(benchmark, scale, show_table):
    graph, unique_queries = _grouped_workload(scale)
    # Rolling sweeps: the same workload arrives REPEAT_SWEEPS times.
    workload = unique_queries * REPEAT_SWEEPS

    started = time.perf_counter()
    sequential = [build_spg(graph, s, t, k) for s, t, k in workload]
    sequential_seconds = time.perf_counter() - started

    engine = SPGEngine(graph, max_workers=1)
    report = benchmark.pedantic(
        lambda: engine.run_batch(workload), rounds=1, iterations=1
    )
    batch_seconds = report.wall_seconds

    assert [outcome.edges for outcome in report] == [r.edges for r in sequential]
    speedup = sequential_seconds / max(batch_seconds, 1e-9)
    show_table(
        [
            {
                "graph": graph.name,
                "queries": len(workload),
                "unique": len(unique_queries),
                "mode": "sequential loop",
                "seconds": round(sequential_seconds, 4),
                "speedup": 1.0,
            },
            {
                "graph": graph.name,
                "queries": len(workload),
                "unique": len(unique_queries),
                "mode": "engine batch",
                "seconds": round(batch_seconds, 4),
                "speedup": round(speedup, 2),
            },
        ],
        "Service throughput: batch engine vs sequential loop",
    )
    assert report.cache_hits >= len(unique_queries) * (REPEAT_SWEEPS - 1)
    assert speedup >= 1.5, (
        f"expected >= 1.5x speedup on a cached/target-grouped workload, "
        f"got {speedup:.2f}x ({sequential_seconds:.4f}s vs {batch_seconds:.4f}s)"
    )
    _assert_zero_per_query_allocation(engine, max_workers=1)


def _assert_zero_per_query_allocation(engine: SPGEngine, max_workers: int) -> None:
    """The batch path must not allocate distance buffers per query.

    Every executed query checks out exactly one scratch from the engine
    pool; allocations are bounded by the number of concurrent workers and
    everything else is a reuse of pooled flat buffers — i.e. zero per-query
    distance-dict (or buffer) allocation on cache misses.  This holds on
    *every* executor backend: in-process backends count checkouts directly,
    and process-pool workers count into their worker-local pools and ship
    the deltas back with each task result
    (:meth:`repro.service.stats.EngineStats.merge_counters`), so the
    process backend is no longer a counter blind spot.  The exact
    miss-count equality below assumes an error-free workload (errored or
    malformed queries count as misses without executing), which both
    benchmark workloads are.
    """
    stats = engine.stats_snapshot()
    assert stats["errors"] == 0
    computed = stats["cache_misses"]
    allocations = stats["scratch_allocations"]
    reuses = stats["scratch_reuses"]
    assert allocations + reuses == computed, (
        f"every computed query should borrow exactly one scratch bundle: "
        f"{allocations} allocations + {reuses} reuses != {computed} misses"
    )
    assert allocations <= max_workers, (
        f"scratch allocations must be bounded by the worker count "
        f"({max_workers}), not by the query count: got {allocations}"
    )


def _parallel_workload(scale) -> Tuple[object, List[Tuple[int, int, int]]]:
    """A cold, deduplicated, CPU-bound workload with per-query parallelism.

    Random reachable queries rarely share a target, so the planner produces
    many singleton groups — the unit of executor parallelism — and neither
    the cache nor the shared backward pass can help: wall time is pure EVE
    compute, which is what separates the one-core serial backend from the
    process backend.
    """
    k = max(scale.hop_values)
    graph = scale.load_graph(scale.datasets[-1])
    count = max(48, 16 * default_worker_count())
    workload = random_reachable_queries(graph, k, count, seed=scale.seed)
    return graph, sorted(set(workload.as_batch()))


def test_service_serial_vs_process_backend(benchmark, scale, show_table):
    """Process pool >= 1.5x over serial on CPU-bound batches (multi-core)."""
    graph, queries = _parallel_workload(scale)
    workers = default_worker_count()
    sequential = [build_spg(graph, s, t, k) for s, t, k in queries]
    expected = [result.edges for result in sequential]

    # Best-of-3 timings: the tiny default scale measures only tens of ms of
    # compute, so a single round is at the mercy of one scheduling hiccup.
    timings = {}
    reports = {}
    for backend in ("serial", "process"):
        with SPGEngine(
            graph, cache_size=0, max_workers=workers, executor_backend=backend
        ) as engine:
            engine.run_batch(queries)  # warm the pool (and ship the graph once)
            if backend == "process":
                report = benchmark.pedantic(
                    lambda: engine.run_batch(queries), rounds=1, iterations=1
                )
            else:
                report = engine.run_batch(queries)
            best = report.wall_seconds
            for _ in range(2):
                best = min(best, engine.run_batch(queries).wall_seconds)
            timings[backend] = best
            reports[backend] = report
            # The zero-per-query-allocation property holds on both sides:
            # the process backend's checkouts arrive as worker deltas.
            _assert_zero_per_query_allocation(engine, max_workers=workers)
        assert [outcome.edges for outcome in reports[backend]] == expected

    speedup = timings["serial"] / max(timings["process"], 1e-9)
    show_table(
        [
            {
                "graph": graph.name,
                "queries": len(queries),
                "workers": workers,
                "backend": backend,
                "seconds": round(timings[backend], 4),
                "speedup_vs_serial": round(timings["serial"] / max(timings[backend], 1e-9), 2),
            }
            for backend in ("serial", "process")
        ],
        "Service parallel serving: serial vs process backend",
    )
    # The full 1.5x bar needs headroom over IPC overhead: on exactly 2-3
    # cores the theoretical ceiling (2-3x) is too close to the bar to be
    # robust, so only a mild win is required there; one core cannot win.
    if workers >= 4:
        bar = PARALLEL_SPEEDUP_BAR
    elif workers >= 2:
        bar = 1.1
    else:
        bar = None
    if bar is not None:
        assert speedup >= bar, (
            f"expected the process backend >= {bar}x over serial on a "
            f"CPU-bound workload with {workers} workers, got {speedup:.2f}x "
            f"({timings['serial']:.4f}s vs {timings['process']:.4f}s)"
        )
    else:
        print(
            "\n[skipped speedup assertion: only one CPU available to this "
            "process — the process backend cannot beat serial without cores]"
        )


def _max_worker_peak_rss_kb(engine: SPGEngine, workers: int) -> Tuple[int, bool]:
    """``(max peak RSS over workers, every worker shared)`` via pool probes."""
    probes = engine._ensure_backend(engine.graph).run([Call(_worker_graph_probe)] * workers)
    return (
        max(probe["peak_rss_kb"] for probe in probes),
        all(probe["shared"] for probe in probes),
    )


def test_service_shared_memory_worker_rss(benchmark, show_table):
    """Shared-memory CSR segments shrink per-worker RSS vs pickled graphs.

    The pool start method defaults to ``forkserver`` (spawn family: workers
    never inherit the parent's graph copy-on-write), so worker RSS isolates
    how the graph *arrives*: unpickling gives each worker its own copy of
    the CSR arrays, while attaching to the shared segment maps them
    zero-copy.  The saving must reach a fixed fraction of one CSR copy.
    The probe also proves no unpickling happened — the worker graph's CSR
    buffers must be memoryviews into the shared block.
    """
    graph = erdos_renyi(15_000, 8.0, seed=1, name="rss-bench")
    workers = min(2, default_worker_count())
    warmup = [(0, 1, 2), (1, 2, 2)]
    peaks = {}
    for shared in (True, False):
        def serve(shared=shared):
            with SPGEngine(
                graph,
                executor_backend="process",
                max_workers=workers,
                shared_memory=shared,
            ) as engine:
                engine.run_batch(warmup)
                return _max_worker_peak_rss_kb(engine, workers)

        if shared:
            peaks[shared] = benchmark.pedantic(serve, rounds=1, iterations=1)
        else:
            peaks[shared] = serve()
    shared_peak, shared_flag = peaks[True]
    pickled_peak, pickled_flag = peaks[False]
    assert shared_flag, "shared-memory workers must read the shared CSR buffers"
    assert not pickled_flag, "pickled workers must not report shared CSR buffers"
    show_table(
        [
            {
                "graph": graph.name,
                "edges": graph.num_edges,
                "workers": workers,
                "worker graph": "shared-memory buffers" if shared else "pickled copy",
                "peak_rss_mb": round(peak / 1024.0, 1),
            }
            for shared, (peak, _) in sorted(peaks.items(), reverse=True)
        ],
        "Shared-memory workers: per-worker peak RSS, shared segment vs pickled graph",
    )
    saving = pickled_peak - shared_peak
    csr_copy_kb = (16 * (graph.num_vertices + 1) + 16 * graph.num_edges) / 1024
    bar_kb = SHARED_MEMORY_RSS_SAVING_FRACTION * csr_copy_kb
    assert saving >= bar_kb, (
        f"expected shared-memory workers to save >= {bar_kb:.0f} KB of peak "
        f"RSS over pickled-graph workers ({SHARED_MEMORY_RSS_SAVING_FRACTION} "
        f"of one {csr_copy_kb:.0f} KB CSR copy), got {saving} KB "
        f"({shared_peak} vs {pickled_peak})"
    )


def test_service_tracing_overhead(benchmark, scale, show_table):
    """Disabled tracing < 3%; enabled tracing within a modest slack.

    Best-of-7 serving of a cold, deduplicated workload on the serial
    backend (no pool noise) in three modes: untraced (the baseline),
    *disabled* (:data:`NOOP_TRACER` attached — the engine normalises it to
    ``None``, leaving one branch per telemetry site on the hot path), and
    *traced* (a live :class:`Tracer`).  The EVE driver reuses its existing
    :class:`PhaseStats` clock reads for spans, so even the traced path adds
    no extra timing calls — only event construction.
    """
    graph, queries = _parallel_workload(scale)
    rounds = 7
    timings = {}
    tracer = Tracer()
    for label in ("untraced", "disabled", "traced"):
        with SPGEngine(
            graph, cache_size=0, max_workers=1, executor_backend="serial"
        ) as engine:
            if label == "disabled":
                engine.tracer = NOOP_TRACER
                assert engine.tracer is None, (
                    "a disabled tracer must normalise to None on the engine"
                )
            elif label == "traced":
                engine.tracer = tracer
            engine.run_batch(queries)  # warm the scratch pool
            tracer.clear()

            def serve():
                tracer.clear()  # keep the ring from wrapping across rounds
                return engine.run_batch(queries).wall_seconds

            if label == "traced":
                best = benchmark.pedantic(serve, rounds=1, iterations=1)
            else:
                best = serve()
            for _ in range(rounds - 1):
                best = min(best, serve())
            timings[label] = best
    assert len(tracer) > 0, "the traced run must actually record spans"
    baseline = max(timings["untraced"], 1e-9)
    show_table(
        [
            {
                "graph": graph.name,
                "queries": len(queries),
                "mode": label,
                "seconds": round(seconds, 4),
                "overhead_pct": round((seconds / baseline - 1.0) * 100.0, 2),
            }
            for label, seconds in timings.items()
        ],
        "Service telemetry: tracing overhead (untraced vs disabled vs traced)",
    )
    disabled_overhead = timings["disabled"] / baseline - 1.0
    assert disabled_overhead <= TRACING_DISABLED_SLACK, (
        f"disabled tracing exceeded the {TRACING_DISABLED_SLACK:.0%} overhead "
        f"bar: {disabled_overhead:.2%} "
        f"({timings['disabled']:.4f}s vs {timings['untraced']:.4f}s untraced)"
    )
    traced_overhead = timings["traced"] / baseline - 1.0
    assert traced_overhead <= TRACING_ENABLED_SLACK, (
        f"tracing-enabled serving exceeded the {TRACING_ENABLED_SLACK:.0%} "
        f"overhead slack: {traced_overhead:.2%} "
        f"({timings['traced']:.4f}s vs {timings['untraced']:.4f}s untraced)"
    )


def test_service_cold_backward_reuse(benchmark, scale, show_table):
    """Cold deduplicated batch: only the shared backward passes help."""
    graph, unique_queries = _grouped_workload(scale)

    started = time.perf_counter()
    sequential = [build_spg(graph, s, t, k) for s, t, k in unique_queries]
    sequential_seconds = time.perf_counter() - started

    engine = SPGEngine(graph, cache_size=0, max_workers=1)
    report = benchmark.pedantic(
        lambda: engine.run_batch(unique_queries), rounds=1, iterations=1
    )
    assert [outcome.edges for outcome in report] == [r.edges for r in sequential]
    assert report.reused_backward_passes > 0
    _assert_zero_per_query_allocation(engine, max_workers=1)
    show_table(
        [
            {
                "graph": graph.name,
                "queries": len(unique_queries),
                "shared_groups": report.shared_groups,
                "reused_passes": report.reused_backward_passes,
                "sequential_s": round(sequential_seconds, 4),
                "batch_s": round(report.wall_seconds, 4),
            }
        ],
        "Service cold batch: shared backward passes",
    )
