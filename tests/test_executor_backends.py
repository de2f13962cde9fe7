"""Cross-backend differential and stress harness for the executor layer.

Every executor backend (``serial`` / ``process``) must be
*answer-identical*: the same workload through the same engine
configuration yields the same :class:`~repro.service.BatchReport`, outcome
by outcome, error by error, whatever the scheduling.  The ``backend``
fixture parametrises the whole harness over both backends so any new
backend is automatically held to the same contract; the differential tests
then compare each backend's canonicalised report against the serial
reference.  Outcomes carry only packed answers, so the labels and upper
bounds the backends must also agree on are compared through
:func:`kernel_records`, which runs ``EVE.query`` where each backend
computes.

Also covered here: concurrency stress (thread hammering, overlapping async
batches, the in-flight bound ``max_workers`` sets, event-loop
responsiveness, the scratch-pool no-sharing guard), pickling round trips
for everything that crosses the process boundary (``DiGraph`` with its
CSR views, configs, outcomes), and the affinity-aware
``default_worker_count``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import pickle
import random
import sys
import threading
import time

import pytest

from repro import DiGraph, EVEConfig, SPGEngine, build_spg
from repro.core.eve import EVE
from repro.graph.generators import erdos_renyi, power_law_cluster
from repro.queries.workload import random_reachable_queries
from repro.service import (
    BACKEND_ENV_VAR,
    EXECUTOR_BACKENDS,
    Call,
    EngineConfig,
    ProcessBackend,
    ScratchPool,
    SPGAnswer,
    TaskError,
    create_backend,
    default_worker_count,
    resolve_backend_name,
)
from repro.service import engine as engine_module
from repro.service.engine import _process_run_group
from repro.service.planner import plan_batch

pytestmark = pytest.mark.filterwarnings(
    # Python 3.12+ warns about fork()-based pools in multi-threaded parents;
    # the harness is exactly the place that exercises that combination.
    "ignore::DeprecationWarning"
)


# ----------------------------------------------------------------------
# Module-level task functions (the process backend cannot ship closures)
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x

def _boom(message: str) -> None:
    raise ValueError(message)


def _return_exception() -> ValueError:
    return ValueError("returned, not raised")


def _sleepy_identity(x: int) -> int:
    time.sleep(0.001)
    return x


def _timed_sleep(seconds: float) -> tuple:
    """Sleep; return the ``time.monotonic()`` span (system-wide on Linux)."""
    started = time.monotonic()
    time.sleep(seconds)
    return started, time.monotonic()


def max_overlap(spans) -> int:
    """The most ``(start, end)`` spans that were open at one instant."""
    events = sorted([(start, 1) for start, _ in spans] + [(end, -1) for _, end in spans])
    running = peak = 0
    for _, step in events:
        running += step
        peak = max(peak, running)
    return peak


def stream_outcomes(engine: SPGEngine, queries) -> list:
    """Every outcome of ``engine.astream(queries)``, read on a fresh event loop."""

    async def collect():
        return [outcome async for outcome in engine.astream(queries)]

    return asyncio.run(collect())


def canonical_outcome(outcome) -> tuple:
    """One outcome, stripped of timing (the only legitimately varying field)."""
    return (
        outcome.source,
        outcome.target,
        outcome.k,
        outcome.ok,
        outcome.error,
        outcome.cached,
        outcome.reused_backward,
        outcome.result.packed if outcome.result else None,
        outcome.result.exact if outcome.result else None,
    )


def _kernel_records(queries, graph=None, config=None) -> list:
    """``EVE(graph, config).query`` of each query: the answer, the upper
    bound, the labels and ``exact``, or the error text.

    ``graph`` and ``config`` default to the ones a process worker was
    initialised with, so a :class:`Call` of this function reads EVE's full
    record where that worker computes its answers.
    """
    from repro.service import engine as engine_module

    graph = engine_module._worker_graph if graph is None else graph
    config = engine_module._worker_config if config is None else config
    eve = EVE(graph, config)
    records = []
    for query in queries:
        try:
            result = eve.query(*query)
        except Exception as exc:  # noqa: BLE001 - the engine isolates these too
            records.append(f"{type(exc).__name__}: {exc}")
        else:
            records.append((
                sorted(result.edges),
                sorted(result.upper_bound_edges),
                sorted(result.labels.items()),
                result.exact,
            ))
    return records


def kernel_records(engine: SPGEngine, queries) -> list:
    """EVE's full records for ``queries``, computed where ``engine`` computes.

    Engine outcomes carry only the packed answer, so the labels and upper
    bounds the backends must agree on are read from ``EVE.query`` on the
    graph and :class:`EVEConfig` the engine's backend runs with: inside a
    process worker, or in-process on the serial backend.
    """
    triples = [query for query in queries if isinstance(query, tuple) and len(query) == 3]
    graph = engine.graph
    backend = engine._ensure_backend(graph)
    if backend.requires_picklable_tasks:
        call = Call(_kernel_records, (triples,))
    else:
        call = Call(_kernel_records, (triples, graph, engine.config))
    [records] = backend.run([call])
    assert not isinstance(records, TaskError), records
    return records


def canonical_report(report) -> dict:
    """A backend-independent view of a :class:`BatchReport`."""
    return {
        "outcomes": [canonical_outcome(outcome) for outcome in report.outcomes],
        "planned_groups": report.planned_groups,
        "shared_groups": report.shared_groups,
        "reused_backward_passes": report.reused_backward_passes,
        "cache_hits": report.cache_hits,
        "errors": report.errors,
    }


def random_workload(seed: int) -> tuple:
    """A randomized (graph, queries) pair mixing good, bad and duplicate queries."""
    rng = random.Random(seed)
    if seed % 2:
        graph = erdos_renyi(26 + seed % 7, 2.0 + (seed % 3) * 0.5, seed=seed)
    else:
        graph = power_law_cluster(24 + seed % 9, 2, seed=seed)
    n = graph.num_vertices
    queries: list = []
    for _ in range(rng.randint(12, 24)):
        s, t = rng.sample(range(n), 2)
        queries.append((s, t, rng.choice((2, 3, 4, 5))))
    # Duplicates (in-batch dedup) and target-grouped repeats (shared passes).
    queries.extend(rng.choices(queries, k=4))
    hub = rng.randrange(n)
    queries.extend(
        (s, hub, 4) for s in rng.sample(range(n), 4) if s != hub
    )
    return graph, queries


#: (position-aligned) malformed / failing queries and the error text each
#: must surface, used by the injected-error differential test.
BAD_QUERIES = [
    ((5, 5, 3), "distinct"),          # s == t
    ((10_000, 1, 3), "vertex"),       # unknown vertex
    ((0, 1, -2), "k must be >= 1"),   # bad hop budget
    ((0, 1), "triples"),              # malformed tuple
    ({"s": 0, "t": 1, "k": 2}, "source/target/k"),  # malformed mapping
]


@pytest.fixture(params=EXECUTOR_BACKENDS)
def backend(request) -> str:
    """Run the test once per executor backend."""
    return request.param


def make_engine(graph, backend_name: str, **kwargs) -> SPGEngine:
    kwargs.setdefault("max_workers", 2)
    return SPGEngine(graph, executor_backend=backend_name, **kwargs)


@pytest.fixture
def slow_eve_queries(monkeypatch):
    """Make every ``EVE.query`` sleep 20 ms so concurrent calls overlap."""
    original = EVE.query

    def slow_query(self, *args, **kwargs):
        time.sleep(0.02)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EVE, "query", slow_query)


# ----------------------------------------------------------------------
# Executor-level contract (ExecutorBackend.run across backends)
# ----------------------------------------------------------------------
class TestExecutorContract:
    TASKS = (
        [Call(_square, (i,)) for i in range(8)]
        + [Call(_boom, ("kaboom-4",))]
        + [Call(_sleepy_identity, (i,)) for i in range(3)]
    )
    EXPECTED = [i * i for i in range(8)] + ["<error>"] + list(range(3))

    def _check(self, results) -> None:
        assert len(results) == len(self.EXPECTED)
        for got, want in zip(results, self.EXPECTED):
            if want == "<error>":
                assert isinstance(got, TaskError)
                assert got.message == "ValueError: kaboom-4"
            else:
                assert got == want

    def test_results_identical_across_backends(self, backend):
        with create_backend(backend, 3) as instance:
            self._check(instance.run(self.TASKS))

    def test_backend_instance_is_reused_not_closed(self, backend):
        with create_backend(backend, 2) as instance:
            first = instance.run(self.TASKS)
            second = instance.run(self.TASKS)
            self._check(first)
            self._check(second)

    def test_empty_task_list(self, backend):
        with create_backend(backend, 2) as instance:
            assert instance.run([]) == []

    def test_returned_exception_is_a_result_not_a_task_error(self, backend):
        # A task *returning* an exception instance is a legitimate result;
        # only raising must produce TaskError.
        tasks = [Call(_return_exception), Call(_boom, ("raised",))]
        with create_backend(backend, 2) as instance:
            results = instance.run(tasks)
        assert isinstance(results[0], ValueError)
        assert str(results[0]) == "returned, not raised"
        assert isinstance(results[1], TaskError)

    def test_process_backend_isolates_unpicklable_tasks(self):
        # Closures cannot cross the process boundary; they must degrade to
        # TaskError entries, not crash the batch (or the pool).
        with create_backend("process", 2) as instance:
            results = instance.run([Call(_square, (3,)), lambda: 1])
            assert results[0] == 9
            assert isinstance(results[1], TaskError)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_at_most_max_workers_tasks_run_at_once(self, backend, width):
        # Six callers, one backend of the given width: the width, not the
        # number of callers, bounds how many tasks (planned groups, in the
        # engine) run at once.
        spans: list = []
        guard = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with create_backend(backend, width) as instance:
                # Warm a process pool: one submit spawns at most one worker.
                instance.run([Call(_square, (1,))] * width)

                def call() -> None:
                    results = instance.run([Call(_timed_sleep, (0.03,))] * 2)
                    with guard:
                        spans.extend(results)

                threads = [threading.Thread(target=call) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(spans) == 12
        assert all(not isinstance(span, TaskError) for span in spans), spans
        assert max_overlap(spans) == width

    def test_overlapping_callers_get_their_own_results_in_order(self, backend):
        # One shared backend, six callers: each gets back exactly its own
        # tasks' results, in its own task order, errors in place.
        def tasks_of(caller: int) -> list:
            tasks = [Call(_sleepy_identity, (caller * 100 + i,)) for i in range(5)]
            tasks.insert(caller % 5, Call(_boom, (f"caller-{caller}",)))
            return tasks

        results: dict = {}
        with create_backend(backend, 2) as instance:

            def call(caller: int) -> None:
                results[caller] = instance.run(tasks_of(caller))

            threads = [threading.Thread(target=call, args=(caller,)) for caller in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        for caller in range(6):
            got = results[caller]
            error = got.pop(caller % 5)
            assert isinstance(error, TaskError)
            assert error.message == f"ValueError: caller-{caller}"
            assert got == [caller * 100 + i for i in range(5)]

    def test_serial_backend_runs_each_task_on_its_calling_thread(self):
        # No hand-off: every task of a call runs on the thread that made
        # it, so the scratch and stats a task touches are the caller's.
        idents: dict = {}
        with create_backend("serial", 2) as instance:

            def call(caller: int) -> None:
                idents[caller] = (
                    threading.get_ident(),
                    instance.run([Call(threading.get_ident)] * 4),
                )

            threads = [threading.Thread(target=call, args=(caller,)) for caller in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        for caller_ident, task_idents in idents.values():
            assert task_idents == [caller_ident] * 4

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "async", "thread"):
            with pytest.raises(ValueError, match="unknown executor backend"):
                create_backend(name)
            with pytest.raises(ValueError, match="serial"):
                resolve_backend_name(name)

    def test_env_var_selects_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend_name(None) == "process"
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_backend_name(None)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert resolve_backend_name(None) == "serial"


# ----------------------------------------------------------------------
# Engine-level differential tests
# ----------------------------------------------------------------------
class TestDifferentialBatches:
    def test_randomized_workloads_identical_across_backends(self, backend):
        for seed in (1, 2, 3):
            graph, queries = random_workload(seed)
            with make_engine(graph, "serial") as reference_engine:
                reference = canonical_report(reference_engine.run_batch(queries))
                reference_records = kernel_records(reference_engine, queries)
            with make_engine(graph, backend) as engine:
                assert engine.executor_backend == backend
                first = engine.run_batch(queries)
                # Second pass: same workload again, now through the cache —
                # hit accounting must match across backends too.
                second = engine.run_batch(queries)
                assert kernel_records(engine, queries) == reference_records
            assert canonical_report(first) == reference
            with make_engine(graph, "serial") as reference_engine:
                reference_engine.run_batch(queries)
                reference_second = canonical_report(reference_engine.run_batch(queries))
            assert canonical_report(second) == reference_second

    def test_results_match_cold_build_spg(self, backend):
        graph, queries = random_workload(4)
        with make_engine(graph, backend) as engine:
            report = engine.run_batch(queries)
            records = kernel_records(engine, queries)
        for outcome, record, query in zip(report, records, queries):
            if outcome.ok:
                reference = build_spg(graph, *query)
                assert outcome.edges == reference.edges
                assert record[1] == sorted(reference.upper_bound_edges)

    def test_injected_errors_surface_at_right_index(self, backend):
        graph = erdos_renyi(30, 2.5, seed=9)
        good = random_reachable_queries(graph, 4, 6, seed=9).as_batch()
        # Interleave bad queries at deterministic positions.
        queries: list = []
        bad_positions = {}
        for index, entry in enumerate(good):
            queries.append(entry)
            bad = BAD_QUERIES[index % len(BAD_QUERIES)]
            bad_positions[len(queries)] = bad[1]
            queries.append(bad[0])
        with make_engine(graph, backend) as engine:
            report = engine.run_batch(queries)
        assert len(report) == len(queries)
        assert report.errors == len(bad_positions)
        for index, outcome in enumerate(report):
            if index in bad_positions:
                assert not outcome.ok
                assert bad_positions[index] in outcome.error
            else:
                assert outcome.ok, outcome.error
                assert outcome.edges == build_spg(graph, *queries[index]).edges

    def test_streams_identical_across_backends(self, backend, monkeypatch):
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 5)
        graph, queries = random_workload(5)
        with make_engine(graph, "serial") as reference_engine:
            reference = [
                canonical_outcome(outcome)
                for outcome in stream_outcomes(reference_engine, iter(queries))
            ]
            reference_records = kernel_records(reference_engine, queries)
        with make_engine(graph, backend) as engine:
            outcomes = [
                canonical_outcome(outcome)
                for outcome in stream_outcomes(engine, iter(queries))
            ]
            assert kernel_records(engine, queries) == reference_records
        assert outcomes == reference

    def test_async_batches_identical_across_backends(self, backend):
        graph, queries = random_workload(6)
        with make_engine(graph, "serial") as reference_engine:
            reference = canonical_report(reference_engine.run_batch(queries))
            reference_records = kernel_records(reference_engine, queries)

        async def serve():
            with make_engine(graph, backend) as engine:
                report = await engine.run_batch_async(queries)
                return report, kernel_records(engine, queries)

        report, records = asyncio.run(serve())
        assert canonical_report(report) == reference
        assert records == reference_records


# ----------------------------------------------------------------------
# Compact answers: what the engine hands out and keeps
# ----------------------------------------------------------------------
def _try_to_clear(edges) -> None:
    """Empty a returned edge set, as a careless caller might."""
    with contextlib.suppress(AttributeError):  # a frozenset refuses
        edges.clear()


def referent_types(root) -> set:
    """The types of every object reachable from ``root`` (classes excluded)."""
    seen, types, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        types.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return types


class TestCompactAnswers:
    QUERY = (0, 3, 4)

    @pytest.mark.parametrize("path", ["run_batch", "query", "cached_outcome"])
    def test_editing_a_returned_answer_leaves_the_cache_alone(self, backend, path):
        """Regression: every hit used to hand out the cached edge set itself,
        so clearing one returned answer emptied every later hit."""
        graph = erdos_renyi(200, 4.0, seed=1)
        expected = build_spg(graph, *self.QUERY).edges
        assert len(expected) == 7
        with make_engine(graph, backend) as engine:
            if path == "run_batch":
                returned = engine.run_batch([self.QUERY]).outcomes[0].result
            elif path == "query":
                returned = engine.query(*self.QUERY)
            else:
                engine.run_batch([self.QUERY])
                returned = engine.cached_outcome(self.QUERY).result
            _try_to_clear(returned.edges)
            with pytest.raises(AttributeError):
                returned.k = 5
            assert memoryview(returned.packed).readonly
            hit = engine.run_batch([self.QUERY]).outcomes[0]
            assert hit.cached
            assert hit.edges == expected
            assert engine.query(*self.QUERY).edges == expected
            assert engine.cached_outcome(self.QUERY).edges == expected
            assert engine.stats.cache_misses == 1

    def test_cached_answers_hold_only_packed_pairs(self, backend):
        graph, queries = random_workload(3)
        with make_engine(graph, backend) as engine:
            engine.run_batch(queries)
            items = engine.cache.items()
        assert items
        edges = 0
        for key, answer in items:
            assert referent_types(answer) <= {SPGAnswer, int, bool, bytes}
            answer_edges = build_spg(graph, *key[:3]).edges
            assert len(answer.packed) == 16 * len(answer_edges)
            assert answer.edge_pairs == sorted(answer_edges)
            assert answer.num_edges == len(answer_edges)
            assert answer.vertices == {vertex for edge in answer_edges for vertex in edge}
            assert answer.is_empty == (not answer_edges)
            assert len(pickle.dumps(answer)) <= len(answer.packed) + 100
            edges += len(answer_edges)
        assert edges > 0


# ----------------------------------------------------------------------
# Backend lifecycle on the engine
# ----------------------------------------------------------------------
class TestBackendLifecycle:
    def test_pool_stays_warm_across_batches(self, backend):
        graph, queries = random_workload(7)
        with make_engine(graph, backend) as engine:
            engine.run_batch(queries)
            warm = engine._backend
            engine.run_batch(queries)
            assert engine._backend is warm  # reused, not rebuilt

    @pytest.mark.parametrize("width", [1, 3])
    def test_engine_sizes_its_backend_by_max_workers(self, backend, width):
        # The in-flight bound is only as good as the width the engine
        # passes on; 1 and 3 differ from the affinity default on small
        # boxes, and 1 no longer means anything but a width.
        graph, queries = random_workload(7)
        with make_engine(graph, backend, max_workers=width) as engine:
            engine.run_batch(queries)
            assert f"max_workers={width}" in repr(engine._backend)

    def test_close_is_idempotent_and_engine_recovers(self, backend):
        graph, queries = random_workload(8)
        engine = make_engine(graph, backend)
        first = canonical_report(engine.run_batch(queries))
        first_records = kernel_records(engine, queries)
        engine.close()
        engine.close()
        # The engine lazily rebuilds its backend after close().
        engine.clear_cache()
        assert canonical_report(engine.run_batch(queries)) == first
        assert kernel_records(engine, queries) == first_records
        engine.close()

    def test_graph_swap_rebuilds_process_pool(self):
        first_graph = erdos_renyi(24, 2.5, seed=10)
        second_graph = erdos_renyi(24, 2.5, seed=11)
        queries = random_reachable_queries(first_graph, 4, 5, seed=10).as_batch()
        with make_engine(first_graph, "process") as engine:
            engine.run_batch(queries)
            old_backend = engine._backend
            engine.set_graph(second_graph)
            report = engine.run_batch(queries)
            assert engine._backend is not old_backend
            for outcome, query in zip(report, queries):
                if outcome.ok:
                    assert outcome.edges == build_spg(second_graph, *query).edges

    def test_equal_graph_swap_keeps_process_pool_warm(self):
        graph = erdos_renyi(24, 2.5, seed=12)
        queries = random_reachable_queries(graph, 4, 4, seed=12).as_batch()
        with make_engine(graph, "process") as engine:
            engine.run_batch(queries)
            warm = engine._backend
            engine.set_graph(graph.copy(name="same-content"))
            report = engine.run_batch(queries)
            assert engine._backend is warm
            assert report.cache_hits == len(queries)

    def test_worker_rejects_mismatched_fingerprint(self):
        # The worker-side guard is what stops a process worker from
        # answering on a graph the parent has swapped away from.
        graph = erdos_renyi(20, 2.0, seed=32)
        queries = random_reachable_queries(graph, 3, 4, seed=32).as_batch()
        with make_engine(graph, "process") as engine:
            engine.run_batch(queries)  # warm the pool
            group = plan_batch(queries).groups[0]
            [entry] = engine._ensure_backend(graph).run(
                [Call(_process_run_group, ("not-the-fingerprint", group, False))]
            )
        assert isinstance(entry, TaskError)
        assert isinstance(entry.error, RuntimeError)
        assert "not-the-fingerprint" in str(entry.error)
        assert graph.fingerprint() in str(entry.error)

    def test_broken_process_pool_is_rebuilt(self):
        graph = erdos_renyi(20, 2.0, seed=13)
        queries = random_reachable_queries(graph, 3, 3, seed=13).as_batch()
        with make_engine(graph, "process") as engine:
            first = canonical_report(engine.run_batch(queries))
            first_records = kernel_records(engine, queries)
            engine._backend._broken = True  # simulate a worker death
            engine.clear_cache()
            assert canonical_report(engine.run_batch(queries)) == first
            assert kernel_records(engine, queries) == first_records

    def test_stream_chunks_share_one_backend(self, backend, monkeypatch):
        # Every chunk of every stream must run on the engine's one backend,
        # not rebuild a pool per chunk (for the process backend that would
        # respawn workers and re-ship the graph every STREAM_BATCH_SIZE
        # queries).
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 4)
        graph, queries = random_workload(10)
        engine = make_engine(graph, backend, cache_size=0)
        builds = []
        original = engine._build_persistent_backend

        def counting_build(g):
            builds.append(g.fingerprint())
            return original(g)

        engine._build_persistent_backend = counting_build

        try:
            streams = [stream_outcomes(engine, iter(queries)) for _ in range(2)]
        finally:
            engine.close()
        assert builds == [graph.fingerprint()], builds
        for outcomes in streams:
            assert len(outcomes) == len(queries)
            for outcome, query in zip(outcomes, queries):
                assert outcome.ok, outcome.error
                assert outcome.edges == build_spg(graph, *query).edges

    @pytest.mark.parametrize("feed_kind", ["sync", "async"])
    def test_stream_survives_graph_swap(self, feed_kind, monkeypatch):
        # A mid-stream graph swap must rebuild the process pool for the
        # next chunk (workers pinned to the old graph would otherwise fail
        # the fingerprint check for the rest of the stream), whether
        # astream reads a sync or an async iterable.
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 3)
        first_graph = erdos_renyi(24, 2.5, seed=30)
        second_graph = erdos_renyi(24, 2.5, seed=31)
        queries = random_reachable_queries(first_graph, 3, 6, seed=30).as_batch()
        engine = make_engine(first_graph, "process", cache_size=0)

        def feed():
            for query in queries[:3]:
                yield query
            engine.set_graph(second_graph)
            for query in queries[3:]:
                yield query

        async def afeed():
            for query in feed():
                await asyncio.sleep(0)
                yield query

        try:
            outcomes = stream_outcomes(engine, feed() if feed_kind == "sync" else afeed())
        finally:
            engine.close()
        assert len(outcomes) == len(queries)
        for index, (outcome, query) in enumerate(zip(outcomes, queries)):
            graph = first_graph if index < 3 else second_graph
            assert outcome.ok, (index, outcome.error)
            assert outcome.edges == build_spg(graph, *query).edges

    def test_swap_while_batch_is_consumed_answers_on_admitted_graph(self):
        # The batch reads the served graph once: a swap that lands while
        # its queries are still being consumed must neither plan it on the
        # new graph nor send it to workers pinned to the old one.
        first_graph = erdos_renyi(24, 2.5, seed=30)
        second_graph = erdos_renyi(24, 2.5, seed=31)
        queries = random_reachable_queries(first_graph, 3, 6, seed=30).as_batch()
        with make_engine(first_graph, "process", cache_size=0) as engine:
            engine.run_batch(queries[:1])  # warm the pool on the first graph

            def feed():
                engine.set_graph(second_graph)
                yield from queries

            report = engine.run_batch(feed())
            after = engine.run_batch(queries)
        for outcome, query in zip(report, queries):
            assert outcome.ok, outcome.error
            assert outcome.edges == build_spg(first_graph, *query).edges
        for outcome, query in zip(after, queries):
            assert outcome.ok, outcome.error
            assert outcome.edges == build_spg(second_graph, *query).edges


# ----------------------------------------------------------------------
# Concurrency stress
# ----------------------------------------------------------------------
class TestConcurrencyStress:
    def test_thread_hammer_consistent_stats_and_answers(self):
        graph = power_law_cluster(36, 2, seed=14)
        workloads = [
            random_reachable_queries(graph, 4, 6, seed=seed).as_batch()
            for seed in range(8)
        ]
        references = {
            seed: [sorted(build_spg(graph, *q).edges) for q in workload]
            for seed, workload in enumerate(workloads)
        }
        engine = SPGEngine(graph, executor_backend="serial", max_workers=4)
        failures: list = []

        def hammer(seed: int) -> None:
            try:
                for _ in range(3):
                    report = engine.run_batch(workloads[seed])
                    got = [sorted(outcome.edges) for outcome in report]
                    assert got == references[seed]
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((seed, exc))

        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

        snapshot = engine.stats_snapshot()
        total = sum(len(w) for w in workloads) * 3
        assert snapshot["queries_served"] == total
        assert snapshot["cache_hits"] + snapshot["cache_misses"] == total
        assert snapshot["batches_served"] == 24
        # Every computed query borrowed exactly one scratch; nothing leaked.
        assert (
            snapshot["scratch_allocations"] + snapshot["scratch_reuses"]
            == snapshot["cache_misses"]
        )
        engine.close()

    def test_scratch_pool_never_shares_in_flight_buffers(self):
        pool = ScratchPool()
        in_use: set = set()
        guard = threading.Lock()
        violations: list = []

        def worker() -> None:
            for _ in range(150):
                with pool.borrow() as scratch:
                    with guard:
                        if id(scratch) in in_use:
                            violations.append(id(scratch))
                        in_use.add(id(scratch))
                    time.sleep(0.0002)
                    with guard:
                        in_use.discard(id(scratch))

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not violations
        # The pool never grows past the peak number of concurrent borrowers.
        assert len(pool) <= 12
        assert pool.allocations + pool.reuses == 12 * 150

    def test_overlapping_async_batches(self, backend):
        graph = power_law_cluster(32, 2, seed=15)
        workloads = [
            random_reachable_queries(graph, 4, 5, seed=seed).as_batch()
            for seed in range(5)
        ]
        references = [
            [sorted(build_spg(graph, *q).edges) for q in workload]
            for workload in workloads
        ]

        async def serve():
            with make_engine(graph, backend, cache_size=0) as engine:
                reports = await asyncio.gather(
                    *(engine.run_batch_async(workload) for workload in workloads)
                )
                return reports, engine.stats_snapshot()

        reports, snapshot = asyncio.run(serve())
        for report, reference in zip(reports, references):
            assert [sorted(outcome.edges) for outcome in report] == reference
        assert snapshot["queries_served"] == sum(len(w) for w in workloads)
        assert snapshot["errors"] == 0

    def test_overlapping_async_single_query_batches_share_the_pool(
        self, slow_eve_queries
    ):
        # run_batch_async runs each batch on a helper thread, and the
        # event loop's default executor has more threads than the
        # backend's 2 permits: still at most 2 queries hold a scratch at
        # once however many batches overlap.
        graph = power_law_cluster(32, 2, seed=15)
        queries = random_reachable_queries(graph, 4, 8, seed=15).as_batch()

        async def serve():
            with make_engine(graph, "serial", cache_size=0) as engine:
                reports = await asyncio.gather(
                    *(engine.run_batch_async([query]) for query in queries)
                )
                return reports, engine.scratch_pool.allocations

        reports, allocations = asyncio.run(serve())
        for report, query in zip(reports, queries):
            assert report.outcomes[0].edges == build_spg(graph, *query).edges
        assert allocations <= 2, allocations

    def test_concurrent_single_query_batches_share_the_pool(self, slow_eve_queries):
        # The sync twin: 8 caller threads, one query each, still run at
        # most 2 queries at once on a backend of width 2.
        graph = power_law_cluster(32, 2, seed=15)
        queries = random_reachable_queries(graph, 4, 8, seed=15).as_batch()
        results: dict = {}
        with make_engine(graph, "serial", cache_size=0) as engine:

            def serve(index: int) -> None:
                results[index] = engine.run_batch([queries[index]])

            threads = [
                threading.Thread(target=serve, args=(index,))
                for index in range(len(queries))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            allocations = engine.scratch_pool.allocations
        for index, query in enumerate(queries):
            assert results[index].outcomes[0].edges == build_spg(graph, *query).edges
        assert allocations <= 2, allocations

    def test_event_loop_stays_responsive_during_a_batch(self, slow_eve_queries):
        graph = power_law_cluster(40, 2, seed=16)
        # Distinct queries: duplicates would be computed once.
        queries = list(
            dict.fromkeys(random_reachable_queries(graph, 4, 24, seed=16).as_batch())
        )[:20]
        assert len(queries) == 20

        async def scenario():
            gaps = []
            running = True

            async def ticker():
                last = time.perf_counter()
                while running:
                    await asyncio.sleep(0.001)
                    now = time.perf_counter()
                    gaps.append(now - last)
                    last = now

            with make_engine(graph, "serial", cache_size=0) as engine:
                ticking = asyncio.create_task(ticker())
                started = time.perf_counter()
                report = await engine.run_batch_async(queries)
                elapsed = time.perf_counter() - started
                running = False
                await ticking
            return report, elapsed, gaps

        report, elapsed, gaps = asyncio.run(scenario())
        assert report.num_ok == len(queries)
        assert elapsed >= 0.2, elapsed
        assert max(gaps) < 0.05, max(gaps)

    def test_astream_accepts_async_iterables(self, monkeypatch):
        monkeypatch.setattr(engine_module, "STREAM_BATCH_SIZE", 4)
        graph = erdos_renyi(25, 2.5, seed=16)
        queries = random_reachable_queries(graph, 4, 9, seed=16).as_batch()

        async def feed():
            for query in queries:
                await asyncio.sleep(0)
                yield query

        async def consume():
            with make_engine(graph, "serial") as engine:
                return [outcome async for outcome in engine.astream(feed())]

        outcomes = asyncio.run(consume())
        assert [(o.source, o.target) for o in outcomes] == [
            (q[0], q[1]) for q in queries
        ]
        for outcome, query in zip(outcomes, queries):
            assert outcome.edges == build_spg(graph, *query).edges


# ----------------------------------------------------------------------
# Pickling round trips (everything that crosses the process boundary)
# ----------------------------------------------------------------------
class TestPickling:
    def _check_graph_round_trip(self, graph: DiGraph) -> DiGraph:
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.name == graph.name
        assert clone.num_edges == graph.num_edges
        assert clone.fingerprint() == graph.fingerprint()
        assert clone.csr() == graph.csr()
        assert clone.csr_reverse() == graph.csr_reverse()
        assert clone.max_degree() == graph.max_degree()
        for u in graph.vertices():
            assert list(clone.out_neighbors(u)) == list(graph.out_neighbors(u))
            assert list(clone.in_neighbors(u)) == list(graph.in_neighbors(u))
        return clone

    def test_digraph_round_trip_cold_and_warm(self):
        graph = power_law_cluster(28, 2, seed=17)
        # Cold: nothing cached yet — the fingerprint is computed on demand.
        self._check_graph_round_trip(power_law_cluster(28, 2, seed=17))
        # Warm: fingerprint and max degree carried through the pickle.
        graph.csr()
        graph.csr_reverse()
        graph.fingerprint()
        graph.max_degree()
        clone = self._check_graph_round_trip(graph)
        s, t = 0, graph.num_vertices - 1
        assert build_spg(clone, s, t, 4).edges == build_spg(graph, s, t, 4).edges

    def test_reversed_graph_round_trip(self):
        graph = erdos_renyi(22, 2.5, seed=18)
        graph.csr()
        self._check_graph_round_trip(graph.reverse())

    def test_worker_cannot_desync_from_parent_fingerprint(self):
        # The fingerprint is the engine's graph identity: a pickled copy must
        # carry it verbatim so the process worker's staleness check is sound.
        graph = erdos_renyi(20, 2.0, seed=19)
        fingerprint = graph.fingerprint()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.fingerprint() == fingerprint
        # And a *different* graph can never alias it.
        other = erdos_renyi(20, 2.0, seed=20)
        assert pickle.loads(pickle.dumps(other)).fingerprint() != fingerprint

    def test_engine_config_round_trip(self):
        config = EngineConfig(
            strategy="single",
            verify=False,
            cache_size=7,
            max_workers=3,
            executor_backend="process",
        )
        assert pickle.loads(pickle.dumps(config)) == config
        eve_config = EVEConfig(distance_strategy="bidirectional", verify=False)
        assert pickle.loads(pickle.dumps(eve_config)) == eve_config

    def test_query_outcome_round_trip(self, diamond_graph):
        with SPGEngine(diamond_graph, executor_backend="serial") as engine:
            outcome = engine.run_batch([(0, 3, 2), (0, 0, 2)]).outcomes
        ok_clone = pickle.loads(pickle.dumps(outcome[0]))
        assert ok_clone.ok
        assert ok_clone.edges == outcome[0].edges
        assert isinstance(ok_clone.result, SPGAnswer)
        assert ok_clone.result == outcome[0].result
        # The full EVE result, labels and all, still survives a pickle.
        full = EVE(diamond_graph).query(0, 3, 2)
        assert pickle.loads(pickle.dumps(full)).labels == full.labels
        err_clone = pickle.loads(pickle.dumps(outcome[1]))
        assert not err_clone.ok
        assert err_clone.error == outcome[1].error

    def test_task_error_round_trip(self):
        error = TaskError(ValueError("boom"))
        clone = pickle.loads(pickle.dumps(error))
        assert clone.message == error.message


# ----------------------------------------------------------------------
# default_worker_count (CPU affinity)
# ----------------------------------------------------------------------
class TestDefaultWorkerCount:
    def test_respects_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_worker_count() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_worker_count() == 6

    def test_caps_and_floors(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(128)), raising=False)
        assert default_worker_count() == 32
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_worker_count() == 1


# ----------------------------------------------------------------------
# Process-backend specifics
# ----------------------------------------------------------------------
class TestProcessBackend:
    def test_worker_initialisation_is_one_time(self):
        # Two batches through one engine reuse the same warm pool: worker
        # initialisation (graph transfer) happens once, not per batch.
        graph = erdos_renyi(24, 2.5, seed=21)
        queries = random_reachable_queries(graph, 4, 4, seed=21).as_batch()
        with make_engine(graph, "process", cache_size=0) as engine:
            engine.run_batch(queries)
            pool = engine._backend._pool
            engine.run_batch(queries)
            assert engine._backend._pool is pool

    def test_process_backend_repr_and_broken_flag(self):
        backend = ProcessBackend(2)
        assert "broken=False" in repr(backend)
        assert not backend.broken
        backend.close()
