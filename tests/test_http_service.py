"""Tests for the asyncio HTTP front end (repro.service.http).

Covers the admission layer (token buckets, bounded queue, drain), the
request coalescer (group commit, cancellation, batch spans), the HTTP
server itself (routing, error statuses, framing limits, keep-alive),
parity between ``POST /batch`` and the offline CLI on the same workload,
overload behaviour (shed with 429, never 5xx, bounded queue depth),
per-tenant quotas, cross-connection coalescing, cache hits answered on
the event loop (counters, epochs), graceful drain, the ``/metrics``
exposition, and the bytes ``/query``, ``/batch`` and the service CLI
write for one recorded workload (``tests/data/outcome_golden.json``).

No pytest-asyncio here: async tests run their coroutine with
``asyncio.run`` from a sync test function.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import DiGraph, build_spg
from repro.graph.io import load_graph
from repro.service.engine import QueryOutcome, SPGEngine
from repro.service.http import (
    ADMITTED,
    DRAINING,
    QUOTA,
    SHED,
    AdmissionController,
    HTTPConfig,
    HTTPConnection,
    HTTPFrontend,
    QueryCoalescer,
    TokenBucket,
    request,
)
from repro.service.http.server import MAX_BODY_BYTES, MAX_HEADER_BYTES
from repro.service.stats import EngineStats
from repro.telemetry import Tracer
from repro.telemetry.prometheus import parse_exposition

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Fields of an outcome record that legitimately differ between two runs
#: of the same workload (timing and cache effects), stripped before
#: comparing HTTP output against the offline CLI.
VOLATILE_FIELDS = ("latency_ms", "cached", "reused_backward")


def _stable(record):
    return {key: value for key, value in record.items() if key not in VOLATILE_FIELDS}


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = lambda: 0.0  # noqa: E731 - fixed clock
        bucket = TokenBucket(10.0, 3.0, clock)
        assert bucket.tokens == 3.0
        assert bucket.try_acquire() and bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_at_rate_capped_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(2.0, 4.0, lambda: now[0])
        for _ in range(4):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 1.0  # 2 tokens refilled
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] = 100.0  # refill far past burst; capacity caps it
        assert bucket.tokens == 4.0

    def test_bulk_acquire_respects_balance(self):
        bucket = TokenBucket(1.0, 5.0, lambda: 0.0)
        assert bucket.try_acquire(5.0)
        assert not bucket.try_acquire(0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0.0)


# ----------------------------------------------------------------------
# Admission controller
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_admits_then_sheds_at_bound(self):
        stats = EngineStats()
        control = AdmissionController(max_queue_depth=2, stats=stats)
        assert control.try_admit("a") == ADMITTED
        assert control.try_admit("a") == ADMITTED
        assert control.try_admit("a") == SHED
        assert control.queue_depth == 2
        control.release()
        assert control.try_admit("a") == ADMITTED
        assert stats.http_requests_admitted == 3
        assert stats.http_requests_shed == 1
        assert stats.http_queue_depth_peak == 2

    def test_batch_cost_counts_against_bound(self):
        control = AdmissionController(max_queue_depth=5)
        assert control.try_admit("a", cost=4) == ADMITTED
        assert control.try_admit("a", cost=2) == SHED
        assert control.try_admit("a", cost=1) == ADMITTED
        control.release(4)
        control.release(1)
        assert control.queue_depth == 0

    def test_release_beyond_depth_raises(self):
        control = AdmissionController(max_queue_depth=2)
        control.try_admit("a")
        with pytest.raises(ValueError):
            control.release(2)

    def test_tenant_quota_is_per_tenant(self):
        now = [0.0]
        stats = EngineStats()
        control = AdmissionController(
            max_queue_depth=100,
            stats=stats,
            tenant_rate=1.0,
            tenant_burst=2.0,
            clock=lambda: now[0],
        )
        assert control.try_admit("alpha") == ADMITTED
        assert control.try_admit("alpha") == ADMITTED
        assert control.try_admit("alpha") == QUOTA
        assert control.try_admit("beta") == ADMITTED  # separate bucket
        now[0] = 1.0  # one token refilled for alpha
        assert control.try_admit("alpha") == ADMITTED
        assert stats.http_quota_rejections == 1

    def test_draining_rejects_before_everything(self):
        stats = EngineStats()
        control = AdmissionController(max_queue_depth=1, stats=stats)
        control.try_admit("a")
        control.begin_drain()
        assert control.try_admit("a") == DRAINING
        assert stats.http_drain_rejections == 1

    def test_wait_drained_completes_on_release(self):
        async def scenario():
            control = AdmissionController(max_queue_depth=4)
            control.try_admit("a", cost=3)
            control.begin_drain()
            assert not await control.wait_drained(0.01)
            asyncio.get_running_loop().call_soon(control.release, 3)
            assert await control.wait_drained(1.0)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Coalescer (against a fake engine: batching behaviour only)
# ----------------------------------------------------------------------
class _FakeEngine:
    """Misses every cache lookup; each batch waits for ``gate``."""

    def __init__(self, fail=False, tracer=None):
        self.batches = []
        self.fail = fail
        self.tracer = tracer
        self.gate = asyncio.Event()
        self.gate.set()

    def cached_outcome(self, query):
        return None

    async def run_batch_async(self, queries):
        self.batches.append(list(queries))
        await self.gate.wait()
        if self.fail:
            raise RuntimeError("engine exploded")
        outcomes = [
            QueryOutcome(source=s, target=t, k=k, latency_seconds=0.0)
            for s, t, k in queries
        ]
        return type("Report", (), {"outcomes": outcomes})()


async def _until(predicate, rounds=5, delay=0.0):
    """Yield to the loop until ``predicate()`` holds; at most ``rounds`` times."""
    for _ in range(rounds):
        if predicate():
            return True
        await asyncio.sleep(delay)
    return predicate()


class TestQueryCoalescer:
    def test_same_tick_arrivals_share_one_batch(self):
        async def scenario():
            engine = _FakeEngine()
            coalescer = QueryCoalescer(engine)
            outcomes = await asyncio.gather(
                *(coalescer.submit((i, i + 1, 3)) for i in range(5))
            )
            assert [outcome.source for outcome in outcomes] == list(range(5))
            assert coalescer.batches_flushed == 1
            assert coalescer.queries_coalesced == 5
            assert len(engine.batches) == 1 and len(engine.batches[0]) == 5
            await coalescer.aclose()

        asyncio.run(scenario())

    def test_lone_query_is_dispatched_without_waiting(self):
        async def scenario():
            engine = _FakeEngine()
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            waiter = asyncio.create_task(coalescer.submit((0, 1, 3)))
            # No timer: the query reaches the engine within a few loop
            # iterations, not after a coalescing window.
            assert await _until(lambda: engine.batches == [[(0, 1, 3)]])
            engine.gate.set()
            assert (await waiter).source == 0
            await coalescer.aclose()

        asyncio.run(scenario())

    def test_queued_queries_form_capped_batches_in_order(self, monkeypatch):
        monkeypatch.setattr("repro.service.http.coalescer.MAX_BATCH", 2)

        async def scenario():
            engine = _FakeEngine()
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            first = asyncio.create_task(coalescer.submit((0, 1, 3)))
            assert await _until(lambda: len(engine.batches) == 1)
            queued = [
                asyncio.create_task(coalescer.submit((i, i + 1, 3)))
                for i in range(1, 6)
            ]
            assert await _until(lambda: coalescer.pending == 5)
            # One batch in flight at a time: nothing else starts while it runs.
            assert not await _until(lambda: len(engine.batches) > 1)
            engine.gate.set()
            outcomes = await asyncio.wait_for(asyncio.gather(first, *queued), 5.0)
            assert [outcome.source for outcome in outcomes] == list(range(6))
            assert [[s for s, _, _ in batch] for batch in engine.batches] == [
                [0], [1, 2], [3, 4], [5],
            ]
            assert coalescer.batches_flushed == 4
            assert coalescer.queries_coalesced == 6
            await coalescer.aclose()

        asyncio.run(scenario())

    def test_default_bound_caps_a_long_queue_at_64(self):
        async def scenario():
            engine = _FakeEngine()
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            first = asyncio.create_task(coalescer.submit((0, 1, 3)))
            assert await _until(lambda: len(engine.batches) == 1)
            queued = [
                asyncio.create_task(coalescer.submit((i, i + 1, 3)))
                for i in range(1, 71)
            ]
            assert await _until(lambda: coalescer.pending == 70)
            engine.gate.set()
            await asyncio.wait_for(asyncio.gather(first, *queued), 5.0)
            await coalescer.aclose()
            return [len(batch) for batch in engine.batches]

        assert asyncio.run(scenario()) == [1, 64, 6]

    def test_engine_failure_fans_out_to_every_future(self):
        async def scenario():
            coalescer = QueryCoalescer(_FakeEngine(fail=True))
            results = await asyncio.gather(
                *(coalescer.submit((i, i + 1, 3)) for i in range(3)),
                return_exceptions=True,
            )
            assert all(isinstance(result, RuntimeError) for result in results)
            await coalescer.aclose()

        asyncio.run(scenario())

    def test_cancelled_runner_cancels_every_waiter(self, monkeypatch):
        monkeypatch.setattr("repro.service.http.coalescer.MAX_BATCH", 1)

        async def scenario():
            engine = _FakeEngine()
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            waiters = [
                asyncio.create_task(coalescer.submit((i, i + 1, 3))) for i in range(3)
            ]
            assert await _until(lambda: len(engine.batches) == 1)
            (runner,) = asyncio.all_tasks() - {asyncio.current_task(), *waiters}
            runner.cancel()
            try:
                results = await asyncio.wait_for(
                    asyncio.gather(*waiters, return_exceptions=True), 5.0
                )
            finally:
                engine.gate.set()  # a runner that survived must not hang teardown
            assert all(isinstance(r, asyncio.CancelledError) for r in results)
            assert runner.cancelled()
            assert coalescer.pending == 0
            # The next query starts a fresh runner.
            assert (await coalescer.submit((7, 8, 3))).source == 7
            await coalescer.aclose()

        asyncio.run(scenario())

    def test_batch_spans_carry_size_and_queue_wait(self):
        async def scenario():
            engine = _FakeEngine(tracer=Tracer())
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            first = asyncio.create_task(coalescer.submit((0, 1, 3)))
            assert await _until(lambda: len(engine.batches) == 1)
            queued = [
                asyncio.create_task(coalescer.submit((i, i + 1, 3)))
                for i in range(1, 8)
            ]
            assert await _until(lambda: coalescer.pending == 7)
            held_from = time.perf_counter()
            await asyncio.sleep(0.02)
            held_ms = (time.perf_counter() - held_from) * 1000.0
            engine.gate.set()
            await asyncio.wait_for(asyncio.gather(first, *queued), 5.0)
            await coalescer.aclose()
            return engine.tracer.events(), held_ms

        events, held_ms = asyncio.run(scenario())
        spans = [event for event in events if event.name == "http.batch"]
        assert [span.attributes["queries"] for span in spans] == [1, 7]
        assert spans[1].attributes["wait_ms"] >= held_ms
        assert spans[0].duration * 1000.0 >= held_ms

    def test_aclose_answers_queued_queries(self, monkeypatch):
        monkeypatch.setattr("repro.service.http.coalescer.MAX_BATCH", 2)

        async def scenario():
            engine = _FakeEngine()
            engine.gate.clear()
            coalescer = QueryCoalescer(engine)
            waiters = [
                asyncio.create_task(coalescer.submit((i, i + 1, 3))) for i in range(5)
            ]
            assert await _until(lambda: coalescer.pending == 3)
            closing = asyncio.create_task(coalescer.aclose())
            await asyncio.sleep(0)
            engine.gate.set()
            await asyncio.wait_for(closing, 5.0)
            assert all(waiter.done() for waiter in waiters)
            assert [w.result().source for w in waiters] == list(range(5))

        asyncio.run(scenario())

    def test_submit_after_close_raises(self):
        async def scenario():
            coalescer = QueryCoalescer(_FakeEngine())
            await coalescer.aclose()
            with pytest.raises(RuntimeError):
                await coalescer.submit((0, 1, 2))

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The HTTP server, end to end
# ----------------------------------------------------------------------
def _engine(graph, **kwargs):
    kwargs.setdefault("cache_size", 0)
    return SPGEngine(graph, **kwargs)


async def _booted(engine, builder=None, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    frontend = HTTPFrontend(
        engine, builder=builder, config=HTTPConfig(**config_kwargs)
    )
    await frontend.start()
    return frontend


async def _raw_exchange(address, head: bytes):
    """Send raw request bytes; return the status and JSON body of the answer.

    The server answers a framing violation and closes, so the response is
    read to EOF.  Callers send nothing past the byte that breaks the limit:
    unread bytes left in the server's socket would turn its close into a
    reset that can overtake the answer.
    """
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(head)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


async def _post_query(frontend, query):
    """``POST /query`` one ``(s, t, k)`` on a fresh connection; the record."""
    s, t, k = query
    body = json.dumps({"source": s, "target": t, "k": k}).encode()
    response = await request(frontend.address, None, "POST", "/query", body=body)
    assert response.status == 200
    return response.json()


def _edges(record):
    return {tuple(edge) for edge in record["edges"]}


class TestHTTPFrontend:
    def test_healthz_and_metrics(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    health = await request(frontend.address, path="/healthz")
                    assert health.status == 200
                    assert health.json()["status"] == "ok"

                    metrics = await request(frontend.address, path="/metrics")
                    assert metrics.status == 200
                    assert metrics.headers["content-type"].startswith("text/plain")
                    names = {s.name for s in parse_exposition(metrics.text)}
                    assert "repro_http_requests_admitted_total" in names
                    assert "repro_http_queue_depth" in names
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_query_matches_offline_engine(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    body = json.dumps({"source": 0, "target": 7, "k": 4}).encode()
                    response = await request(
                        frontend.address, None, "POST", "/query", body=body
                    )
                    assert response.status == 200
                    served = response.json()
                finally:
                    assert await frontend.shutdown(5.0)
            with _engine(small_dense_graph) as reference_engine:
                reference = reference_engine.run_batch([(0, 7, 4)]).outcomes[0]
            assert served["ok"]
            assert sorted(map(tuple, served["edges"])) == sorted(reference.edges)

        asyncio.run(scenario())

    def test_batch_parity_with_offline_cli(self, tmp_path):
        """The HTTP /batch answers are the offline CLI's answers."""
        workload = (
            '{"source": 0, "target": 7, "k": 4}\n'
            "3 9 4\n"
            '{"source": 2.9, "target": 9, "k": 3}\n'  # translation failure
            "0 7 4\n"  # duplicate
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--dataset",
                "ps",
                "--scale",
                "0.08",
                "--cache-size",
                "0",
            ],
            input=workload,
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert completed.returncode == 0, completed.stderr
        cli_records = [
            _stable(json.loads(line)) for line in completed.stdout.splitlines()
        ]

        async def scenario():
            from repro.datasets.registry import load_dataset

            graph = load_dataset("ps", scale=0.08)
            with _engine(graph) as engine:
                frontend = await _booted(engine)
                try:
                    response = await request(
                        frontend.address,
                        None,
                        "POST",
                        "/batch",
                        body=workload.encode(),
                    )
                    assert response.status == 200
                    return [_stable(record) for record in response.json_lines()]
                finally:
                    assert await frontend.shutdown(5.0)

        http_records = asyncio.run(scenario())
        assert http_records == cli_records
        assert not http_records[2].get("ok")
        assert "integral" in http_records[2]["error"]

    def test_batch_relabels_through_edge_list_builder(self, tmp_path):
        edges = tmp_path / "graph.txt"
        edges.write_text("a b\nb c\na c\nc d\n", encoding="utf-8")
        graph, builder = load_graph(str(edges))

        async def scenario():
            with _engine(graph) as engine:
                frontend = await _booted(engine, builder=builder)
                try:
                    response = await request(
                        frontend.address,
                        None,
                        "POST",
                        "/batch",
                        body=b"a d 3\na zzz 2\n",
                    )
                    assert response.status == 200
                    return response.json_lines()
                finally:
                    assert await frontend.shutdown(5.0)

        records = asyncio.run(scenario())
        assert len(records) == 2
        assert records[0]["ok"]
        assert sorted(map(tuple, records[0]["edges"])) == [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("c", "d"),
        ]
        assert not records[1]["ok"] and "zzz" in records[1]["error"]

    def test_overload_sheds_429_never_5xx(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine, max_queue_depth=2)
                try:
                    body = json.dumps({"source": 0, "target": 7, "k": 4}).encode()
                    statuses = [
                        response.status
                        for response in await asyncio.gather(
                            *(
                                request(
                                    frontend.address, None, "POST", "/query", body=body
                                )
                                for _ in range(32)
                            )
                        )
                    ]
                finally:
                    assert await frontend.shutdown(5.0)
                return statuses, engine.stats

        statuses, stats = asyncio.run(scenario())
        assert all(status in (200, 429) for status in statuses)
        assert statuses.count(429) > 0
        assert statuses.count(200) > 0
        assert stats.http_queue_depth_peak <= 2
        assert stats.http_requests_shed == statuses.count(429)
        assert stats.http_queue_depth == 0  # everything released

    def test_tenant_quota_sheds_per_tenant(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                # 1 token burst, negligible refill: second request must
                # trip the quota while another tenant still has its token.
                frontend = await _booted(
                    engine, tenant_rate=0.001, tenant_burst=1.0
                )
                try:
                    body = json.dumps({"source": 0, "target": 7, "k": 4}).encode()

                    async def fire(tenant):
                        response = await request(
                            frontend.address,
                            None,
                            "POST",
                            "/query",
                            body=body,
                            headers={"X-Tenant": tenant},
                        )
                        return response

                    first = await fire("alpha")
                    second = await fire("alpha")
                    other = await fire("beta")
                    assert first.status == 200
                    assert second.status == 429
                    assert second.json()["reason"] == "quota"
                    assert other.status == 200
                finally:
                    assert await frontend.shutdown(5.0)
                assert engine.stats.http_quota_rejections == 1

        asyncio.run(scenario())

    def test_queries_behind_a_held_batch_share_the_next_batch(
        self, small_dense_graph, monkeypatch
    ):
        # Seven connections send while the first query's batch is held in
        # flight; group commit folds all seven into the next batch.
        queries = [
            (0, 1, 4), (2, 1, 4), (3, 1, 4), (4, 1, 3),
            (0, 3, 3), (7, 3, 3), (9, 8, 3), (4, 8, 3),
        ]
        entered, gate = threading.Event(), threading.Event()

        async def scenario():
            with _engine(small_dense_graph) as engine:
                run_batch = engine.run_batch

                def gated_run_batch(batch, **kwargs):
                    entered.set()
                    gate.wait(10.0)
                    return run_batch(batch, **kwargs)

                monkeypatch.setattr(engine, "run_batch", gated_run_batch)
                frontend = await _booted(engine)
                try:
                    sends = [asyncio.create_task(_post_query(frontend, queries[0]))]
                    assert await _until(entered.is_set, rounds=500, delay=0.01)
                    sends += [
                        asyncio.create_task(_post_query(frontend, query))
                        for query in queries[1:]
                    ]
                    assert await _until(
                        lambda: frontend.coalescer.pending == 7, rounds=500, delay=0.01
                    )
                    gate.set()
                    records = await asyncio.wait_for(asyncio.gather(*sends), 10.0)
                    assert frontend.coalescer.batches_flushed == 2
                    assert frontend.coalescer.queries_coalesced == 8
                finally:
                    gate.set()
                    assert await frontend.shutdown(5.0)
                return records

        records = asyncio.run(scenario())
        for (s, t, k), record in zip(queries, records):
            assert record["ok"]
            assert _edges(record) == build_spg(small_dense_graph, s, t, k).edges

    def test_drain_rejects_new_work_then_completes(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                frontend.admission.begin_drain()
                try:
                    body = json.dumps({"source": 0, "target": 7, "k": 4}).encode()
                    rejected = await request(
                        frontend.address, None, "POST", "/query", body=body
                    )
                    assert rejected.status == 503
                    assert rejected.headers.get("retry-after") == "1"
                    health = await request(frontend.address, path="/healthz")
                    assert health.status == 503
                finally:
                    assert await frontend.shutdown(5.0)
                assert engine.stats.http_drain_rejections >= 1

        asyncio.run(scenario())

    def test_error_statuses(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    address = frontend.address
                    assert (await request(address, path="/nope")).status == 404
                    assert (await request(address, path="/query")).status == 405
                    bad = await request(
                        address, None, "POST", "/query", body=b"not json"
                    )
                    assert bad.status == 400
                    malformed = await request(
                        address, None, "POST", "/query", body=b'{"source": 0}'
                    )
                    assert malformed.status == 400
                    # The server answers from the claimed length, before
                    # reading any of the body.
                    status, body = await _raw_exchange(
                        address,
                        b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                        % (MAX_BODY_BYTES + 1),
                    )
                    assert status == 413
                    assert body == {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    @pytest.mark.parametrize("k", ["3.7", "true"])
    def test_non_integer_k_answers_400(self, small_dense_graph, k):
        """Regression: ``"k": 3.7`` was answered 200 for k=3, on both paths."""
        line = '{"source": 0, "target": 7, "k": %s}' % k

        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    address = frontend.address
                    query = await request(address, None, "POST", "/query", body=line.encode())
                    batch = await request(
                        address, None, "POST", "/batch", body=f"0 7 4\n{line}\n".encode()
                    )
                    return query, batch, engine.stats.queries_served
                finally:
                    assert await frontend.shutdown(5.0)

        query, batch, served = asyncio.run(scenario())
        assert query.status == batch.status == 400
        assert "hop constraint k" in query.json()["error"]
        assert "hop constraint k" in batch.json()["error"]
        assert served == 0

    def test_oversized_request_heads_answer_431(self, small_dense_graph):
        request_line = b"POST /query HTTP/1.1\r\n"
        # One header line past the 64 KiB stream limit, cut off at its
        # first byte over it.
        long_line = b"X-Pad: " + b"a" * (MAX_HEADER_BYTES + 1 - len(b"X-Pad: "))
        # Short lines of 64 bytes each, one past MAX_HEADER_BYTES in all.
        short_lines = b"".join(
            b"X-Pad-%04d: %s\r\n" % (index, b"a" * 50)
            for index in range(MAX_HEADER_BYTES // 64 + 1)
        )
        assert len(short_lines) == MAX_HEADER_BYTES + 64

        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    address = frontend.address
                    one_line = await _raw_exchange(address, request_line + long_line)
                    many_lines = await _raw_exchange(address, request_line + short_lines)
                    # The server keeps serving other connections.
                    assert (await request(address, path="/healthz")).status == 200
                finally:
                    assert await frontend.shutdown(5.0)
            return one_line, many_lines

        one_line, many_lines = asyncio.run(scenario())
        assert one_line == (431, {"error": "header line too long"})
        assert many_lines == (431, {"error": "request headers too large"})

    def test_unexpected_failure_answers_500(self, small_dense_graph, monkeypatch, caplog):
        # A failure that is not a client error must get an explicit answer,
        # not a dropped connection and an unhandled connection task.
        async def failing_batch(*args, **kwargs):
            raise RuntimeError("batch failed")

        def failing_delta(delta):
            raise RuntimeError("delta failed")

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            with _engine(small_dense_graph) as engine:
                engine.tracer = Tracer()
                monkeypatch.setattr(engine, "run_batch_async", failing_batch)
                monkeypatch.setattr(engine, "apply_delta", failing_delta)
                frontend = await _booted(engine)
                try:
                    address = frontend.address
                    query = await request(
                        address,
                        None,
                        "POST",
                        "/query",
                        body=json.dumps({"source": 0, "target": 7, "k": 4}).encode(),
                    )
                    assert query.status == 500
                    assert query.json() == {"error": "RuntimeError: batch failed"}
                    assert query.headers["connection"] == "close"
                    mutate = await request(
                        address,
                        None,
                        "POST",
                        "/mutate",
                        body=json.dumps({"insert": [[0, 7]]}).encode(),
                    )
                    assert mutate.status == 500
                    assert mutate.json() == {"error": "RuntimeError: delta failed"}
                    assert mutate.headers["connection"] == "close"
                    # A /batch head goes out before the first outcome: the
                    # stream can only close, unterminated.
                    with pytest.raises(ConnectionError):
                        await request(address, None, "POST", "/batch", body=b"0 7 4\n")
                    health = await request(address, path="/healthz")
                    assert health.status == 200
                    assert health.json()["queue_depth"] == 0
                finally:
                    assert await frontend.shutdown(5.0)
                statuses = {
                    (event.attributes["path"], event.attributes["status"])
                    for event in engine.tracer.events()
                    if event.name == "http.request"
                }
            assert statuses == {
                ("/query", 500),
                ("/mutate", 500),
                ("/batch", 500),
                ("/healthz", 200),
            }
            assert unhandled == []

        asyncio.run(scenario())
        # The traceback is logged, not lost with the connection.
        failures = {
            (record.getMessage(), str(record.exc_info[1]))
            for record in caplog.records
            if record.name == "repro.service.http.server"
        }
        assert failures == {
            ("POST /query failed", "batch failed"),
            ("POST /mutate failed", "delta failed"),
            ("POST /batch failed", "batch failed"),
        }

    def test_keep_alive_serves_sequential_requests(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    async with HTTPConnection(*frontend.address) as connection:
                        for source in (0, 1, 2):
                            response = await connection.request(
                                "POST",
                                "/query",
                                body=json.dumps(
                                    {"source": source, "target": 7, "k": 3}
                                ).encode(),
                            )
                            assert response.status == 200
                        health = await connection.request("GET", "/healthz")
                        assert health.status == 200
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_request_spans_recorded_when_tracing(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                engine.tracer = Tracer()
                frontend = await _booted(engine)
                try:
                    await request(frontend.address, path="/healthz")
                    body = json.dumps({"source": 0, "target": 7, "k": 4}).encode()
                    await request(frontend.address, None, "POST", "/query", body=body)
                finally:
                    assert await frontend.shutdown(5.0)
                spans = [
                    event
                    for event in engine.tracer.events()
                    if event.name == "http.request"
                ]
                assert len(spans) == 2
                by_path = {span.attributes["path"]: span for span in spans}
                assert by_path["/healthz"].attributes["status"] == 200
                assert by_path["/query"].attributes["method"] == "POST"
                assert by_path["/query"].attributes["tenant"] == "default"

        asyncio.run(scenario())

    def test_empty_batch_returns_empty_body(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    response = await request(
                        frontend.address, None, "POST", "/batch", body=b"\n# nope\n"
                    )
                    assert response.status == 200
                    assert response.json_lines() == []
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# /query cache hits answered on the event loop
# ----------------------------------------------------------------------
class TestLoopCacheHits:
    def test_repeat_is_answered_without_a_batch(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph, cache_size=64) as engine:
                frontend = await _booted(engine)
                try:
                    first = await _post_query(frontend, (0, 1, 4))
                    batches = engine.stats.batches_served
                    repeat = await _post_query(frontend, (0, 1, 4))
                    assert engine.stats.batches_served == batches
                finally:
                    assert await frontend.shutdown(5.0)
            return first, repeat

        first, repeat = asyncio.run(scenario())
        assert first["cached"] is False and repeat["cached"] is True
        assert _edges(repeat) == build_spg(small_dense_graph, 0, 1, 4).edges

    def test_each_query_is_one_lookup(self, small_dense_graph):
        sequential = [(0, 1, 4), (0, 1, 4), (7, 3, 3), (0, 1, 4), (7, 3, 3)]
        concurrent = [(2, 1, 4)] * 3 + [(9, 8, 3)] * 2

        async def scenario():
            with _engine(small_dense_graph, cache_size=64) as engine:
                frontend = await _booted(engine)
                try:
                    for query in sequential:
                        await _post_query(frontend, query)
                    # Only the two first sightings needed a batch.
                    assert engine.stats.batches_served == 2
                    await asyncio.gather(
                        *(_post_query(frontend, query) for query in concurrent)
                    )
                finally:
                    assert await frontend.shutdown(5.0)
                return engine.stats

        stats = asyncio.run(scenario())
        served = len(sequential) + len(concurrent)
        assert stats.queries_served == served
        # Each distinct query is computed once; every repeat is a hit,
        # whether answered on the loop or deduplicated inside a batch.
        assert stats.cache_misses == len(set(sequential) | set(concurrent)) == 4
        assert stats.cache_hits == served - 4

    def test_mutation_rekeys_what_the_loop_serves(self, small_dense_graph):
        changed, kept = (0, 7, 4), (3, 1, 4)
        mutated = DiGraph(
            small_dense_graph.num_vertices,
            sorted(small_dense_graph.edge_set() | {(0, 7)}),
        )

        async def scenario():
            with _engine(small_dense_graph, cache_size=64) as engine:
                frontend = await _booted(engine)
                try:
                    await _post_query(frontend, changed)
                    await _post_query(frontend, kept)
                    body = json.dumps({"insert": [[0, 7]]}).encode()
                    report = (
                        await request(frontend.address, None, "POST", "/mutate", body=body)
                    ).json()
                    assert report["cache_invalidated"] == 1
                    assert report["cache_retained"] == 1
                    batches = engine.stats.batches_served
                    records = [
                        await _post_query(frontend, query)
                        for query in (kept, changed, changed)
                    ]
                    # Only the invalidated entry needed a batch.
                    assert engine.stats.batches_served == batches + 1
                finally:
                    assert await frontend.shutdown(5.0)
            return records

        kept_hit, recomputed, changed_hit = asyncio.run(scenario())
        assert [kept_hit["cached"], recomputed["cached"], changed_hit["cached"]] == [
            True, False, True,
        ]
        assert _edges(kept_hit) == build_spg(mutated, *kept).edges
        assert _edges(recomputed) == build_spg(mutated, *changed).edges
        assert _edges(changed_hit) == _edges(recomputed)
        assert (0, 7) in _edges(recomputed)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestHTTPConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"tenant_rate": 0.0},
            {"tenant_burst": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HTTPConfig(**kwargs)

    def test_tenant_burst_defaults_to_one_second_of_rate(self):
        assert HTTPConfig(tenant_rate=25.0).resolved_tenant_burst() == 25.0
        assert HTTPConfig(tenant_rate=0.5).resolved_tenant_burst() == 1.0
        assert HTTPConfig().resolved_tenant_burst() is None
        assert HTTPConfig(tenant_rate=10.0, tenant_burst=3.0).resolved_tenant_burst() == 3.0


# ----------------------------------------------------------------------
# The stats side of admission telemetry
# ----------------------------------------------------------------------
class TestAdmissionStats:
    def test_unknown_decision_raises(self):
        with pytest.raises(ValueError):
            EngineStats().record_admission("whatever")

    def test_negative_queue_depth_raises(self):
        with pytest.raises(ValueError):
            EngineStats().set_queue_depth(-1)

    def test_peak_tracks_maximum(self):
        stats = EngineStats()
        for depth in (1, 4, 2):
            stats.set_queue_depth(depth)
        assert stats.http_queue_depth == 2
        assert stats.http_queue_depth_peak == 4
        stats.reset()
        assert stats.http_queue_depth_peak == 0

    def test_prometheus_renders_admission_families(self):
        stats = EngineStats()
        stats.record_admission("admitted")
        stats.record_admission("quota")
        stats.set_queue_depth(5)
        samples = {s.name: s.value for s in parse_exposition(stats.to_prometheus())}
        assert samples["repro_http_requests_admitted_total"] == 1.0
        assert samples["repro_http_quota_rejections_total"] == 1.0
        assert samples["repro_http_queue_depth"] == 5.0
        assert samples["repro_http_queue_depth_peak"] == 5.0


def test_loadgen_smoke_passes_in_process():
    """The CI smoke leg (benchmarks/loadgen.py smoke) must hold its contract."""
    benchmarks_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(benchmarks_dir))
    try:
        import loadgen
    finally:
        sys.path.remove(str(benchmarks_dir))
    violations = asyncio.run(
        loadgen.smoke(topology="tw", scale=0.05, burst=24, max_queue_depth=2)
    )
    assert violations == []


def test_loadgen_mutation_smoke_passes_in_process():
    """The dynamic-graph CI leg (loadgen.py mutate-smoke) must hold its contract."""
    benchmarks_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(benchmarks_dir))
    try:
        import loadgen
    finally:
        sys.path.remove(str(benchmarks_dir))
    violations = asyncio.run(
        loadgen.mutation_smoke(
            topology="tw",
            scale=0.05,
            rate=30.0,
            duration=1.5,
            mutation_rounds=6,
            in_process=True,
        )
    )
    assert violations == []


# ----------------------------------------------------------------------
# POST /mutate — graph deltas under live traffic
# ----------------------------------------------------------------------
class TestMutateEndpoint:
    def test_mutation_changes_served_answers(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph, cache_size=64) as engine:
                frontend = await _booted(engine)
                try:
                    query = json.dumps({"source": 0, "target": 7, "k": 4}).encode()
                    before = (await request(
                        frontend.address, None, "POST", "/query", body=query
                    )).json()

                    body = json.dumps({"insert": [[0, 7]]}).encode()
                    response = await request(
                        frontend.address, None, "POST", "/mutate", body=body
                    )
                    assert response.status == 200
                    report = response.json()
                    assert report["epoch"] == 1
                    assert report["inserted"] == 1 and report["deleted"] == 0
                    assert report["noop"] is False

                    after = (await request(
                        frontend.address, None, "POST", "/query", body=query
                    )).json()
                    return before, after
                finally:
                    assert await frontend.shutdown(5.0)

        before, after = asyncio.run(scenario())
        assert before["ok"] and after["ok"]
        assert [0, 7] not in before["edges"]
        assert [0, 7] in after["edges"]

    def test_mutate_with_vertex_labels(self, figure1):
        graph, builder = figure1

        async def scenario():
            with _engine(graph) as engine:
                frontend = await _booted(engine, builder=builder)
                try:
                    body = json.dumps(
                        {"insert": [["s", "t"]], "delete": [["b", "a"]]}
                    ).encode()
                    response = await request(
                        frontend.address, None, "POST", "/mutate", body=body
                    )
                    assert response.status == 200
                    report = response.json()
                    assert report["inserted"] == 1 and report["deleted"] == 1

                    unknown = await request(
                        frontend.address,
                        None,
                        "POST",
                        "/mutate",
                        body=json.dumps({"insert": [["s", "zz"]]}).encode(),
                    )
                    assert unknown.status == 400
                    assert "zz" in unknown.json()["error"]
                    sid, tid = builder.vertex_id("s"), builder.vertex_id("t")
                    return (sid, tid) in engine.graph.edge_set()
                finally:
                    assert await frontend.shutdown(5.0)

        assert asyncio.run(scenario())

    @pytest.mark.parametrize("graph_source", ["edges", "dataset"])
    def test_mutate_reads_endpoints_as_query_does(self, tmp_path, small_dense_graph, graph_source):
        """Regression: ``/query`` and ``/mutate`` read one endpoint value as
        two different things.  With an edge file, ``/query`` looked ``10``
        up as the label ``"10"`` while ``/mutate`` answered 400 for it;
        without one, ``/query`` read ``"0"`` as vertex 0 while ``/mutate``
        answered 400."""
        if graph_source == "edges":
            edge_file = tmp_path / "graph.txt"
            edge_file.write_text("10 11\n11 12\n12 13\n", encoding="utf-8")
            graph, builder = load_graph(str(edge_file))
            source, target, inserted = 10, 13, (10, 12)
            ids = builder.vertex_id("10"), builder.vertex_id("12")
        else:
            graph, builder = small_dense_graph, None
            source, target, inserted = "0", "7", ("0", "7")
            ids = (0, 7)

        async def scenario():
            with _engine(graph) as engine:
                frontend = await _booted(engine, builder=builder)
                try:
                    query = json.dumps({"source": source, "target": target, "k": 3})
                    before = await request(
                        frontend.address, None, "POST", "/query", body=query.encode()
                    )
                    mutate = await request(
                        frontend.address,
                        None,
                        "POST",
                        "/mutate",
                        body=json.dumps({"insert": [list(inserted)]}).encode(),
                    )
                    return before, mutate, ids in engine.graph.edge_set()
                finally:
                    assert await frontend.shutdown(5.0)

        before, mutate, present = asyncio.run(scenario())
        assert before.status == 200 and before.json()["ok"]
        assert mutate.status == 200, mutate.json()
        assert mutate.json()["inserted"] == 1
        assert present

    def test_noop_and_idempotent_replay(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    existing = sorted(small_dense_graph.edge_set())[0]
                    body = json.dumps({"insert": [list(existing)]}).encode()
                    response = await request(
                        frontend.address, None, "POST", "/mutate", body=body
                    )
                    report = response.json()
                    assert response.status == 200
                    assert report["noop"] is True
                    assert report["skipped_inserts"] == 1
                    assert report["epoch"] == 0
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_concurrent_mutations_share_one_thread(self, small_dense_graph):
        # Mutations run off the event loop on one thread of their own, so
        # every graph generation is built in the same malloc arena.
        threads = set()

        async def scenario():
            with _engine(small_dense_graph) as engine:
                apply_delta = engine.apply_delta

                def recording_apply_delta(delta):
                    threads.add(threading.current_thread().name)
                    time.sleep(0.01)
                    return apply_delta(delta)

                engine.apply_delta = recording_apply_delta
                frontend = await _booted(engine)
                try:
                    edges = sorted(small_dense_graph.edge_set())[:4]
                    responses = await asyncio.gather(
                        *(
                            request(
                                frontend.address,
                                None,
                                "POST",
                                "/mutate",
                                body=json.dumps({"delete": [list(edge)]}).encode(),
                            )
                            for edge in edges
                        )
                    )
                    assert [response.status for response in responses] == [200] * 4
                    return engine.graph_epoch
                finally:
                    assert await frontend.shutdown(5.0)

        assert asyncio.run(scenario()) == 4
        assert len(threads) == 1, threads
        assert threading.main_thread().name not in threads

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (b"not json", "invalid JSON"),
            (b"[1, 2]", "JSON object"),
            (b'{"upsert": []}', "unknown mutate keys"),
            (b'{"insert": {"0": 1}}', "JSON array"),
            (b'{"insert": [[0]]}', "pair"),
            (b'{"insert": [[0, 1]], "delete": [[0, 1]]}', "both inserts and deletes"),
            (b'{"insert": [[0, 9999]]}', "outside"),
        ],
    )
    def test_malformed_mutations_get_400(self, small_dense_graph, body, fragment):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    response = await request(
                        frontend.address, None, "POST", "/mutate", body=body
                    )
                    assert response.status == 400
                    assert fragment in response.json()["error"]
                    assert engine.graph_epoch == 0
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_get_mutate_is_405(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                try:
                    response = await request(frontend.address, path="/mutate")
                    assert response.status == 405
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_mutate_rejected_during_drain(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph) as engine:
                frontend = await _booted(engine)
                frontend.admission.begin_drain()
                try:
                    body = json.dumps({"insert": [[0, 7]]}).encode()
                    response = await request(
                        frontend.address, None, "POST", "/mutate", body=body
                    )
                    assert response.status == 503
                    assert engine.graph_epoch == 0
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())

    def test_metrics_expose_delta_counters(self, small_dense_graph):
        async def scenario():
            with _engine(small_dense_graph, cache_size=64) as engine:
                frontend = await _booted(engine)
                try:
                    body = json.dumps({"insert": [[0, 7]], "delete": []}).encode()
                    assert (
                        await request(
                            frontend.address, None, "POST", "/mutate", body=body
                        )
                    ).status == 200
                    metrics = await request(frontend.address, path="/metrics")
                    samples = {
                        s.name: s.value for s in parse_exposition(metrics.text)
                    }
                    assert samples["repro_deltas_applied_total"] == 1.0
                    assert samples["repro_delta_edges_inserted_total"] == 1.0
                    assert samples["repro_graph_epoch"] == 1.0
                finally:
                    assert await frontend.shutdown(5.0)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Golden output: /query, /batch and the service CLI, byte for byte
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "outcome_golden.json"
GOLDEN_DATASET = ("tw", "0.05")

#: Answers of 3 to 9 edges with vertex ids on both sides of 10, a shared
#: target, an in-batch duplicate, an engine error (``s == t``), an empty
#: answer and a translation failure, as JSON lines (so each line is also
#: a ``/query`` body).
GOLDEN_QUERIES = [
    (30, 38, 5),
    (24, 27, 4),
    (24, 38, 5),
    (30, 25, 5),
    (2.9, 9, 3),
    (30, 38, 5),
    (7, 7, 3),
    (0, 1, 3),
]


def _golden_label(vertex) -> str:
    """A label whose string order differs from its vertex's id order."""
    return f"acct{vertex * 11 % 45}" if isinstance(vertex, int) else "nobody"


def _workload_text(queries) -> str:
    return "".join(
        json.dumps({"source": s, "target": t, "k": k}) + "\n" for s, t, k in queries
    )


def _mask_latency(text: str) -> str:
    return re.sub(r'"latency_ms": [-+.0-9e]+', '"latency_ms": 0', text)


def golden_outputs(tmp_path) -> dict:
    """Each surface's output for the golden workload, latency masked.

    Once with dense ids (``--dataset``) and once with the labels of an
    edge-list file holding the same graph, so ``relabel`` sorts the
    edges by label.
    """
    from repro.datasets.registry import load_dataset

    dataset, scale = GOLDEN_DATASET
    dense = load_dataset(dataset, scale=float(scale))
    edge_file = tmp_path / "golden.txt"
    edge_file.write_text(
        "".join(
            f"{_golden_label(u)} {_golden_label(v)}\n"
            for u in dense.vertices()
            for v in dense.out_neighbors(u)
        ),
        encoding="utf-8",
    )
    labelled, builder = load_graph(str(edge_file))
    workloads = {
        "dense": _workload_text(GOLDEN_QUERIES),
        "labels": _workload_text(
            (_golden_label(s), _golden_label(t), k) for s, t, k in GOLDEN_QUERIES
        ),
    }
    sources = {
        "dense": (["--dataset", dataset, "--scale", scale], dense, None),
        "labels": (["--edges", str(edge_file)], labelled, builder),
    }
    outputs = {}
    for name, (args, graph, graph_builder) in sources.items():
        workload = workloads[name]
        completed = subprocess.run(
            [sys.executable, "-m", "repro.service", *args],
            input=workload,
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )
        assert completed.returncode == 0, completed.stderr
        outputs[f"cli-{name}"] = _mask_latency(completed.stdout)

        async def serve(path, bodies):
            with SPGEngine(graph) as engine:
                frontend = await _booted(engine, builder=graph_builder)
                try:
                    texts = []
                    for body in bodies:
                        response = await request(
                            frontend.address, None, "POST", path, body=body.encode()
                        )
                        assert response.status == 200
                        texts.append(response.text)
                    return "".join(texts)
                finally:
                    assert await frontend.shutdown(5.0)

        outputs[f"query-{name}"] = _mask_latency(
            asyncio.run(serve("/query", workload.splitlines()))
        )
        outputs[f"batch-{name}"] = _mask_latency(asyncio.run(serve("/batch", [workload])))
    return outputs


class TestOutcomeGolden:
    def test_surfaces_write_the_recorded_bytes(self, tmp_path):
        expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert golden_outputs(tmp_path) == expected
