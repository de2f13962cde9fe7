"""The ``http-mixed`` workload: reads and writes against the HTTP server.

The benchmark writes a seeded power-law graph to an edge-list file, starts
``python -m repro.service.http --edges FILE --port 0`` (every other flag at
its default) and drives it over a few keep-alive connections from one
process with one request mix: 96% ``POST /query`` drawn Zipf(1.0) from a
fixed set of distinct keys, 4% ``POST /mutate`` with 4-edge deltas that
alternately insert fresh edges and delete them again.  A closed-loop phase
measures the server's capacity (``qps``); an open-loop phase at a fixed
offered rate measures latency, timed from each request's scheduled send
time.

After the timed phase a seeded sample of keys, the Zipf head included, is
queried again and every answer is compared with ``EVE.query`` run on the
benchmark's own replay of the deltas, in the epoch order ``/mutate``
reported.  A cache entry kept stale across a delta shows up there.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import EVE, DiGraph, SPGEngine
from repro.core.distances import backward_distance_map
from repro.core.eve import QueryScratch
from repro.graph.delta import GraphDelta, apply_delta
from repro.service.engine import EngineConfig
from repro.service.planner import plan_batch
from repro.telemetry import Tracer
from repro.telemetry.prometheus import parse_exposition

from inputs import Zipf, distinct_keys, fresh_edges, power_law_edges, stream, uniform_pairs
from measure import (
    Outcome,
    PhaseTotals,
    latency_summary,
    median_of,
    process_peak_rss_mb,
    quantile,
    ratio,
    timed,
)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

N, OUT_EDGES = 100_000, 4
DISTINCT_KEYS, KS = 4000, (3, 4, 5)
WRITE_EVERY = 25  # one request in 25 is a mutation: 4%
DELTA_EDGES = 4
# The open-loop phase offers this share of the request rate the server
# answered in the closed-loop phase of the same run.
OFFERED_SHARE = 0.3
CONNECTIONS = min(2, os.cpu_count() or 1)
WARMUP_QUERIES = 2000
SETUP_REPEATS = 5
# Share of --seconds spent in the closed-loop capacity phase; the rest is
# the open-loop phase.
CAPACITY_SHARE = 0.5
CAPACITY_MAX_RPS = 1000.0  # sizes the capacity phase's request list
CHECK_HEAD, CHECK_RANDOM = 30, 30
# A run whose generator sent requests this late (p99) is invalid: the
# client, not the server, would be charged for the stall.
LAG_LIMIT_MS = 20.0
REPLAY_REQUESTS = 400
READY_TIMEOUT = 120.0

Key = Tuple[int, int, int]
Edge = Tuple[int, int]


class InvalidRun(RuntimeError):
    """The run cannot be measured (e.g. the generator fell behind)."""


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro.service.http`` subprocess on an ephemeral port."""

    def __init__(self, edge_file: Path, trace: bool = False) -> None:
        self.edge_file = edge_file
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.http",
             "--edges", str(edge_file), "--port", "0"] + (["--trace"] if trace else []),
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self._lines.put(line)
        self._lines.put("")

    def _await_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not report its port in time") from None
            if line.startswith("serving on"):
                return int(line.strip().rsplit(":", 1)[1])
            if not line:
                raise RuntimeError(f"server exited with {self.process.wait()}")

    def _await_healthy(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"/healthz answered {response.status}")
        finally:
            connection.close()

    def get(self, path: str) -> str:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.read().decode("utf-8")
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=5)


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
@dataclass
class Request:
    due: float  # seconds after the schedule start
    path: str
    body: bytes
    key: Optional[Key] = None
    delta: Optional[Tuple[str, Tuple[Edge, ...]]] = None


@dataclass
class Response:
    request: Request
    due: float
    ready: float  # when the request was due and a connection was free
    sent: float
    done: float
    status: int
    payload: Optional[dict]

    @property
    def ok(self) -> bool:
        if self.status != 200 or self.payload is None:
            return False
        return self.payload.get("ok", True) is True


def drive(
    port: int, requests: List[Request], connections: int, stop_after: Optional[float] = None
) -> Tuple[List[Response], float]:
    """Send ``requests`` on their schedule over ``connections`` keep-alive
    connections; returns the responses in schedule order and the start.

    Each connection thread takes the next unsent request, sleeps until it
    is due, sends it and waits for the answer, so no more than
    ``connections`` requests are outstanding.  A transport error is a
    response with status 0; the connection is then reopened.  With
    ``stop_after``, no request is sent later than that many seconds after
    the start, and unsent requests have no response.
    """
    responses: List[Optional[Response]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    stop = None if stop_after is None else start + stop_after

    def connection_loop() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        free = time.perf_counter()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None or (stop is not None and time.perf_counter() >= stop):
                    return
                request = requests[index]
                due = start + request.due
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", request.path, body=request.body,
                        headers={"Content-Type": "application/json"},
                    )
                    answer = connection.getresponse()
                    data = answer.read()
                    status = answer.status
                    payload = json.loads(data) if status == 200 else None
                except (OSError, http.client.HTTPException, ValueError):
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                    status, payload = 0, None
                done = time.perf_counter()
                responses[index] = Response(
                    request, due, max(due, free), sent, done, status, payload
                )
                free = done
        finally:
            connection.close()

    threads = [threading.Thread(target=connection_loop) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in responses if r is not None], start


def query_rate(responses: List[Response], start: float) -> float:
    """Successful queries per second from ``start`` to the last answer."""
    ok = sum(r.ok for r in responses if r.request.key is not None)
    return ratio(ok, max(r.done for r in responses) - start)


def query_request(key: Key) -> Request:
    body = json.dumps({"source": key[0], "target": key[1], "k": key[2]}).encode()
    return Request(0.0, "/query", body, key=key)


def mutate_request(kind: str, edges: Tuple[Edge, ...]) -> Request:
    pairs = [[str(u), str(v)] for u, v in edges]  # the edge file's labels
    body = json.dumps({kind: pairs}).encode()
    return Request(0.0, "/mutate", body, delta=(kind, edges))


def request_mix(seed: int, keys: List[Key], zipf: Zipf, edges: List[Edge]) -> Iterator[Request]:
    """The endless request mix, due at once (closed loop) until ``pace``d:
    one request in ``WRITE_EVERY`` is a delta, alternately inserting fresh
    edges and deleting them again; the others are Zipf queries."""
    rng = stream(seed, "requests")
    present = set(edges)
    pairs = uniform_pairs(N, stream(seed, "deltas"))
    used: Set[Edge] = set()
    inserted: Tuple[Edge, ...] = ()
    index = 0
    while True:
        if index % WRITE_EVERY == WRITE_EVERY // 2:
            if inserted:
                yield mutate_request("delete", inserted)
                inserted = ()
            else:
                inserted = tuple(fresh_edges(present, pairs, DELTA_EDGES, used))
                yield mutate_request("insert", inserted)
        else:
            yield query_request(keys[zipf.draw(rng)])
        index += 1


def pace(requests: List[Request], rate: float, seed: int) -> List[Request]:
    """Make ``requests`` due at ``rate`` per second, each at its slot plus
    a seeded jitter of up to half a slot.

    Without the jitter every query would sit at the same few offsets after
    a mutation, and p95 jumped between those levels from run to run.
    """
    jitter = stream(seed, "jitter")
    for index, request in enumerate(requests):
        request.due = max(0.0, index + jitter.uniform(-0.5, 0.5)) / rate
    return requests


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def replay_deltas(edges: List[Edge], responses: List[Response], mismatches: List[str]) -> Set[Edge]:
    """The graph the server should hold, from deltas applied in epoch order."""
    effective = [
        r for r in responses
        if r.request.delta is not None and r.ok and not r.payload["noop"]
    ]
    effective.sort(key=lambda r: r.payload["epoch"])
    epochs = [r.payload["epoch"] for r in effective]
    if epochs != list(range(1, len(epochs) + 1)):
        mismatches.append(f"/mutate epochs are not 1..{len(epochs)}: {epochs[:10]}...")
    present = set(edges)
    for response in effective:
        kind, delta_edges = response.request.delta
        changed = response.payload["inserted" if kind == "insert" else "deleted"]
        expected = sum((e not in present) == (kind == "insert") for e in delta_edges)
        if changed != expected:
            mismatches.append(
                f"/mutate epoch {response.payload['epoch']} changed {changed} "
                f"edges, the replay expects {expected}"
            )
        if kind == "insert":
            present.update(delta_edges)
        else:
            present.difference_update(delta_edges)
    return present


def check_answers(
    server: Server, graph: DiGraph, sample: List[Key], mismatches: List[str]
) -> int:
    """Query ``sample`` again; compare with EVE on the replayed graph."""
    responses, _ = drive(server.port, [query_request(key) for key in sample], 1)
    eve = EVE(graph)
    scratch = QueryScratch()
    for response in responses:
        key = response.request.key
        if not response.ok:
            mismatches.append(f"check query {key} failed with status {response.status}")
            continue
        answer = {(int(u), int(v)) for u, v in response.payload["edges"]}
        expected = eve.query(*key, scratch=scratch).edges
        if answer != expected:
            mismatches.append(
                f"http-mixed: answer for {key} has {len(answer)} edges, "
                f"the replayed graph gives {len(expected)}"
            )
    return len(responses)


# ----------------------------------------------------------------------
# Per-layer measurement
# ----------------------------------------------------------------------
def scrape(server: Server) -> Dict[str, float]:
    """Unlabelled samples of ``/metrics`` by name."""
    return {
        sample.name: sample.value
        for sample in parse_exposition(server.get("/metrics"))
        if not sample.labels
    }


def http_layers(
    before: Dict[str, float], after: Dict[str, float], timed_responses: List[Response]
) -> Dict[str, float]:
    def delta(name: str) -> float:
        return after[name] - before[name]

    queries = [r for r in timed_responses if r.request.key is not None and r.ok]
    mutations = [r for r in timed_responses if r.request.delta is not None and r.ok]
    retained = sum(r.payload["cache_retained"] for r in mutations)
    invalidated = sum(r.payload["cache_invalidated"] for r in mutations)
    hits = delta("repro_cache_hits_total")
    return {
        "http.overhead_p50_ms": median_of(
            (r.done - r.sent) * 1000.0 - r.payload["latency_ms"] for r in queries
        ),
        "http.queries_per_batch": ratio(
            delta("repro_queries_served_total"), delta("repro_batches_served_total")
        ),
        "http.shed_ratio": ratio(
            delta("repro_http_requests_shed_total") + delta("repro_http_quota_rejections_total"),
            len(timed_responses),
        ),
        "http.queue_depth_peak": after["repro_http_queue_depth_peak"],
        "cache.hit_ratio": ratio(hits, hits + delta("repro_cache_misses_total")),
        "delta.cache_retained_ratio": ratio(retained, retained + invalidated),
        "delta.compactions": delta("repro_delta_compactions_total"),
    }


def in_process_replay(graph: DiGraph, requests: List[Request]) -> Dict[str, float]:
    """Replay a fixed request prefix through an in-process default engine.

    One caller, one request at a time, so the counter block (EVE work,
    cache hits, planner groups) repeats exactly for a seed and phase
    times hold no lock waits.  Consecutive query pairs are also planned
    (the server coalesces about two queries per batch) to time the
    planner and the shared backward pass on this query stream.
    """
    engine = SPGEngine.from_config(graph, EngineConfig())
    tracer = engine.tracer = Tracer()
    totals = PhaseTotals()
    walls: List[float] = []
    busy: List[float] = []
    hits = 0
    overlay_times: List[float] = []
    apply_times: List[float] = []
    pending: List[Key] = []
    planner = {"ms": 0.0, "groups": 0, "shared": 0, "reused": 0, "plans": 0,
               "backward_ms": 0.0, "backward": 0}
    try:
        for request in requests:
            if request.delta is not None:
                kind, delta_edges = request.delta
                delta = GraphDelta(**{kind + "s": delta_edges})
                overlay_times.append(timed(lambda: apply_delta(engine.graph, delta))[0])
                apply_times.append(timed(lambda: engine.apply_delta(delta))[0])
                continue
            report = engine.run_batch([request.key])
            totals.add(tracer.drain())
            walls.append(report.wall_seconds)
            busy.append(sum(o.latency_seconds for o in report.outcomes))
            hits += report.cache_hits
            pending.append(request.key)
            if len(pending) == 2:
                spent, plan = timed(lambda: plan_batch(pending))
                planner["ms"] += spent * 1000.0
                planner["plans"] += 1
                planner["groups"] += len(plan.groups)
                planner["shared"] += plan.num_shared_groups
                planner["reused"] += plan.reused_backward_passes
                for group in plan.groups:
                    if group.shared:
                        spent, _ = timed(
                            lambda: backward_distance_map(engine.graph, group.target, group.k)
                        )
                        planner["backward_ms"] += spent * 1000.0
                        planner["backward"] += 1
                pending = []
        metrics = totals.metrics()
        metrics.update({
            "planner.ms": ratio(planner["ms"], planner["plans"]),
            "planner.groups": planner["groups"],
            "planner.shared_groups": planner["shared"],
            "planner.reused_backward_passes": planner["reused"],
            "planner.backward_ms": ratio(planner["backward_ms"], planner["backward"]),
            "engine.batch_wall_s": median_of(walls),
            "engine.query_busy_s": median_of(busy),
            "engine.scratch_allocations": engine.stats.scratch_allocations,
            "cache.hits": hits,
            "cache.entries": len(engine.cache),
            "delta.overlay_ms": median_of(overlay_times) * 1000.0,
            "delta.apply_ms": median_of(apply_times) * 1000.0,
        })
        return metrics
    finally:
        engine.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def http_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    edges = power_law_edges(N, OUT_EDGES, stream(seed, "graph"))
    WORK_DIR.mkdir(exist_ok=True)
    edge_file = WORK_DIR / f"http-mixed-{os.getpid()}.txt"
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="ascii")
    try:
        setups: List[float] = []
        server = None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(edge_file)
            setups.append(server.setup_seconds)
        try:
            return _measure(seed, seconds, trace, edges, server, setups)
        finally:
            server.stop()
    finally:
        edge_file.unlink()
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still has its edge file there
            pass


def traced_capacity(edge_file: Path, warmup: List[Request], requests: List[Request],
                    seconds: float) -> Tuple[List[Response], float]:
    """The capacity phase again, on a fresh server started with ``--trace``."""
    server = Server(edge_file, trace=True)
    try:
        drive(server.port, warmup, CONNECTIONS)
        return drive(server.port, requests, CONNECTIONS, stop_after=seconds)
    finally:
        server.stop()


def _measure(seed, seconds, trace, edges, server: Server, setups) -> Outcome:
    keys = distinct_keys(edges, stream(seed, "keys"), DISTINCT_KEYS, KS)
    zipf = Zipf(len(keys))
    warmup_rng = stream(seed, "warmup")
    warmup = [query_request(keys[zipf.draw(warmup_rng)]) for _ in range(WARMUP_QUERIES)]
    mix = request_mix(seed, keys, zipf, edges)
    capacity_seconds = seconds * CAPACITY_SHARE
    closed = list(islice(mix, int(capacity_seconds * CAPACITY_MAX_RPS)))

    drive(server.port, warmup, CONNECTIONS)
    capacity, capacity_start = drive(server.port, closed, CONNECTIONS, stop_after=capacity_seconds)
    qps = query_rate(capacity, capacity_start)
    offered_rps = OFFERED_SHARE * len(capacity) / (max(r.done for r in capacity) - capacity_start)
    count = int((seconds - capacity_seconds) * offered_rps)
    paced = pace(list(islice(mix, count)), offered_rps, seed)
    before = scrape(server) if trace else None
    responses, _ = drive(server.port, paced, CONNECTIONS)
    after = scrape(server) if trace else None
    lag_p99_ms = quantile([r.sent - r.ready for r in responses], 0.99) * 1000.0
    if lag_p99_ms > LAG_LIMIT_MS:
        raise InvalidRun(
            f"load generator fell behind its schedule: lag p99 {lag_p99_ms:.1f} ms"
        )

    sent = capacity + responses
    queries = [r for r in responses if r.request.key is not None]
    ok_queries = [r.done - r.due for r in queries if r.ok]
    ok_mutations = [r.done - r.due for r in responses if r.request.delta is not None and r.ok]
    failed = sum(not r.ok for r in sent)

    mismatches: List[str] = []
    present = replay_deltas(edges, sent, mismatches)
    rss_mb = server.peak_rss_mb()
    rng = stream(seed, "check")
    sample = keys[:CHECK_HEAD] + rng.sample(keys[CHECK_HEAD:], CHECK_RANDOM)
    checked = check_answers(server, DiGraph(N, sorted(present)), sample, mismatches)
    attempted = len(sent) + checked

    layers: Dict[str, float] = {
        "loadgen.offered_rps": offered_rps,
        "loadgen.lag_p99_ms": lag_p99_ms,
    }
    if trace:
        server.stop()
        traced, traced_start = traced_capacity(server.edge_file, warmup, closed, capacity_seconds)
        attempted += len(traced)
        failed += sum(not r.ok for r in traced)
        traced_qps = query_rate(traced, traced_start)
        layers.update(http_layers(before, after, responses))
        layers["mutate_p50_ms"] = (
            median_of(ok_mutations) if ok_mutations else seconds
        ) * 1000.0
        graph = DiGraph(N, edges)
        layers["graph.csr_build_s"] = timed(lambda: (graph.csr(), graph.csr_reverse()))[0]
        replay = list(islice(request_mix(seed, keys, zipf, edges), REPLAY_REQUESTS))
        layers.update(in_process_replay(graph, replay))
        layers.update({
            "trace.qps_untraced": qps,
            "trace.qps_traced": traced_qps,
            "trace.overhead_ratio": 1.0 - ratio(traced_qps, qps),
        })
    layers["error_ratio"] = ratio(failed, attempted)
    penalty = [seconds] * (len(queries) - len(ok_queries))
    latency, tail = latency_summary(ok_queries + penalty)
    layers.update(tail)
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": median_of(setups),
            "qps": qps,
            **latency,
            "success_ratio": ratio(attempted - failed, attempted),
            "rss_mb": rss_mb,
        },
        per_layer=layers,
        mismatches=mismatches,
    )
