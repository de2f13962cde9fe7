"""The asyncio HTTP front end: hand-rolled HTTP/1.1 over stream pairs.

:class:`HTTPFrontend` puts a network surface on one
:class:`~repro.service.engine.SPGEngine` without any new runtime
dependency — requests are parsed straight off ``asyncio`` streams:

* ``POST /query`` — one JSON query object; admitted through the bounded
  queue and the per-tenant quota, then handed to the
  :class:`~repro.service.http.coalescer.QueryCoalescer`, which answers a
  cache hit on the event loop and batches misses by group commit; the
  response is the same :func:`~repro.service.workload_io.outcome_record`
  JSON the offline CLI prints.
* ``POST /batch`` — a JSONL workload in the request body; the response
  streams one outcome record per line as chunked transfer encoding,
  backed by :meth:`~repro.service.engine.SPGEngine.astream`, with
  translation failures interleaved in input order exactly like the CLI.
* ``POST /mutate`` — a JSON ``{"insert": [[u, v], ...], "delete": ...}``
  edge delta, applied to the live engine through
  :meth:`~repro.service.engine.SPGEngine.apply_delta` (epoch-versioned
  swap, scoped cache invalidation); the response reports the new epoch
  and what the delta did.  Mutations pass the same admission gates as
  queries, so a drain waits for in-flight mutations and answers new ones
  503.
* ``GET /metrics`` — Prometheus text-format 0.0.4 from
  :meth:`~repro.service.stats.EngineStats.to_prometheus` (admission
  counters, delta/invalidation counters and queue-depth gauges included).
* ``GET /healthz`` — liveness plus drain state (503 while draining).

Overload sheds with 429 (queue full or tenant quota) and shutdown drains
gracefully: new requests get 503 while admitted queries finish, bounded
by the drain timeout :meth:`HTTPFrontend.shutdown` is given.  Any other
failure of a request answers 500 with a JSON ``error`` naming the
exception and closes the connection; a ``/batch`` stream whose head
already went out can only close.  When the engine carries a
:class:`~repro.telemetry.Tracer`, every request records an
``http.request`` span (method, path, status, tenant) into the same buffer
as the engine's phase spans, and every coalescer batch an ``http.batch``
span; a failed request's span says 500.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.exceptions import EdgeError, GraphError, QueryError, ReproError
from repro.graph.delta import GraphDelta
from repro.service.engine import QueryOutcome, SPGEngine
from repro.service.http.admission import ADMITTED, DRAINING, QUOTA, SHED, AdmissionController
from repro.service.http.coalescer import QueryCoalescer
from repro.service.http.config import HTTPConfig
from repro.service.workload_io import (
    coerce_vertex_id,
    outcome_record,
    parse_query_line,
    read_queries,
    translate_queries,
)

__all__ = ["HTTPError", "Request", "HTTPFrontend"]

_LOG = logging.getLogger(__name__)

#: Request framing limits: a body over ``MAX_BODY_BYTES`` answers 413, and
#: header lines adding up to over ``MAX_HEADER_BYTES`` answer 431.  One line
#: longer than the stream reader's 64 KiB limit also answers 431.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A request that must be answered with an error status."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _StreamAborted(Exception):
    """A streamed response failed after its head went out.

    Nothing can be answered any more: the connection closes, and the
    unterminated chunked body tells the client the stream did not finish.
    The original failure is the ``__cause__``.
    """


@dataclass
class Request:
    """One parsed HTTP/1.1 request."""

    method: str
    target: str
    version: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """The request target without its query string."""
        return self.target.split("?", 1)[0]

    @property
    def keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on clean EOF.

    Framing violations raise :class:`HTTPError` (400/413/431/501); the
    connection handler answers and closes.
    """
    try:
        request_line = await reader.readline()
    except ValueError as exc:  # line longer than the stream limit
        raise HTTPError(431, "request line too long") from exc
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line[:80]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HTTPError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:
            raise HTTPError(431, "header line too long") from exc
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HTTPError(400, "connection closed mid-headers")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HTTPError(431, "request headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HTTPError(501, "chunked request bodies are not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HTTPError(400, f"bad Content-Length {length_text!r}") from exc
        if length < 0:
            raise HTTPError(400, f"bad Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HTTPError(400, "connection closed mid-body") from exc
    return Request(method=method, target=target, version=version, headers=headers, body=body)


def _write_head(
    writer: asyncio.StreamWriter,
    status: int,
    headers: Tuple[Tuple[str, str], ...],
) -> None:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> None:
    headers = (
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
        ("Connection", "keep-alive" if keep_alive else "close"),
    ) + extra_headers
    _write_head(writer, status, headers)
    writer.write(body)


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


class HTTPFrontend:
    """An asyncio HTTP server in front of one engine (see module docstring).

    Parameters
    ----------
    engine:
        The engine that answers everything: ``/query`` cache hits on the
        event loop through :meth:`~repro.service.engine.SPGEngine.cached_outcome`,
        all other work off it.  Closing it remains the caller's job (the
        CLI owns both lifecycles).
    builder:
        The :class:`~repro.graph.builder.GraphBuilder` of an edge-list
        graph, when one was loaded: query endpoints are then the file's
        own labels and responses are relabelled, exactly like the offline
        CLI's ``--edges`` path.  ``None`` serves dense integer ids.
    config:
        A :class:`~repro.service.http.config.HTTPConfig`; ``None`` uses
        the defaults.
    """

    def __init__(
        self,
        engine: SPGEngine,
        *,
        builder=None,
        config: Optional[HTTPConfig] = None,
    ) -> None:
        self._engine = engine
        self._builder = builder
        self._config = config or HTTPConfig()
        self._admission = AdmissionController(
            max_queue_depth=self._config.max_queue_depth,
            stats=engine.stats,
            tenant_rate=self._config.tenant_rate,
            tenant_burst=self._config.resolved_tenant_burst(),
        )
        self._coalescer = QueryCoalescer(engine)
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        # Mutations get one thread of their own; they serialize on the
        # engine's delta lock anyway.  Each graph generation is allocated
        # in the malloc arena of the thread that builds it, and on the
        # event loop's default executor (which every batch also runs on)
        # mutations would spread over up to min(32, CPUs + 4) threads,
        # each arena keeping old generations resident.
        self._mutator = ThreadPoolExecutor(1, thread_name_prefix="repro-mutate")

    # ------------------------------------------------------------------
    @property
    def engine(self) -> SPGEngine:
        return self._engine

    @property
    def config(self) -> HTTPConfig:
        return self._config

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def coalescer(self) -> QueryCoalescer:
        return self._coalescer

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (available after :meth:`start`)."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._config.host, port=self._config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def shutdown(self, drain_timeout: float) -> bool:
        """Gracefully drain and stop; returns whether the drain completed.

        New requests are answered 503 while every already-admitted query
        finishes (bounded by ``drain_timeout`` seconds); then the coalescer
        answers what is still queued and the listener closes.  No admitted
        in-flight query is dropped by a completed drain.
        """
        self._admission.begin_drain()
        drained = await self._admission.wait_drained(drain_timeout)
        await self._coalescer.aclose()
        self._mutator.shutdown(wait=False)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        return drained

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HTTPError as exc:
                    _write_response(
                        writer,
                        exc.status,
                        _json_body({"error": exc.detail}),
                        keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                started = time.perf_counter()
                try:
                    status = await self._dispatch(request, writer, keep_alive)
                except HTTPError as exc:
                    status = exc.status
                    _write_response(
                        writer,
                        exc.status,
                        _json_body({"error": exc.detail}),
                        keep_alive=keep_alive,
                    )
                except _StreamAborted as exc:
                    _LOG.error("%s %s failed", request.method, request.path, exc_info=exc.__cause__)
                    self._record_request_span(request, 500, started)
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    raise
                except Exception as exc:  # noqa: BLE001 - answer, never drop
                    _LOG.error("%s %s failed", request.method, request.path, exc_info=exc)
                    status, keep_alive = 500, False
                    _write_response(
                        writer,
                        500,
                        _json_body({"error": f"{type(exc).__name__}: {exc}"}),
                        keep_alive=False,
                    )
                self._record_request_span(request, status, started)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing sensible to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    def _record_request_span(self, request: Request, status: int, started: float) -> None:
        tracer = self._engine.tracer
        if tracer is not None:
            tracer.record(
                "http.request",
                started,
                time.perf_counter() - started,
                method=request.method,
                path=request.path,
                status=status,
                tenant=self._tenant(request),
            )

    def _tenant(self, request: Request) -> str:
        return request.headers.get(
            self._config.tenant_header.lower(), self._config.default_tenant
        )

    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> int:
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                raise HTTPError(405, f"{path} only supports GET")
            return self._handle_healthz(writer, keep_alive)
        if path == "/metrics":
            if request.method != "GET":
                raise HTTPError(405, f"{path} only supports GET")
            body = self._engine.stats.to_prometheus().encode("utf-8")
            _write_response(
                writer,
                200,
                body,
                content_type="text/plain; version=0.0.4; charset=utf-8",
                keep_alive=keep_alive,
            )
            return 200
        if path == "/query":
            if request.method != "POST":
                raise HTTPError(405, f"{path} only supports POST")
            return await self._handle_query(request, writer, keep_alive)
        if path == "/batch":
            if request.method != "POST":
                raise HTTPError(405, f"{path} only supports POST")
            return await self._handle_batch(request, writer, keep_alive)
        if path == "/mutate":
            if request.method != "POST":
                raise HTTPError(405, f"{path} only supports POST")
            return await self._handle_mutate(request, writer, keep_alive)
        raise HTTPError(404, f"unknown path {path!r}")

    def _handle_healthz(self, writer: asyncio.StreamWriter, keep_alive: bool) -> int:
        if self._admission.draining:
            body = _json_body({"status": "draining"})
            _write_response(
                writer, 503, body, keep_alive=False, extra_headers=(("Retry-After", "1"),)
            )
            return 503
        body = _json_body(
            {"status": "ok", "queue_depth": self._admission.queue_depth}
        )
        _write_response(writer, 200, body, keep_alive=keep_alive)
        return 200

    def _rejection(
        self,
        writer: asyncio.StreamWriter,
        decision: str,
        keep_alive: bool,
    ) -> int:
        if decision == DRAINING:
            status, reason = 503, "server is draining"
        elif decision == QUOTA:
            status, reason = 429, "tenant quota exhausted"
        else:  # SHED
            status, reason = 429, "admission queue is full"
        _write_response(
            writer,
            status,
            _json_body({"error": reason, "reason": decision}),
            keep_alive=keep_alive,
            extra_headers=(("Retry-After", "1"),),
        )
        return status

    def _relabel(self):
        return self._builder.vertex_label if self._builder is not None else None

    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> int:
        text = self._decode_body(request)
        if not text.strip().startswith("{"):
            raise HTTPError(400, "POST /query expects one JSON query object")
        try:
            raw = parse_query_line(text.strip())
        except QueryError as exc:
            raise HTTPError(400, str(exc)) from exc

        decision = self._admission.try_admit(self._tenant(request))
        if decision != ADMITTED:
            return self._rejection(writer, decision, keep_alive)
        try:
            translated, failed = translate_queries([raw], self._builder)
            if failed:
                outcome = QueryOutcome(
                    source=raw[0], target=raw[1], k=raw[2], error=failed[0][1]
                )
                record = outcome_record(outcome)
            else:
                outcome = await self._coalescer.submit(translated[0])
                record = outcome_record(outcome, relabel=self._relabel())
        finally:
            self._admission.release()
        _write_response(writer, 200, _json_body(record), keep_alive=keep_alive)
        return 200

    async def _handle_batch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> int:
        text = self._decode_body(request)
        try:
            raw_queries = read_queries(io.StringIO(text))
        except QueryError as exc:
            raise HTTPError(400, str(exc)) from exc
        if not raw_queries:
            _write_response(
                writer, 200, b"", content_type="application/x-ndjson", keep_alive=keep_alive
            )
            return 200

        cost = len(raw_queries)
        decision = self._admission.try_admit(self._tenant(request), cost)
        if decision != ADMITTED:
            return self._rejection(writer, decision, keep_alive)
        try:
            translated, failed = translate_queries(raw_queries, self._builder)
            failures = dict(failed)
            relabel = self._relabel()
            _write_head(
                writer,
                200,
                (
                    ("Content-Type", "application/x-ndjson"),
                    ("Transfer-Encoding", "chunked"),
                    ("Connection", "keep-alive" if keep_alive else "close"),
                ),
            )
            stream = self._engine.astream(translated)
            try:
                for index, (raw_source, raw_target, k) in enumerate(raw_queries):
                    if index in failures:
                        outcome = QueryOutcome(
                            source=raw_source,
                            target=raw_target,
                            k=k,
                            error=failures[index],
                        )
                        record = outcome_record(outcome)
                    else:
                        outcome = await stream.__anext__()
                        record = outcome_record(outcome, relabel=relabel)
                    self._write_chunk(writer, _json_body(record))
                    await writer.drain()
            except (ConnectionError, asyncio.IncompleteReadError):
                raise
            except Exception as exc:
                raise _StreamAborted() from exc
            finally:
                await stream.aclose()
            writer.write(b"0\r\n\r\n")
        finally:
            self._admission.release(cost)
        return 200

    def _translate_edges(self, entries: object, key: str) -> list:
        """Validate one ``insert``/``delete`` list; endpoints translate as in ``/query``."""
        if not isinstance(entries, list):
            raise HTTPError(400, f"{key!r} must be a JSON array of [u, v] pairs")
        edges = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise HTTPError(400, f"{key} entry {entry!r} is not a [u, v] pair")
            try:
                edges.append(
                    (coerce_vertex_id(entry[0], self._builder), coerce_vertex_id(entry[1], self._builder))
                )
            except ReproError as exc:
                raise HTTPError(400, str(exc)) from exc
        return edges

    async def _handle_mutate(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> int:
        text = self._decode_body(request)
        try:
            payload = json.loads(text) if text.strip() else {}
        except json.JSONDecodeError as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise HTTPError(400, "POST /mutate expects a JSON object")
        unknown = set(payload) - {"insert", "delete"}
        if unknown:
            raise HTTPError(
                400,
                f"unknown mutate keys {sorted(unknown)}; "
                f"expected 'insert' and/or 'delete'",
            )
        inserts = self._translate_edges(payload.get("insert", []), "insert")
        deletes = self._translate_edges(payload.get("delete", []), "delete")
        try:
            delta = GraphDelta(inserts=inserts, deletes=deletes)
        except GraphError as exc:
            raise HTTPError(400, str(exc)) from exc

        # Mutations take one admission slot: a drain therefore waits for
        # in-flight mutations exactly like in-flight queries (and answers
        # new ones 503), and overload sheds them with 429 before they can
        # contend with query traffic.
        decision = self._admission.try_admit(self._tenant(request))
        if decision != ADMITTED:
            return self._rejection(writer, decision, keep_alive)
        try:
            # The union-graph BFS + re-key runs off the event loop so
            # concurrent connections keep being served during a mutation.
            loop = asyncio.get_running_loop()
            try:
                report = await loop.run_in_executor(
                    self._mutator, self._engine.apply_delta, delta
                )
            except EdgeError as exc:
                raise HTTPError(400, str(exc)) from exc
        finally:
            self._admission.release()
        _write_response(writer, 200, _json_body(report.to_dict()), keep_alive=keep_alive)
        return 200

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")

    def _decode_body(self, request: Request) -> str:
        try:
            return request.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HTTPError(400, "request body is not valid UTF-8") from exc

    def __repr__(self) -> str:
        bound = self._address if self._address is not None else "unbound"
        return f"HTTPFrontend(address={bound}, admission={self._admission!r})"
