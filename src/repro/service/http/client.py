"""A minimal asyncio HTTP/1.1 client for the front end's own tooling.

The load generator (:mod:`benchmarks.loadgen`) and the test suite both
need to talk to
:class:`~repro.service.http.server.HTTPFrontend` without adding a client
dependency, so this module hand-rolls the one slice of HTTP/1.1 the front
end speaks: ``Content-Length`` and chunked response bodies over a
keep-alive connection.

Two entry points:

* :class:`HTTPConnection` — one persistent keep-alive connection; issue
  sequential :meth:`~HTTPConnection.request` calls on it (a load worker
  owns one connection, like one user).
* :func:`request` — one-shot convenience: connect, request, close.

This is tooling, not a general client: no TLS, no redirects, no
compression, no retry — exactly what loopback measurement needs and
nothing that could distort it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["HTTPResponse", "HTTPConnection", "request"]


@dataclass
class HTTPResponse:
    """One parsed HTTP response."""

    status: int
    reason: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> object:
        """The body as one JSON document."""
        return json.loads(self.body)

    def json_lines(self) -> List[object]:
        """The body as JSONL (one document per non-empty line)."""
        return [json.loads(line) for line in self.text.splitlines() if line.strip()]


class HTTPConnection:
    """One keep-alive HTTP/1.1 connection to the front end.

    Requests must be issued sequentially (HTTP/1.1 has no multiplexing);
    concurrency comes from opening many connections, which is exactly how
    the load generator models independent users.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def request(
        self,
        method: str,
        path: str,
        *,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> HTTPResponse:
        """Issue one request and read the full response.

        Reconnects transparently if the server closed the previous
        keep-alive connection (e.g. after a ``Connection: close``
        response).
        """
        await self.connect()
        try:
            return await self._roundtrip(method, path, body, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            # Stale keep-alive connection: reconnect once and retry.
            await self.aclose()
            await self.connect()
            return await self._roundtrip(method, path, body, headers)

    async def _roundtrip(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]],
    ) -> HTTPResponse:
        assert self._reader is not None and self._writer is not None
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self._host}:{self._port}",
            f"Content-Length: {len(body)}",
        ]
        if headers:
            lines.extend(f"{name}: {value}" for name, value in headers.items())
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()
        response = await _read_response(self._reader)
        if response.headers.get("connection", "").lower() == "close":
            await self.aclose()
        return response

    async def aclose(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def __aenter__(self) -> "HTTPConnection":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


async def _read_response(reader: asyncio.StreamReader) -> HTTPResponse:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before responding")
    parts = status_line.decode("latin-1").strip().split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    reason = parts[2] if len(parts) == 3 else ""

    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("server closed the connection mid-headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = await _read_chunked(reader)
    else:
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
    return HTTPResponse(status=status, reason=reason, headers=headers, body=body)


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    chunks: List[bytes] = []
    while True:
        size_line = await reader.readline()
        if not size_line:
            raise ConnectionError("server closed the connection mid-chunk")
        size = int(size_line.strip().split(b";", 1)[0], 16)
        if size == 0:
            # Trailer section: read until the terminating blank line.
            while True:
                trailer = await reader.readline()
                if trailer in (b"\r\n", b"\n", b""):
                    break
            return b"".join(chunks)
        chunks.append(await reader.readexactly(size))
        await reader.readexactly(2)  # the CRLF after each chunk


async def request(
    host_or_address,
    port: Optional[int] = None,
    method: str = "GET",
    path: str = "/healthz",
    *,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
) -> HTTPResponse:
    """One-shot request: connect, issue, close.

    The first argument may be a host string (with ``port`` given
    separately) or an ``(host, port)`` tuple such as
    ``HTTPFrontend.address``.
    """
    if port is None:
        host, port = host_or_address
    else:
        host = host_or_address
    connection = HTTPConnection(host, port)
    try:
        return await connection.request(method, path, body=body, headers=headers)
    finally:
        await connection.aclose()
