"""``python -m repro.service.http`` — serve SPG queries over HTTP.

Loads a graph exactly like the offline ``python -m repro.service`` (a
Table 2 synthetic proxy or an edge-list file, same flags), then serves it
through :class:`~repro.service.http.server.HTTPFrontend` until SIGINT or
SIGTERM, at which point the server drains gracefully: new requests get
503 while admitted queries finish.  A ``/query`` the result cache can
answer is answered on the event loop; the rest are batched by group
commit, with no coalescing window.

Examples
--------
Serve the ``tw`` proxy on an ephemeral port with tenant quotas::

    python -m repro.service.http --dataset tw --scale 0.1 --port 0 \\
        --tenant-rate 100

Then query it::

    curl -s -X POST http://127.0.0.1:<port>/query \\
        -d '{"source": 0, "target": 5, "k": 4}'
    curl -s http://127.0.0.1:<port>/metrics

And mutate the served graph under live traffic::

    curl -s -X POST http://127.0.0.1:<port>/mutate \\
        -d '{"insert": [[0, 7]], "delete": [[3, 4]]}'
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro.service.engine import SPGEngine
from repro.service.http.config import HTTPConfig
from repro.service.http.server import HTTPFrontend
from repro.service.workload_io import (
    add_engine_arguments,
    engine_config_from_args,
    load_graph_from_args,
)
from repro.telemetry import Tracer

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.http",
        description="Serve <s, t, k> SPG queries over HTTP.",
    )
    add_engine_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 binds an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="admitted-but-unfinished query bound; excess requests get 429",
    )
    parser.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="QPS",
        help="per-tenant sustained admission rate (default: quotas off)",
    )
    parser.add_argument(
        "--tenant-burst",
        type=float,
        default=None,
        help="per-tenant token-bucket capacity (default: max(rate, 1))",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight queries",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record request- and phase-level spans into an engine tracer",
    )
    return parser


async def _serve(frontend: HTTPFrontend, drain_timeout: float) -> int:
    host, port = await frontend.start()
    print(f"serving on http://{host}:{port}", file=sys.stderr, flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass

    await stop.wait()
    print("draining...", file=sys.stderr, flush=True)
    drained = await frontend.shutdown(drain_timeout)
    if not drained:
        print(
            f"warning: drain timed out after {drain_timeout}s", file=sys.stderr
        )
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        graph, builder = load_graph_from_args(args)
    except (ReproError, OSError) as exc:
        print(f"error: could not load graph: {exc}", file=sys.stderr)
        return 2

    try:
        if args.drain_timeout < 0:
            raise ValueError(f"--drain-timeout must be >= 0, got {args.drain_timeout}")
        engine = SPGEngine.from_config(graph, engine_config_from_args(args))
        http_config = HTTPConfig(
            host=args.host,
            port=args.port,
            max_queue_depth=args.max_queue_depth,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        )
    except (ReproError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        engine.tracer = Tracer()

    frontend = HTTPFrontend(engine, builder=builder, config=http_config)
    try:
        with engine:
            return asyncio.run(_serve(frontend, args.drain_timeout))
    except KeyboardInterrupt:  # pragma: no cover - race with the signal handler
        return 0


if __name__ == "__main__":
    sys.exit(main())
