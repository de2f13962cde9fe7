"""CI smokes for the HTTP front end, driven by an open-loop load generator.

:func:`run_open_loop` fires requests on a fixed arrival schedule
regardless of when earlier ones complete, so a saturated server shows up
as climbing latency and shed rate instead of the generator politely
slowing down with it (the closed-loop coordination-omission trap).
Throughput and latency measurement lives in perfbench's ``http-mixed``
workload; this module only checks contracts.

``python benchmarks/loadgen.py smoke`` is the CI leg: an ephemeral-port
server with a deliberately tiny admission bound, one overload burst, then
hard assertions — zero 5xx, nonzero 429 shedding, a parseable
``/metrics`` exposition with matching shed counters, and a clean drain.
Exit status 1 on any violation.

``python benchmarks/loadgen.py mutate-smoke`` is the dynamic-graph CI
leg: it boots ``python -m repro.service.http`` as a subprocess (or an
in-process frontend with ``--in-process``), fires open-loop query
traffic at it while a mutator coroutine posts ``POST /mutate`` deltas
concurrently, then asserts zero 5xx, zero transport errors, an advanced
``repro_graph_epoch`` gauge, and a clean SIGTERM drain.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.registry import load_dataset  # noqa: E402
from repro.service.engine import EngineConfig, SPGEngine  # noqa: E402
from repro.service.http import HTTPConfig, HTTPFrontend  # noqa: E402
from repro.service.http.client import request  # noqa: E402
from repro.telemetry.prometheus import parse_exposition  # noqa: E402

__all__ = [
    "run_open_loop",
    "smoke",
    "mutation_smoke",
    "main",
]


@dataclass
class _Sample:
    status: int  # 0 for transport failure
    latency_ms: float


def _make_queries(
    num_vertices: int, count: int, seed: int
) -> List[Tuple[int, int, int]]:
    rng = random.Random(seed)
    queries: List[Tuple[int, int, int]] = []
    while len(queries) < count:
        source, target = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if source != target:
            queries.append((source, target, rng.choice((3, 4, 5))))
    return queries


async def run_open_loop(
    address: Tuple[str, int],
    queries: Sequence[Tuple[int, int, int]],
    *,
    rate: float,
    duration: float,
) -> List[_Sample]:
    """Fire ``POST /query`` requests at ``rate``/s for ``duration`` seconds.

    Open loop: arrival times are fixed up front (``i / rate``); each
    request runs as its own task with its own connection, so slow
    responses never throttle the offered load.  Returns one sample per
    *fired* request (transport failures record status 0).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    total = max(1, int(rate * duration))
    samples: List[_Sample] = []

    async def one(arrival: float, query: Tuple[int, int, int]) -> None:
        delay = arrival - (time.perf_counter() - started)
        if delay > 0:
            await asyncio.sleep(delay)
        body = json.dumps(
            {"source": query[0], "target": query[1], "k": query[2]}
        ).encode("utf-8")
        fired = time.perf_counter()
        try:
            response = await request(address, None, "POST", "/query", body=body)
            status = response.status
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            status = 0
        samples.append(_Sample(status, (time.perf_counter() - fired) * 1000.0))

    started = time.perf_counter()
    tasks = [
        asyncio.create_task(one(index / rate, queries[index % len(queries)]))
        for index in range(total)
    ]
    await asyncio.gather(*tasks)
    return samples


@dataclass
class _Target:
    """One in-process server under test, owned by the smoke that booted it."""

    address: Tuple[str, int]
    frontend: Optional[HTTPFrontend] = None
    engine: Optional[SPGEngine] = None
    num_vertices: int = 0

    async def aclose(self) -> None:
        if self.frontend is not None:
            await self.frontend.shutdown(10.0)
        if self.engine is not None:
            self.engine.close()


async def _boot(
    topology: str,
    scale: float,
    *,
    seed: int,
    backend: Optional[str],
    max_queue_depth: int,
) -> _Target:
    graph = load_dataset(topology, scale=scale, seed=seed)
    engine = SPGEngine.from_config(
        graph, EngineConfig(executor_backend=backend, cache_size=0)
    )
    frontend = HTTPFrontend(
        engine,
        config=HTTPConfig(port=0, max_queue_depth=max_queue_depth),
    )
    address = await frontend.start()
    return _Target(
        address=address,
        frontend=frontend,
        engine=engine,
        num_vertices=graph.num_vertices,
    )


# ----------------------------------------------------------------------
# CI smoke: overload a deliberately tiny admission bound and assert the
# contract — shed, don't break.
# ----------------------------------------------------------------------
async def smoke(
    *,
    topology: str = "tw",
    scale: float = 0.05,
    burst: int = 48,
    max_queue_depth: int = 2,
    seed: int = 20230901,
) -> List[str]:
    """Run the overload smoke; returns a list of violations (empty = pass)."""
    violations: List[str] = []
    target = await _boot(
        topology,
        scale,
        seed=seed,
        backend="serial",
        max_queue_depth=max_queue_depth,
    )
    try:
        queries = _make_queries(target.num_vertices, 64, seed)

        async def fire(query: Tuple[int, int, int]) -> int:
            body = json.dumps(
                {"source": query[0], "target": query[1], "k": query[2]}
            ).encode("utf-8")
            response = await request(
                target.address, None, "POST", "/query", body=body
            )
            return response.status

        statuses = await asyncio.gather(
            *(fire(queries[index % len(queries)]) for index in range(burst))
        )
        ok = sum(1 for status in statuses if status == 200)
        shed = sum(1 for status in statuses if status == 429)
        errors_5xx = sum(1 for status in statuses if status >= 500)
        if errors_5xx:
            violations.append(f"{errors_5xx} 5xx responses under overload")
        if shed == 0:
            violations.append(
                f"no 429 shedding despite queue bound {max_queue_depth} "
                f"and burst {burst}"
            )
        if ok == 0:
            violations.append("no request succeeded under overload")

        stats = target.engine.stats
        if stats.http_queue_depth_peak > max_queue_depth:
            violations.append(
                f"queue depth peaked at {stats.http_queue_depth_peak} "
                f"> bound {max_queue_depth}"
            )
        if stats.http_requests_shed + stats.http_quota_rejections != shed:
            violations.append(
                f"shed counters ({stats.http_requests_shed} shed + "
                f"{stats.http_quota_rejections} quota) != observed 429s ({shed})"
            )

        metrics = await request(target.address, None, "GET", "/metrics")
        if metrics.status != 200:
            violations.append(f"GET /metrics returned {metrics.status}")
        else:
            try:
                samples = parse_exposition(metrics.text)
            except ValueError as exc:
                violations.append(f"/metrics exposition failed to parse: {exc}")
            else:
                names = {sample.name for sample in samples}
                for family in (
                    "repro_http_requests_admitted_total",
                    "repro_http_requests_shed_total",
                    "repro_http_queue_depth",
                ):
                    if family not in names:
                        violations.append(f"/metrics is missing {family}")

        drained = await target.frontend.shutdown(10.0)
        target.frontend = None  # aclose must not shut down twice
        if not drained:
            violations.append("drain did not complete within 10s")
        if target.engine.stats.http_queue_depth != 0:
            violations.append(
                f"queue depth {target.engine.stats.http_queue_depth} after drain"
            )
        print(
            f"smoke: {ok} ok, {shed} shed, {errors_5xx} 5xx over burst {burst} "
            f"(queue bound {max_queue_depth}); drained={drained}",
            file=sys.stderr,
        )
    finally:
        await target.aclose()
    return violations


# ----------------------------------------------------------------------
# CI smoke: mutate the served graph under live traffic and assert the
# contract — no 5xx, no torn connection, epoch advances, clean drain.
# ----------------------------------------------------------------------
async def _spawn_http_server(
    topology: str, scale: float, seed: int
) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    """Boot ``python -m repro.service.http`` and wait for its listen line."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.http",
            "--dataset",
            topology,
            "--scale",
            str(scale),
            "--seed",
            str(seed),
            "--port",
            "0",
            "--cache-size",
            "256",
        ],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src_dir)},
    )
    loop = asyncio.get_running_loop()
    line = await asyncio.wait_for(
        loop.run_in_executor(None, process.stderr.readline), 60.0
    )
    prefix = "serving on http://"
    if not line.startswith(prefix):
        process.terminate()
        raise RuntimeError(f"unexpected server banner: {line!r}")
    host, _, port = line[len(prefix):].strip().rpartition(":")
    return process, (host, int(port))


async def _mutator(
    address: Tuple[str, int],
    num_vertices: int,
    *,
    rounds: int,
    interval: float,
    seed: int,
) -> List[int]:
    """Post ``rounds`` deltas, alternating insert and delete of the same
    fresh edges so the graph keeps churning without drifting unboundedly."""
    rng = random.Random(seed)
    statuses: List[int] = []
    pending: List[List[int]] = []
    for round_index in range(rounds):
        if pending:
            payload = {"delete": pending}
            pending = []
        else:
            pending = []
            while len(pending) < 4:
                u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
                if u != v:
                    pending.append([u, v])
            payload = {"insert": pending}
        try:
            response = await request(
                address, None, "POST", "/mutate", body=json.dumps(payload).encode()
            )
            statuses.append(response.status)
        except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            statuses.append(0)
        await asyncio.sleep(interval)
    return statuses


async def mutation_smoke(
    *,
    topology: str = "tw",
    scale: float = 0.05,
    rate: float = 60.0,
    duration: float = 3.0,
    mutation_rounds: int = 12,
    seed: int = 20230901,
    in_process: bool = False,
) -> List[str]:
    """Run the mutation-under-traffic smoke; returns violations (empty = pass)."""
    violations: List[str] = []
    process: Optional[subprocess.Popen] = None
    target: Optional[_Target] = None
    graph = load_dataset(topology, scale=scale, seed=seed)
    try:
        if in_process:
            target = await _boot(
                topology,
                scale,
                seed=seed,
                backend=None,
                max_queue_depth=256,
            )
            address = target.address
        else:
            process, address = await _spawn_http_server(topology, scale, seed)

        queries = _make_queries(graph.num_vertices, 128, seed)
        interval = duration / max(1, mutation_rounds)
        samples, mutation_statuses = await asyncio.gather(
            run_open_loop(address, queries, rate=rate, duration=duration),
            _mutator(
                address,
                graph.num_vertices,
                rounds=mutation_rounds,
                interval=interval,
                seed=seed + 1,
            ),
        )

        errors_5xx = sum(1 for s in samples if s.status >= 500)
        transport = sum(1 for s in samples if s.status == 0)
        ok = sum(1 for s in samples if s.status == 200)
        mutations_ok = sum(1 for status in mutation_statuses if status == 200)
        mutations_5xx = sum(1 for status in mutation_statuses if status >= 500)
        if errors_5xx:
            violations.append(f"{errors_5xx} query 5xx responses during mutation")
        if mutations_5xx:
            violations.append(f"{mutations_5xx} mutate 5xx responses")
        if transport:
            violations.append(f"{transport} torn connections during mutation")
        if ok == 0:
            violations.append("no query succeeded under mutation traffic")
        if mutations_ok == 0:
            violations.append("no mutation was accepted")

        metrics = await request(address, None, "GET", "/metrics")
        samples_by_name = {s.name: s.value for s in parse_exposition(metrics.text)}
        epoch = samples_by_name.get("repro_graph_epoch", 0.0)
        applied = samples_by_name.get("repro_deltas_applied_total", 0.0)
        if applied < mutations_ok:
            violations.append(
                f"repro_deltas_applied_total {applied:g} < accepted {mutations_ok}"
            )
        if epoch <= 0:
            violations.append(f"repro_graph_epoch never advanced ({epoch:g})")

        if process is not None:
            process.send_signal(signal.SIGTERM)
            loop = asyncio.get_running_loop()
            try:
                returncode = await asyncio.wait_for(
                    loop.run_in_executor(None, process.wait), 30.0
                )
            except asyncio.TimeoutError:
                process.kill()
                violations.append("server did not drain within 30s of SIGTERM")
            else:
                if returncode != 0:
                    violations.append(f"server exited {returncode} on SIGTERM drain")
            process = None
        else:
            drained = await target.frontend.shutdown(10.0)
            target.frontend = None
            if not drained:
                violations.append("in-process drain did not complete within 10s")

        print(
            f"mutate-smoke: {ok} queries ok, {mutations_ok}/{len(mutation_statuses)} "
            f"mutations ok, epoch {epoch:g}, {errors_5xx} 5xx, "
            f"{transport} transport errors",
            file=sys.stderr,
        )
    finally:
        if process is not None:
            process.kill()
            process.wait()
        if target is not None:
            await target.aclose()
    return violations


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/loadgen.py",
        description="CI smokes for the SPG HTTP front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    smoke_parser = sub.add_parser("smoke", help="CI overload smoke (exit 1 on violation)")
    smoke_parser.add_argument("--topology", default="tw")
    smoke_parser.add_argument("--scale", type=float, default=0.05)
    smoke_parser.add_argument("--burst", type=int, default=48)
    smoke_parser.add_argument("--max-queue-depth", type=int, default=2)
    smoke_parser.add_argument("--seed", type=int, default=20230901)

    mutate_parser = sub.add_parser(
        "mutate-smoke",
        help="CI mutation-under-traffic smoke (exit 1 on violation)",
    )
    mutate_parser.add_argument("--topology", default="tw")
    mutate_parser.add_argument("--scale", type=float, default=0.05)
    mutate_parser.add_argument("--rate", type=float, default=60.0)
    mutate_parser.add_argument("--duration", type=float, default=3.0)
    mutate_parser.add_argument("--mutation-rounds", type=int, default=12)
    mutate_parser.add_argument("--seed", type=int, default=20230901)
    mutate_parser.add_argument(
        "--in-process",
        action="store_true",
        help="boot the frontend in-process instead of python -m repro.service.http",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "mutate-smoke":
        violations = asyncio.run(
            mutation_smoke(
                topology=args.topology,
                scale=args.scale,
                rate=args.rate,
                duration=args.duration,
                mutation_rounds=args.mutation_rounds,
                seed=args.seed,
                in_process=args.in_process,
            )
        )
        for violation in violations:
            print(f"MUTATE-SMOKE VIOLATION: {violation}", file=sys.stderr)
        return 1 if violations else 0
    violations = asyncio.run(
        smoke(
            topology=args.topology,
            scale=args.scale,
            burst=args.burst,
            max_queue_depth=args.max_queue_depth,
            seed=args.seed,
        )
    )
    for violation in violations:
        print(f"SMOKE VIOLATION: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
