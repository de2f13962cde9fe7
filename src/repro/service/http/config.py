"""Declarative tuning for the asyncio HTTP front end.

One frozen dataclass bundles every knob the server, the admission layer
and the request coalescer expose, so CLI flags, tests and the load rig
construct front ends from data — the same pattern as
:class:`repro.service.engine.EngineConfig` for the engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HTTPConfig"]


@dataclass(frozen=True)
class HTTPConfig:
    """Every knob a :class:`repro.service.http.server.HTTPFrontend` exposes.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        address is readable from ``HTTPFrontend.address`` after start) —
        the load rig and the CI smoke test rely on this.
    coalesce_max_batch:
        The most single ``POST /query`` requests one coalescer batch
        folds into a ``run_batch_async`` call.  There is no window: a
        query that finds no batch in flight is dispatched at once, and
        queries that queue behind a running batch form the next ones, so
        shared-target planning and in-batch deduplication apply across
        independent HTTP clients exactly when load makes them queue.
    max_queue_depth:
        Bound on admitted-but-unfinished queries.  A request that would
        push the depth past this is shed with 429 instead of joining an
        unbounded fan-in; batches count one unit per query.
    tenant_rate:
        Per-tenant sustained admission rate in queries/second, enforced by
        a token bucket keyed on the ``tenant_header`` value (missing
        header → ``default_tenant``).  ``None`` disables quotas.
    tenant_burst:
        Token-bucket capacity (burst size) per tenant.  ``None`` defaults
        to ``max(tenant_rate, 1)`` — one second of sustained rate.
    stream_batch_size:
        Chunk size ``POST /batch`` feeds to :meth:`SPGEngine.astream`.
    drain_timeout:
        Seconds :meth:`HTTPFrontend.shutdown` waits for in-flight queries
        before giving up (the listener keeps answering 503 while
        draining).
    max_body_bytes, max_header_bytes:
        Request framing limits; exceeding them is a 413 / 431.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    coalesce_max_batch: int = 64
    max_queue_depth: int = 256
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    tenant_header: str = "X-Tenant"
    default_tenant: str = "default"
    stream_batch_size: int = 64
    drain_timeout: float = 30.0
    max_body_bytes: int = 8 * 1024 * 1024
    max_header_bytes: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.coalesce_max_batch < 1:
            raise ValueError(
                f"coalesce_max_batch must be >= 1, got {self.coalesce_max_batch}"
            )
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(f"tenant_rate must be > 0, got {self.tenant_rate}")
        if self.tenant_burst is not None and self.tenant_burst <= 0:
            raise ValueError(f"tenant_burst must be > 0, got {self.tenant_burst}")
        if self.stream_batch_size < 1:
            raise ValueError(
                f"stream_batch_size must be >= 1, got {self.stream_batch_size}"
            )
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")

    def resolved_tenant_burst(self) -> Optional[float]:
        """The effective bucket capacity (``None`` when quotas are off)."""
        if self.tenant_rate is None:
            return None
        if self.tenant_burst is not None:
            return self.tenant_burst
        return max(self.tenant_rate, 1.0)
