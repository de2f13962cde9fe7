"""Declarative tuning for the asyncio HTTP front end.

One frozen dataclass bundles the listen address and the admission
knobs, so CLI flags, tests and the load rig construct front ends from
data — the same pattern as :class:`repro.service.engine.EngineConfig` for
the engine itself.  The request framing limits and the coalescer's batch
bound are module constants of the server and the coalescer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["HTTPConfig"]


@dataclass(frozen=True)
class HTTPConfig:
    """The settings of one :class:`repro.service.http.server.HTTPFrontend`.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port (the bound
        address is readable from ``HTTPFrontend.address`` after start) —
        the load rig and the CI smoke test rely on this.
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
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_queue_depth: int = 256
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    tenant_header: str = "X-Tenant"
    default_tenant: str = "default"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(f"tenant_rate must be > 0, got {self.tenant_rate}")
        if self.tenant_burst is not None and self.tenant_burst <= 0:
            raise ValueError(f"tenant_burst must be > 0, got {self.tenant_burst}")

    def resolved_tenant_burst(self) -> Optional[float]:
        """The effective bucket capacity (``None`` when quotas are off)."""
        if self.tenant_rate is None:
            return None
        if self.tenant_burst is not None:
            return self.tenant_burst
        return max(self.tenant_rate, 1.0)
