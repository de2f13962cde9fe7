"""The asyncio HTTP front end for :class:`~repro.service.engine.SPGEngine`.

Layers, bottom to top:

* :mod:`~repro.service.http.config` — :class:`HTTPConfig`, every knob as
  one frozen dataclass;
* :mod:`~repro.service.http.admission` — bounded queue, per-tenant token
  buckets, graceful drain;
* :mod:`~repro.service.http.coalescer` — answers cache hits on the event
  loop and folds the other single queries into planner batches by group
  commit;
* :mod:`~repro.service.http.server` — :class:`HTTPFrontend`, the
  hand-rolled HTTP/1.1 server itself (``POST /query``, ``POST /batch``,
  ``GET /metrics``, ``GET /healthz``);
* :mod:`~repro.service.http.client` — the minimal asyncio client the load
  generator, the bench trajectory and the tests share.

``python -m repro.service.http`` serves a graph from the command line with
the same graph/engine flags as the offline ``python -m repro.service``.
"""

from repro.service.http.admission import (
    ADMITTED,
    DRAINING,
    QUOTA,
    SHED,
    AdmissionController,
    TokenBucket,
)
from repro.service.http.client import HTTPConnection, HTTPResponse, request
from repro.service.http.coalescer import QueryCoalescer
from repro.service.http.config import HTTPConfig
from repro.service.http.server import HTTPError, HTTPFrontend, Request

__all__ = [
    "ADMITTED",
    "SHED",
    "QUOTA",
    "DRAINING",
    "AdmissionController",
    "TokenBucket",
    "QueryCoalescer",
    "HTTPConfig",
    "HTTPError",
    "HTTPFrontend",
    "Request",
    "HTTPConnection",
    "HTTPResponse",
    "request",
]
