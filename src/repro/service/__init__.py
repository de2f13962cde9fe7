"""repro.service — a concurrent, caching batch query engine for SPG workloads.

The core library answers one ``<s, t, k>`` query at a time, cold.  Real
deployments (the paper's fraud-screening motivation) issue *batches* of
queries against one mostly-static graph, which is exactly the shape a
serving layer exploits.  This subsystem layers four things on top of
:class:`repro.core.eve.EVE` without changing any answer:

* a **result cache** (:class:`ResultCache`) — LRU keyed on
  ``(s, t, k, config, graph fingerprint)``, so repeated queries are free and
  a swapped graph can never serve stale entries;
* a **batch planner** (:func:`plan_batch`) — groups queries sharing
  ``(t, k)`` so the backward distance pass is computed once per group and
  reused via the hooks in :mod:`repro.core.distances`;
* **pluggable executor backends** (:mod:`repro.service.executor`) —
  ``serial`` (the default: inline on the calling thread, at most
  ``max_workers`` planned groups at once) and ``process`` (a warm
  :class:`~concurrent.futures.ProcessPoolExecutor` that runs CPU-bound EVE
  queries truly in parallel, its workers attached zero-copy to a
  shared-memory CSR segment when the platform supports it), both with
  deterministic result ordering and per-query error isolation, and both
  producing identical batch reports;
* a **scratch pool** (:class:`ScratchPool`, re-exported from
  :mod:`repro.core.eve`) — reusable :class:`~repro.core.eve.QueryScratch`
  bundles (the distance, propagation and verification buffers of one
  query), so cache misses allocate no per-query storage for any phase.
  Each engine keeps its own pool, recorded in one counter pair
  (``scratch_allocations`` / ``scratch_reuses``); each process worker
  keeps a pool of its own and ships its counter deltas home.

:class:`SPGEngine` ties them together.  It answers with :class:`SPGAnswer`
objects (the query, ``exact`` and the answer's sorted edge pairs, packed
into one immutable buffer) and keeps :class:`EngineStats`
(hit rate, latency quantiles and histograms — overall and per EVE phase —
queries served, scratch reuse), exposable as Prometheus text-format
exposition via :meth:`EngineStats.to_prometheus` (the CLI's
``--metrics-out``) and as phase-level trace spans via an attached
:class:`repro.telemetry.Tracer` (``--trace-out``); batches run
synchronously (:meth:`SPGEngine.run_batch`) or from an event loop
(:meth:`SPGEngine.run_batch_async`, and :meth:`SPGEngine.astream` for a
sync or async query stream, which run the same batch path on a helper
thread).  The subsystem also ships a command line
(``python -m repro.service``) that loads a dataset, reads JSON-lines
queries from a file or stdin, and emits JSON results; ``--strategy``
selects the Figure-11 distance-search ablation path and ``--backend`` the
executor backend for the whole served workload.
"""

from repro.core.eve import ScratchPool
from repro.service.cache import CacheKey, ResultCache, make_cache_key
from repro.service.engine import (
    BatchReport,
    DeltaReport,
    EngineConfig,
    GroupExecution,
    QueryOutcome,
    SPGAnswer,
    SPGEngine,
)
from repro.service.executor import (
    BACKEND_ENV_VAR,
    EXECUTOR_BACKENDS,
    Call,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    TaskError,
    create_backend,
    default_worker_count,
    resolve_backend_name,
)
from repro.service.planner import BatchPlan, PlannedQuery, QueryGroup, plan_batch
from repro.service.stats import EngineStats, LatencyWindow

__all__ = [
    "SPGEngine",
    "EngineConfig",
    "ScratchPool",
    "SPGAnswer",
    "QueryOutcome",
    "BatchReport",
    "DeltaReport",
    "GroupExecution",
    "ResultCache",
    "CacheKey",
    "make_cache_key",
    "BatchPlan",
    "QueryGroup",
    "PlannedQuery",
    "plan_batch",
    "TaskError",
    "Call",
    "default_worker_count",
    "EXECUTOR_BACKENDS",
    "BACKEND_ENV_VAR",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
    "resolve_backend_name",
    "EngineStats",
    "LatencyWindow",
]
