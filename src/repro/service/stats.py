"""Engine observability: thread-safe counters, quantiles and exposition.

:class:`EngineStats` is the per-engine metrics object surfaced by
:meth:`repro.service.SPGEngine.stats`.  Latencies are kept in a bounded
ring buffer (:class:`LatencyWindow`) so a long-lived engine reports
quantiles over *recent* traffic with O(1) memory; alongside the ring each
window maintains cumulative histogram buckets (Prometheus semantics: the
bucket counters and the sum are monotonic over the window's lifetime, they
do *not* forget overwritten samples).

Beyond the overall query-latency window, :class:`EngineStats` keeps one
window per EVE phase (:data:`repro.core.result.PHASE_NAMES`) fed from the
:class:`~repro.core.result.PhaseStats` of every computed (cache-miss)
query — results carry their phase breakdown across process boundaries, so
the per-phase histograms are identical no matter which executor backend
ran the query.

Each stored counter and gauge is one row of :data:`METRICS`, from which
:meth:`EngineStats.snapshot`, :meth:`EngineStats.to_prometheus` and
:meth:`EngineStats.reset` are generated.

:meth:`EngineStats.to_prometheus` renders everything as text-format 0.0.4
exposition (see :mod:`repro.telemetry.prometheus`);
:meth:`EngineStats.merge_counters` folds in the counter deltas that
process-pool workers ship back inside task results.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.result import PHASE_NAMES
from repro.telemetry import render_counter, render_gauge, render_histogram

__all__ = ["DEFAULT_LATENCY_BUCKETS", "METRICS", "LatencyWindow", "EngineStats"]

#: Default histogram bucket upper bounds, in seconds.  Sub-millisecond
#: resolution at the low end (cache hits, tiny queries) through tens of
#: seconds (large-k verification) — 14 buckets, log-ish spacing.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    10.0,
)


class LatencyWindow:
    """Bounded reservoir of recent latency samples plus cumulative buckets.

    Once ``capacity`` samples have been recorded, the oldest sample is
    overwritten (ring buffer), so quantiles always describe the last
    ``capacity`` observations.  The histogram side is *cumulative*: bucket
    counts and the running sum cover every sample ever recorded (they are
    Prometheus counters and never decrease), so they survive ring
    overwrites and :attr:`recorded` equals the ``+Inf`` bucket.
    """

    __slots__ = (
        "_capacity",
        "_samples",
        "_position",
        "_recorded",
        "_bounds",
        "_bucket_counts",
        "_sum",
        "_sorted",
    )

    def __init__(
        self,
        capacity: int = 4096,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("at least one histogram bucket bound is required")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds}")
        self._capacity = capacity
        self._samples: List[float] = []
        self._position = 0
        self._recorded = 0
        self._bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        #: Cached sorted view of ``_samples``; ``None`` marks it stale.
        self._sorted: Optional[List[float]] = None

    def record(self, seconds: float) -> None:
        """Add one latency sample."""
        if len(self._samples) < self._capacity:
            self._samples.append(seconds)
        else:
            self._samples[self._position] = seconds
            self._position = (self._position + 1) % self._capacity
        self._recorded += 1
        self._sorted = None
        self._sum += seconds
        for index, bound in enumerate(self._bounds):
            if seconds <= bound:
                self._bucket_counts[index] += 1
                break

    def quantile(self, q: float) -> float:
        """Return the ``q``-quantile (nearest-rank) of the retained samples.

        Returns 0.0 when no sample has been recorded yet.  The sorted view
        is cached between calls and invalidated on :meth:`record`, so
        scraping several quantiles from an idle window sorts once.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def histogram(self) -> Tuple[Tuple[float, ...], List[int], float, int]:
        """Return ``(bounds, cumulative_counts, sum, count)``.

        The shape :func:`repro.telemetry.render_histogram` takes for one
        series: ``cumulative_counts[i]`` is the number of samples ``<=
        bounds[i]`` over the window's whole lifetime, ``count`` the total
        recorded (the implicit ``+Inf`` bucket).
        """
        cumulative: List[int] = []
        running = 0
        for count in self._bucket_counts:
            running += count
            cumulative.append(running)
        return self._bounds, cumulative, self._sum, self._recorded

    def reset(self) -> None:
        """Drop every sample, bucket count and the running sum."""
        self._samples = []
        self._position = 0
        self._recorded = 0
        self._bucket_counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._sorted = None

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples (the ring size)."""
        return self._capacity

    @property
    def bucket_bounds(self) -> Tuple[float, ...]:
        """The explicit histogram bucket upper bounds, ascending."""
        return self._bounds

    @property
    def sum_seconds(self) -> float:
        """Cumulative sum of every sample ever recorded."""
        return self._sum

    @property
    def recorded(self) -> int:
        """Total number of samples ever recorded (including overwritten ones)."""
        return self._recorded

    def __len__(self) -> int:
        return len(self._samples)


#: The stored metrics, one ``(attribute, kind, help)`` row each, in
#: exposition order.  A row is all there is to a metric: it is an
#: attribute of :class:`EngineStats` starting at 0, a key of
#: :meth:`EngineStats.snapshot`, the Prometheus family
#: ``repro_<attribute>`` (``repro_<attribute>_total`` for a counter) and
#: is zeroed by :meth:`EngineStats.reset`.  Only the ``record_*`` methods
#: name attributes, because each event updates its own.  The names
#: perfbench scrapes from ``/metrics`` come from these rows, so renaming
#: one is a breaking change.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("queries_served", "counter", "Queries served."),
    ("batches_served", "counter", "Batches served."),
    ("cache_hits", "counter", "Queries answered from cache."),
    ("cache_misses", "counter", "Queries computed by EVE."),
    ("errors", "counter", "Queries that raised."),
    ("shared_backward_reuses", "counter", "Queries that reused a shared (t, k) backward pass."),
    ("scratch_allocations", "counter", "Query scratch bundles allocated."),
    ("scratch_reuses", "counter", "Query scratch bundles reused from the pool."),
    # HTTP front-end admission accounting (repro.service.http): one
    # decision per request.
    ("http_requests_admitted", "counter", "HTTP requests admitted past the bounded queue."),
    ("http_requests_shed", "counter", "HTTP requests shed with 429 (bounded queue full)."),
    ("http_quota_rejections", "counter", "HTTP requests rejected by a per-tenant quota (429)."),
    ("http_drain_rejections", "counter", "HTTP requests rejected during graceful drain (503)."),
    # Dynamic-graph mutation accounting (repro.graph.delta): one
    # record_delta per apply_delta.
    ("deltas_applied", "counter", "Graph deltas applied via apply_delta."),
    ("delta_edges_inserted", "counter", "Edges effectively inserted by applied deltas."),
    ("delta_edges_deleted", "counter", "Edges effectively deleted by applied deltas."),
    ("delta_compactions", "counter", "Delta overlays folded into a fresh base graph."),
    ("cache_entries_invalidated", "counter", "Result-cache entries killed by scoped invalidation."),
    ("cache_entries_retained", "counter", "Result-cache entries retained across graph deltas."),
    ("http_queue_depth", "gauge", "Admitted HTTP queries currently in flight."),
    ("http_queue_depth_peak", "gauge", "Peak in-flight HTTP queries since start."),
    ("graph_epoch", "gauge", "Current graph epoch (bumped by every applied delta)."),
)

#: Counter attributes a worker-side delta may add to (see
#: :meth:`EngineStats.merge_counters`): the scratch-pool counters, which
#: are the only stats recorded *inside* process-pool workers rather than
#: from results in the parent.
_MERGEABLE_COUNTERS = frozenset({"scratch_allocations", "scratch_reuses"})


class EngineStats:
    """Thread-safe counters, latency quantiles and histograms for one engine.

    Every served query records exactly one observation; cache hits and
    in-batch duplicates count into ``cache_hits`` and computed queries into
    ``cache_misses``, so ``hit_rate`` is the fraction of queries answered
    without running EVE.  These are the engine's only hit and miss counts.
    Computed queries additionally record their per-phase durations into one
    :class:`LatencyWindow` per EVE phase, keyed by
    :data:`repro.core.result.PHASE_NAMES`.  Each row of :data:`METRICS` is
    a plain integer attribute.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyWindow()
        self._phase_latencies: Dict[str, LatencyWindow] = {
            phase: LatencyWindow() for phase in PHASE_NAMES
        }
        self.reset()

    # ------------------------------------------------------------------
    def record_query(
        self,
        latency_seconds: float,
        *,
        cached: bool,
        error: bool = False,
        reused_backward: bool = False,
        phases: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Record one served query.

        ``phases`` optionally carries the per-phase duration breakdown of a
        computed query (:meth:`repro.core.result.PhaseStats.by_phase`);
        every key must be a canonical phase name, or the call raises
        ``KeyError`` and records nothing.  Phase breakdowns travel inside
        results, so the engine records them here in the parent for every
        backend — including queries executed in pool workers.
        """
        timed = [(self._phase_latencies[phase], seconds) for phase, seconds in phases.items()] if phases else ()
        with self._lock:
            self.queries_served += 1
            if error:
                self.errors += 1
            if cached:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if reused_backward:
                self.shared_backward_reuses += 1
            self._latencies.record(latency_seconds)
            for window, seconds in timed:
                window.record(seconds)

    def record_batch(self) -> None:
        """Record one served batch."""
        with self._lock:
            self.batches_served += 1

    def record_scratch(self, *, reused: bool) -> None:
        """Record one scratch-bundle checkout (allocation vs pool reuse).

        Every executed query checks out exactly one
        :class:`repro.core.eve.QueryScratch`, which carries the distance,
        propagation and verification buffers, so this one pair covers every
        phase.  On a workload where every query actually runs (no malformed
        batch entries, no duplicates of a failed primary — those are
        recorded as cache misses without executing), ``scratch_allocations
        + scratch_reuses == cache_misses``, and ``scratch_allocations``
        stays bounded by the peak number of concurrent workers — the "zero
        per-query allocation" property the benchmarks assert.  The
        ``serial`` backend counts here directly; the ``process`` backend
        counts in each worker's local pool and folds the deltas in via
        :meth:`merge_counters`, so both invariants hold on both backends.
        """
        with self._lock:
            if reused:
                self.scratch_reuses += 1
            else:
                self.scratch_allocations += 1

    def record_admission(self, decision: str) -> None:
        """Record one HTTP front-end admission decision.

        ``decision`` is one of the :mod:`repro.service.http.admission`
        outcomes: ``"admitted"``, ``"shed"`` (bounded queue full → 429),
        ``"quota"`` (per-tenant token bucket empty → 429) or ``"draining"``
        (graceful shutdown in progress → 503).  Unknown decisions raise so
        a typo cannot silently drop a shed counter — under overload those
        counters are the observability.
        """
        with self._lock:
            if decision == "admitted":
                self.http_requests_admitted += 1
            elif decision == "shed":
                self.http_requests_shed += 1
            elif decision == "quota":
                self.http_quota_rejections += 1
            elif decision == "draining":
                self.http_drain_rejections += 1
            else:
                raise ValueError(
                    f"unknown admission decision {decision!r}; expected "
                    f"'admitted', 'shed', 'quota' or 'draining'"
                )

    def record_delta(
        self,
        *,
        inserted: int,
        deleted: int,
        invalidated: int,
        retained: int,
        compacted: bool,
        epoch: int,
    ) -> None:
        """Record one applied graph delta.

        ``inserted``/``deleted`` are the *effective* edge counts (no-op
        edges excluded), ``invalidated``/``retained`` the scoped cache
        outcome — together they make the scoped-invalidation claim
        auditable from ``/metrics``: under localized mutation,
        ``cache_entries_retained`` should dominate
        ``cache_entries_invalidated``.  ``epoch`` updates the graph-epoch
        gauge (monotonic while the engine lives).
        """
        with self._lock:
            self.deltas_applied += 1
            self.delta_edges_inserted += inserted
            self.delta_edges_deleted += deleted
            self.cache_entries_invalidated += invalidated
            self.cache_entries_retained += retained
            if compacted:
                self.delta_compactions += 1
            self.graph_epoch = epoch

    def set_queue_depth(self, depth: int) -> None:
        """Update the HTTP admission queue-depth gauge (and its peak)."""
        if depth < 0:
            raise ValueError(f"queue depth must be >= 0, got {depth}")
        with self._lock:
            self.http_queue_depth = depth
            if depth > self.http_queue_depth_peak:
                self.http_queue_depth_peak = depth

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold a worker-side counter delta into these stats.

        ``counters`` maps attribute names (a subset of the scratch counters)
        to non-negative increments — the deltas a process-pool worker
        measured while executing one task group.
        Unknown keys raise: a typo silently dropping a counter would
        re-create exactly the blind spot this path exists to close.
        """
        for name, value in counters.items():
            if name not in _MERGEABLE_COUNTERS:
                raise ValueError(
                    f"cannot merge unknown counter {name!r}; "
                    f"expected one of {sorted(_MERGEABLE_COUNTERS)}"
                )
            if value < 0:
                raise ValueError(f"counter delta {name!r} must be >= 0, got {value}")
        with self._lock:
            for name, value in counters.items():
                setattr(self, name, getattr(self, name) + value)

    # ------------------------------------------------------------------
    def _hit_rate(self) -> float:
        """Fraction of queries answered from the cache; the caller holds the lock."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the cache (0.0 with no traffic)."""
        with self._lock:
            return self._hit_rate()

    def percentile_seconds(self, q: float) -> float:
        """Latency quantile over the recent window, in seconds."""
        with self._lock:
            return self._latencies.quantile(q)

    def phase_percentile_seconds(self, phase: str, q: float) -> float:
        """Per-phase latency quantile over the recent window, in seconds."""
        with self._lock:
            return self._phase_latencies[phase].quantile(q)

    def phase_recorded(self, phase: str) -> int:
        """Number of per-phase samples recorded for ``phase``."""
        with self._lock:
            return self._phase_latencies[phase].recorded

    def snapshot(self) -> Dict[str, object]:
        """Return a point-in-time dictionary view (JSON friendly)."""
        with self._lock:
            snap: Dict[str, object] = {attribute: getattr(self, attribute) for attribute, _, _ in METRICS}
            snap["hit_rate"] = self._hit_rate()
            snap["p50_ms"] = self._latencies.quantile(0.50) * 1000.0
            snap["p95_ms"] = self._latencies.quantile(0.95) * 1000.0
            snap["p99_ms"] = self._latencies.quantile(0.99) * 1000.0
            phases: Dict[str, Dict[str, float]] = {}
            for phase, window in self._phase_latencies.items():
                if window.recorded:
                    phases[phase] = {
                        "samples": window.recorded,
                        "total_seconds": window.sum_seconds,
                        "p50_ms": window.quantile(0.50) * 1000.0,
                        "p95_ms": window.quantile(0.95) * 1000.0,
                    }
            snap["phases"] = phases
            return snap

    def to_prometheus(self) -> str:
        """Render every metric as Prometheus text-format 0.0.4 exposition.

        The counters of :data:`METRICS` come first, with the conventional
        ``_total`` suffix, then the gauges, led by the derived cache hit
        ratio.  The overall and per-phase latency distributions are
        histograms (the per-phase one is a single family labelled
        ``phase="..."``).  The output parses under
        :func:`repro.telemetry.parse_exposition` — a test holds it to the
        grammar — and ends with a trailing newline as scrapers expect.
        """
        with self._lock:
            lines: List[str] = []
            for attribute, kind, help_text in METRICS:
                if kind == "counter":
                    lines += render_counter(f"repro_{attribute}_total", help_text, getattr(self, attribute))
            lines += render_gauge(
                "repro_cache_hit_ratio",
                "Fraction of queries answered from cache.",
                self._hit_rate(),
            )
            for attribute, kind, help_text in METRICS:
                if kind == "gauge":
                    lines += render_gauge(f"repro_{attribute}", help_text, getattr(self, attribute))
            lines += render_histogram(
                "repro_query_latency_seconds",
                "End-to-end per-query latency.",
                [(None, *self._latencies.histogram())],
            )
            lines += render_histogram(
                "repro_phase_latency_seconds",
                "Per-EVE-phase latency of computed queries.",
                [
                    ({"phase": phase}, *self._phase_latencies[phase].histogram())
                    for phase in PHASE_NAMES
                ],
            )
            return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every metric and drop the latency windows."""
        with self._lock:
            self._latencies.reset()
            for window in self._phase_latencies.values():
                window.reset()
            for attribute, _, _ in METRICS:
                setattr(self, attribute, 0)

    def __repr__(self) -> str:
        return (
            f"EngineStats(queries={self.queries_served}, "
            f"hits={self.cache_hits}, misses={self.cache_misses}, "
            f"errors={self.errors})"
        )
