"""repro.telemetry — phase-level query telemetry for the serving stack.

Two small, dependency-free layers:

* **tracing** (:mod:`repro.telemetry.tracer`) — a :class:`Tracer` records
  monotonic-clock spans (one event per EVE phase per cache miss, plus a
  summary event per query) into a bounded buffer and exports them as JSONL
  for offline analysis.  Tracing off is ``None``: the hot path pays
  exactly one ``is None`` check per phase —
  :meth:`repro.core.eve.EVE.query` takes ``tracer=None`` and skips every
  telemetry call.
* **Prometheus exposition** (:mod:`repro.telemetry.prometheus`) —
  text-format rendering helpers (counters, gauges, histograms with
  explicit buckets) used by
  :meth:`repro.service.stats.EngineStats.to_prometheus`, plus a strict
  text-format parser (:func:`parse_exposition`) that the tests use to hold
  every exposition to the Prometheus grammar.

Neither layer imports the service or core packages, so any module may
depend on telemetry without creating a cycle.
"""

from repro.telemetry.prometheus import (
    MetricSample,
    parse_exposition,
    render_counter,
    render_gauge,
    render_histogram,
)
from repro.telemetry.tracer import TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "MetricSample",
    "parse_exposition",
    "render_counter",
    "render_gauge",
    "render_histogram",
]
