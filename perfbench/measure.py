"""Measurement helpers shared by the workloads: quantiles, RSS, span folding."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one workload run measured.

    ``attempted``/``failed`` count operations (queries and writes) sent to
    the program; ``end_to_end`` and ``per_layer`` map metric names to
    values.  Per-layer metrics a workload does not reach are left out and
    reported as 0.  ``mismatches`` describes every answer that differed
    from its oracle.
    """

    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median_of(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class PhaseTotals:
    """Folds the per-query spans of ``EVE.query`` into per-phase totals.

    ``EVE.query(..., tracer=...)`` records ``phase.<name>`` spans carrying
    the work counters, then one ``query`` span.  Totals are sums over the
    computed queries; a query whose ``phase.distance`` span is not followed
    by a ``phase.propagation`` span exited early (dist(s, t) > k).
    """

    COUNTERS = (
        "explored_vertices",
        "reached",
        "entries",
        "labeled_edges",
        "undetermined_edges",
        "expansions",
        "edges_checked",
        "edges_confirmed",
        "answer_edges",
        "upper_bound_edges",
    )
    PHASES = ("distance", "propagation", "upper_bound", "ordering", "verification")

    def __init__(self) -> None:
        self.queries = 0
        self.early_exits = 0
        self.counts: Dict[str, int] = {name: 0 for name in self.COUNTERS}
        self.seconds: Dict[str, float] = {name: 0.0 for name in self.PHASES}

    def add(self, events: Iterable[object]) -> None:
        for event in events:
            name = event.name
            attrs = event.attributes
            if name == "query":
                self.queries += 1
                if "upper_bound_edges" not in attrs:
                    self.early_exits += 1
                else:
                    self.counts["answer_edges"] += attrs["answer_edges"]
                    self.counts["upper_bound_edges"] += attrs["upper_bound_edges"]
                continue
            if not name.startswith("phase."):
                continue
            phase = name[len("phase."):]
            self.seconds[phase] += event.duration
            if phase == "distance":
                self.counts["explored_vertices"] += attrs["explored_vertices"]
            elif phase == "propagation":
                self.counts["reached"] += attrs["forward_reached"] + attrs["backward_reached"]
                self.counts["entries"] += attrs["forward_entries"] + attrs["backward_entries"]
            elif phase == "upper_bound":
                self.counts["labeled_edges"] += attrs["labeled_edges"]
                self.counts["undetermined_edges"] += attrs["undetermined_edges"]
            elif phase == "verification":
                self.counts["expansions"] += attrs["expansions"]
                self.counts["edges_checked"] += attrs["edges_checked"]
                self.counts["edges_confirmed"] += attrs["edges_confirmed"]

    def metrics(self) -> Dict[str, float]:
        """The EVE-phase per-layer metrics (ms are means per computed query)."""
        per_query = 1000.0 / self.queries if self.queries else 0.0
        counts = self.counts
        return {
            "distances.ms": self.seconds["distance"] * per_query,
            "distances.explored_vertices": counts["explored_vertices"],
            "distances.empty_ratio": ratio(self.early_exits, self.queries),
            "essential.ms": self.seconds["propagation"] * per_query,
            "essential.reached": counts["reached"],
            "essential.entries": counts["entries"],
            "labeling.ms": self.seconds["upper_bound"] * per_query,
            "labeling.labeled_edges": counts["labeled_edges"],
            "labeling.undetermined_edges": counts["undetermined_edges"],
            "labeling.tightness": ratio(counts["answer_edges"], counts["upper_bound_edges"]),
            "verification.ordering_ms": self.seconds["ordering"] * per_query,
            "verification.ms": self.seconds["verification"] * per_query,
            "verification.expansions": counts["expansions"],
            "verification.edges_checked": counts["edges_checked"],
            "verification.confirm_ratio": ratio(counts["edges_confirmed"], counts["edges_checked"]),
        }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def latency_summary(seconds: List[float]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """End-to-end p50 and per-layer p95/p99, in ms, of latencies in seconds.

    The tail stays out of the end-to-end set: on ``http-mixed`` it is set
    by the queries that wait behind a ``/mutate``, so it tracks the write
    stall and moved by more than any allowed bound from run to run.
    """
    end_to_end = {"p50_ms": quantile(seconds, 0.50) * 1000.0}
    tail = {
        "latency.p95_ms": quantile(seconds, 0.95) * 1000.0,
        "latency.p99_ms": quantile(seconds, 0.99) * 1000.0,
    }
    return end_to_end, tail
