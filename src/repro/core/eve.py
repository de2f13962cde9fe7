"""The EVE query driver (Essential Vertices based Examination).

This module ties the three phases of the paper's algorithm together:

1. shortest-distance computation (:mod:`repro.core.distances`),
2. essential-vertex propagation (:mod:`repro.core.essential`) and edge
   labelling into the upper-bound graph (:mod:`repro.core.labeling`),
3. verification of undetermined edges (:mod:`repro.core.verification`).

Usage::

    from repro import DiGraph, build_spg

    graph = DiGraph.from_edge_list([(0, 1), (1, 2), (0, 2)])
    result = build_spg(graph, source=0, target=2, k=2)
    result.edges           # {(0, 1), (1, 2), (0, 2)}

Every query runs on a :class:`QueryScratch` of flat buffers.  A caller that
passes none borrows one from :data:`SCRATCH_POOL` for the duration of the
query, so ``build_spg`` in a loop allocates no O(num_vertices) storage
after its first call.

The :class:`EVEConfig` switches correspond to the ablation of Figure 11:
``distance_strategy`` (single / bidirectional / adaptive search),
``forward_looking`` pruning, and the ``search_ordering`` strategy; turning
them all off yields the paper's "Naive EVE".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from threading import Lock
from typing import Dict, Iterator, List, Optional

from repro._types import Vertex
from repro.core.distances import (
    DISTANCE_STRATEGIES,
    BackwardDistanceMap,
    DistanceScratch,
    compute_distance_index,
)
from repro.core.essential import EssentialScratch, propagate_backward, propagate_forward
from repro.core.labeling import compute_upper_bound
from repro.core.result import PhaseStats, SimplePathGraphResult
from repro.core.space import SpaceMeter
from repro.core.verification import (
    VerificationScratch,
    VerificationStats,
    prepare_verification,
)
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.telemetry import Tracer

__all__ = [
    "EVEConfig",
    "EVE",
    "QueryScratch",
    "ScratchPool",
    "build_spg",
    "build_upper_bound",
]


class QueryScratch(DistanceScratch):
    """Every reusable flat buffer one EVE query needs, in one bundle.

    Extends :class:`~repro.core.distances.DistanceScratch` (so it is
    accepted anywhere a distance scratch is) with the
    :class:`~repro.core.essential.EssentialScratch` of the propagation
    phase and the :class:`~repro.core.verification.VerificationScratch` of
    the ordering + verification phases.  :class:`ScratchPool` pools these,
    which is what makes every phase allocation-free;
    :meth:`EVE.query` picks the essential and verification sides up
    automatically when handed one.
    """

    __slots__ = ("essential", "verification")

    def __init__(self) -> None:
        super().__init__()
        self.essential = EssentialScratch()
        self.verification = VerificationScratch()


class ScratchPool:
    """A thread-safe free list of :class:`QueryScratch` bundles.

    A query borrows one bundle for its duration and returns it; the
    epoch-stamped buffers then serve the next query without allocating.
    The pool never holds more bundles than the peak number of concurrent
    borrowers, so its memory is bounded by ``borrowers * O(num_vertices)``.

    Parameters
    ----------
    stats:
        Optional :class:`repro.service.stats.EngineStats`; every acquire is
        then recorded there as a scratch allocation or reuse
        (``record_scratch``) and the :attr:`allocations` / :attr:`reuses`
        properties read it back, so an engine keeps one pair of counters.
    """

    def __init__(self, stats: Optional[object] = None) -> None:
        self._lock = Lock()
        self._free: List[QueryScratch] = []
        self._stats = stats
        # Only the source of truth for standalone pools.
        self._local_allocations = 0
        self._local_reuses = 0

    @property
    def allocations(self) -> int:
        """Scratches created because the pool was empty at acquire time."""
        if self._stats is not None:
            return self._stats.scratch_allocations
        return self._local_allocations

    @property
    def reuses(self) -> int:
        """Acquires served from the free list without allocating."""
        if self._stats is not None:
            return self._stats.scratch_reuses
        return self._local_reuses

    def acquire(self) -> QueryScratch:
        """Check out a scratch (reusing a pooled one when available)."""
        record_locally = self._stats is None
        with self._lock:
            reused = bool(self._free)
            scratch = self._free.pop() if reused else QueryScratch()
            if record_locally:
                if reused:
                    self._local_reuses += 1
                else:
                    self._local_allocations += 1
        if not record_locally:
            self._stats.record_scratch(reused=reused)
        return scratch

    def release(self, scratch: QueryScratch) -> None:
        """Return a scratch to the pool for the next query."""
        with self._lock:
            self._free.append(scratch)

    @contextmanager
    def borrow(self) -> Iterator[QueryScratch]:
        """Context-managed acquire/release around one query execution."""
        scratch = self.acquire()
        try:
            yield scratch
        finally:
            self.release(scratch)

    def clear(self) -> None:
        """Drop pooled buffers (e.g. after swapping to a much smaller graph)."""
        with self._lock:
            self._free.clear()

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time counters (JSON friendly)."""
        with self._lock:
            return {
                "allocations": self.allocations,
                "reuses": self.reuses,
                "idle": len(self._free),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._free)

    def __repr__(self) -> str:
        return (
            f"ScratchPool(idle={len(self)}, allocations={self.allocations}, "
            f"reuses={self.reuses})"
        )


#: The pool :meth:`EVE.query` borrows from when the caller passes no
#: scratch (``build_spg``, ``build_upper_bound``, the cycle and experiment
#: harnesses).  Concurrent and nested queries each get their own bundle.
SCRATCH_POOL = ScratchPool()


@dataclass(frozen=True)
class EVEConfig:
    """Tuning switches for EVE (all enabled by default).

    Attributes
    ----------
    distance_strategy:
        One of ``"single"``, ``"bidirectional"``, ``"adaptive"``
        (Section 3.3 / Figure 6(a)).
    forward_looking:
        Enable the forward-looking pruning of Theorem 3.6.
    search_ordering:
        Enable the neighbour-ordering strategies of Section 5.3.
    verify:
        When ``False`` the verification phase is skipped and the result's
        ``edges`` equal the upper bound (exact only for ``k <= 4``).
    """

    distance_strategy: str = "adaptive"
    forward_looking: bool = True
    search_ordering: bool = True
    verify: bool = True

    def __post_init__(self) -> None:
        if self.distance_strategy not in DISTANCE_STRATEGIES:
            raise QueryError(
                f"unknown distance strategy {self.distance_strategy!r}; "
                f"expected one of {DISTANCE_STRATEGIES}"
            )

    @classmethod
    def naive(cls) -> "EVEConfig":
        """The paper's "Naive EVE": all pruning/ordering techniques disabled."""
        return cls(
            distance_strategy="single",
            forward_looking=False,
            search_ordering=False,
            verify=True,
        )

    def with_overrides(self, **changes: object) -> "EVEConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


class EVE:
    """EVE query engine bound to one graph.

    The engine is stateless between queries (the paper's algorithm is fully
    online, no preprocessing), so one instance can serve many queries and is
    safe to reuse across threads that do not share a query.
    """

    def __init__(self, graph: DiGraph, config: Optional[EVEConfig] = None) -> None:
        self.graph = graph
        self.config = config or EVEConfig()

    # ------------------------------------------------------------------
    def query(
        self,
        source: Vertex,
        target: Vertex,
        k: int,
        *,
        shared_backward: Optional[BackwardDistanceMap] = None,
        scratch: Optional[DistanceScratch] = None,
        tracer: Optional[Tracer] = None,
    ) -> SimplePathGraphResult:
        """Return ``SPG_k(source, target)`` (exact unless ``verify=False``).

        ``shared_backward`` optionally supplies a precomputed backward
        distance pass for ``(target, k)`` (see
        :func:`repro.core.distances.backward_distance_map`), letting a batch
        of queries with a common target amortise that phase.  ``scratch``
        optionally supplies the query's reusable buffers, normally a
        :class:`QueryScratch` (a plain distance scratch covers the distance
        phase only); a scratch must not be shared by concurrent queries.
        Without one the query borrows a bundle from :data:`SCRATCH_POOL`,
        so no caller falls into per-query O(num_vertices) allocation.  The
        result never references scratch storage, and the answer is
        identical either way.

        ``tracer`` optionally records one ``phase.<name>`` span per executed
        phase plus one ``query`` summary span.  Phases are already timed for
        :class:`~repro.core.result.PhaseStats`, so the tracer receives the
        measured values — tracing adds no clock reads, and when ``tracer``
        is ``None`` every telemetry site is a single ``is not None`` check.
        """
        if scratch is None:
            with SCRATCH_POOL.borrow() as scratch:
                return self.query(
                    source, target, k,
                    shared_backward=shared_backward, scratch=scratch, tracer=tracer,
                )
        self._validate(source, target, k)
        config = self.config
        essential_scratch = getattr(scratch, "essential", None)
        verification_scratch = getattr(scratch, "verification", None)
        space = SpaceMeter()
        phases = PhaseStats()

        query_started = started = time.perf_counter()
        distances = compute_distance_index(
            self.graph,
            source,
            target,
            k,
            strategy=config.distance_strategy,
            shared_backward=shared_backward,
            scratch=scratch,
        )
        space.allocate(distances.size(), category="distances")
        phases.distance_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.distance",
                started,
                phases.distance_seconds,
                shared_backward=shared_backward is not None,
                **distances.span_attributes(),
            )

        # Fast exit: t not reachable from s within k hops -> empty answer.
        if distances.shortest_st_distance() > k:
            if tracer is not None:
                tracer.record(
                    "query",
                    query_started,
                    time.perf_counter() - query_started,
                    source=source,
                    target=target,
                    k=k,
                    empty=True,
                    exact=True,
                )
            return SimplePathGraphResult(
                source=source,
                target=target,
                k=k,
                edges=set(),
                upper_bound_edges=set(),
                labels={},
                phases=phases,
                space=space,
                exact=True,
                algorithm="EVE",
            )

        started = time.perf_counter()
        forward = propagate_forward(
            self.graph, source, target, k,
            distances=distances, prune=config.forward_looking, space=space,
            scratch=essential_scratch,
        )
        backward = propagate_backward(
            self.graph, source, target, k,
            distances=distances, prune=config.forward_looking, space=space,
            scratch=essential_scratch,
        )
        phases.propagation_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.propagation",
                started,
                phases.propagation_seconds,
                **forward.span_attributes(),
                **backward.span_attributes(),
            )

        started = time.perf_counter()
        upper = compute_upper_bound(
            self.graph, source, target, k, distances, forward, backward, space=space
        )
        phases.upper_bound_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.upper_bound",
                started,
                phases.upper_bound_seconds,
                **upper.span_attributes(),
            )

        verification_stats = VerificationStats() if tracer is not None else None
        if config.verify:
            prepared = None
            if config.search_ordering and k >= 6:
                # For k = 5 the search never expands (Section 5.3), so
                # ordering would be pure overhead.  Materialising the flat
                # slices is part of this phase when ordering runs.
                started = time.perf_counter()
                prepared = prepare_verification(
                    upper, scratch=verification_scratch
                )
                prepared.apply_search_ordering()
                phases.ordering_seconds = time.perf_counter() - started
                if tracer is not None:
                    tracer.record(
                        "phase.ordering", started, phases.ordering_seconds
                    )
            started = time.perf_counter()
            if prepared is None:
                prepared = prepare_verification(
                    upper, scratch=verification_scratch
                )
            edges = prepared.verify(space=space, stats=verification_stats)
            phases.verification_seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.record(
                    "phase.verification",
                    started,
                    phases.verification_seconds,
                    **verification_stats.span_attributes(),
                )
            exact = True
        else:
            edges = upper.edges
            exact = k <= 4

        if tracer is not None:
            tracer.record(
                "query",
                query_started,
                time.perf_counter() - query_started,
                source=source,
                target=target,
                k=k,
                empty=not edges,
                exact=exact,
                answer_edges=len(edges),
                upper_bound_edges=upper.num_edges,
                phase_seconds_total=phases.total_seconds,
            )

        return SimplePathGraphResult(
            source=source,
            target=target,
            k=k,
            edges=edges,
            upper_bound_edges=upper.edges,
            labels=upper.labels,
            phases=phases,
            space=space,
            exact=exact,
            algorithm="EVE",
        )

    # ------------------------------------------------------------------
    def upper_bound(self, source: Vertex, target: Vertex, k: int) -> SimplePathGraphResult:
        """Return only the upper-bound graph ``SPGu_k`` (no verification)."""
        engine = EVE(self.graph, self.config.with_overrides(verify=False))
        result = engine.query(source, target, k)
        result.algorithm = "EVE-upper-bound"
        return result

    def _validate(self, source: Vertex, target: Vertex, k: int) -> None:
        self.graph.check_vertex(source)
        self.graph.check_vertex(target)
        if source == target:
            raise QueryError(
                "simple path graph queries require distinct source and target"
            )
        if k < 1:
            raise QueryError(f"hop constraint k must be >= 1, got {k}")


def build_spg(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    config: Optional[EVEConfig] = None,
) -> SimplePathGraphResult:
    """One-shot convenience wrapper: ``EVE(graph, config).query(s, t, k)``."""
    return EVE(graph, config).query(source, target, k)


def build_upper_bound(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    config: Optional[EVEConfig] = None,
) -> SimplePathGraphResult:
    """One-shot convenience wrapper returning only the upper-bound graph."""
    return EVE(graph, config).upper_bound(source, target, k)
