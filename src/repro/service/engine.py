"""The SPG serving engine: cache + batch planner + pluggable executor.

:class:`SPGEngine` owns one :class:`~repro.graph.digraph.DiGraph` and one
:class:`~repro.core.eve.EVEConfig` and answers single queries
(:meth:`SPGEngine.query`), batches (:meth:`SPGEngine.run_batch` /
:meth:`SPGEngine.run_batch_async`) and streamed workloads, sync or async
(:meth:`SPGEngine.astream`).  Batches execute on a pluggable
:class:`~repro.service.executor.ExecutorBackend` (``serial`` or
``process``); four guarantees hold regardless of cache state, planning,
backend or parallelism:

* **identical answers** — every :class:`SPGAnswer` carries the edges and
  ``exact`` flag a cold per-query :func:`repro.core.eve.build_spg` on the
  same graph/config returns (the labels, upper bound, phase times and
  space meter of that full result stay with ``build_spg``/``EVE.query``);
* **deterministic ordering** — ``run_batch`` returns outcomes in input
  order, whatever the pool does;
* **error isolation** — one bad query (unknown vertex, ``s == t``, ...)
  yields an errored :class:`QueryOutcome`; the rest of the batch is
  unaffected;
* **backend equivalence** — every backend produces the same
  :class:`BatchReport` (the differential harness in
  ``tests/test_executor_backends.py`` enforces this).

Process-backend mechanics: the engine builds its pool with an initializer
that installs the (pickled or shared-memory) graph, the config, and one
worker-local :class:`~repro.core.eve.ScratchPool` of
:class:`~repro.core.eve.QueryScratch` bundles per worker; each
planned group then crosses the boundary as a small picklable payload, and
every payload carries the parent graph's fingerprint so a desynchronised
worker fails loudly instead of answering against a stale graph.  Worker
tasks come back as :class:`GroupExecution` payloads — the per-query
entries plus the counter delta the worker's scratch pool recorded (and
drained trace events when tracing is on) — which ``_finalize_batch`` folds
into the parent's :class:`~repro.service.stats.EngineStats` and tracer, so
pool-side work is visible in the same place as in-process work.
"""

from __future__ import annotations

import asyncio
import atexit
import time
import weakref
from array import array
from dataclasses import dataclass, field
from itertools import chain
from threading import Lock
from typing import (
    AsyncIterator,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._types import Edge, Vertex
from repro.core.distances import backward_distance_map
from repro.core.eve import EVE, EVEConfig, ScratchPool
from repro.core.result import SimplePathGraphResult
from repro.exceptions import QueryError
from repro.graph.delta import GraphDelta
from repro.graph.delta import apply_delta as apply_graph_delta
from repro.graph.digraph import DiGraph
from repro.graph.shm import (
    AttachedGraphSegment,
    SharedGraphDescriptor,
    SharedGraphSegment,
    attach_shared_graph,
)
from repro.queries.workload import Query
from repro.service.cache import CacheKey, ResultCache, make_cache_key
from repro.service.executor import (
    Call,
    ExecutorBackend,
    TaskError,
    create_backend,
    resolve_backend_name,
)
from repro.service.planner import BatchPlan, QueryGroup, plan_batch
from repro.service.stats import EngineStats
from repro.telemetry import TraceEvent, Tracer

__all__ = [
    "EngineConfig",
    "SPGAnswer",
    "QueryOutcome",
    "BatchReport",
    "DeltaReport",
    "GroupExecution",
    "SPGEngine",
]

QueryLike = object  # (s, t, k) tuple/list, Query, or {"source", "target", "k"} mapping

#: ``(plan position, answer, phase seconds, exception, latency seconds,
#: reused backward)``; the phase seconds are
#: :meth:`~repro.core.result.PhaseStats.by_phase` of the computed result.
GroupResult = List[
    Tuple[int, Optional["SPGAnswer"], Optional[Dict[str, float]], Optional[BaseException], float, bool]
]

#: Net overlay size (insert + delete edges relative to the last compacted
#: base) at which :meth:`SPGEngine.apply_delta` folds the
#: :class:`~repro.graph.delta.DeltaOverlayView` into a fresh base graph.
#: Compaction is O(1) (the merged storage already exists) and keeps the
#: lineage fingerprint, so caches and warm pools survive it; the threshold
#: only bounds overlay bookkeeping and per-delta fingerprint hashing.
COMPACT_THRESHOLD = 4096

#: Queries :meth:`SPGEngine.astream` collects into one :meth:`run_batch`.
STREAM_BATCH_SIZE = 64


@dataclass(frozen=True)
class EngineConfig:
    """One bundle of every knob an :class:`SPGEngine` deployment exposes.

    Collects the EVE algorithm switches (notably ``strategy``, the
    Figure-11 distance-search ablation axis) and the serving-layer tuning in
    a single declarative object, so CLI flags, config files and tests can
    construct engines from data.  ``SPGEngine.from_config(graph, config)``
    is the companion constructor.

    ``executor_backend`` selects how batches execute (see
    :data:`repro.service.executor.EXECUTOR_BACKENDS`); ``None`` defers to
    the ``REPRO_EXECUTOR_BACKEND`` environment variable and finally to
    ``"serial"``.  ``max_workers`` is the process pool size, or on
    ``serial`` the most planned groups that run at once.  Note that
    process workers only ever receive the graph plus the
    :meth:`eve_config` slice of this config — the serving-layer knobs
    (cache, pool sizing) live exclusively in the parent.

    ``shared_memory`` controls whether the workers of the engine's one
    process pool receive the graph through a
    :class:`repro.graph.shm.SharedGraphSegment` (``None`` = automatic:
    enabled whenever the platform supports it, with a silent fallback to
    the pickled-graph path; ``True`` = required; ``False`` = never).
    """

    strategy: str = "adaptive"
    forward_looking: bool = True
    search_ordering: bool = True
    verify: bool = True
    cache_size: int = 1024
    max_workers: Optional[int] = None
    executor_backend: Optional[str] = None
    shared_memory: Optional[bool] = None

    def eve_config(self) -> EVEConfig:
        """The :class:`~repro.core.eve.EVEConfig` slice of this config."""
        return EVEConfig(
            distance_strategy=self.strategy,
            forward_looking=self.forward_looking,
            search_ordering=self.search_ordering,
            verify=self.verify,
        )

    def engine_kwargs(self) -> Dict[str, object]:
        """The serving-layer keyword arguments of this config.

        Everything :class:`SPGEngine` accepts beyond the graph and the EVE
        config.
        """
        return {
            "cache_size": self.cache_size,
            "max_workers": self.max_workers,
            "executor_backend": self.executor_backend,
            "shared_memory": self.shared_memory,
        }


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`SPGEngine.apply_delta` call did.

    ``inserted``/``deleted`` count the *effective* edge changes (requested
    edges that were already present / already absent are idempotent no-ops,
    tallied in the ``skipped_*`` fields).  ``cache_invalidated`` /
    ``cache_retained`` describe the scoped invalidation outcome over the
    entries that were keyed on the pre-delta graph.  ``noop`` deltas leave
    the graph, epoch and cache untouched.
    """

    epoch: int
    inserted: int
    deleted: int
    skipped_inserts: int
    skipped_deletes: int
    cache_invalidated: int
    cache_retained: int
    compacted: bool
    noop: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (the shape ``POST /mutate`` responds with)."""
        return {
            "epoch": self.epoch,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "skipped_inserts": self.skipped_inserts,
            "skipped_deletes": self.skipped_deletes,
            "cache_invalidated": self.cache_invalidated,
            "cache_retained": self.cache_retained,
            "compacted": self.compacted,
            "noop": self.noop,
        }


class SPGAnswer:
    """The engine's answer to one ``<s, t, k>`` query: the edges of SPG_k(s, t).

    Holds the query, ``exact`` and the answer's edge pairs, sorted and
    packed as signed 64-bit ints ``u0, v0, u1, v1, ...`` in one immutable
    ``bytes`` buffer (:attr:`packed`, 16 bytes an edge).  ``edges`` (a
    fresh ``frozenset``), :attr:`edge_pairs`, :attr:`vertices`,
    :attr:`num_edges` and :attr:`is_empty` are computed from the buffer on
    access.  Every cache hit hands out the same object, so it cannot be
    changed: attributes are read-only and the buffer is ``bytes``.

    The full :class:`~repro.core.result.SimplePathGraphResult` — upper
    bound, Algorithm 2 labels, phase times, space meter — is EVE's working
    record; :func:`repro.core.eve.build_spg` and
    :meth:`repro.core.eve.EVE.query` return it.  The engine packs each one
    as soon as it is computed (:meth:`from_result`) and keeps only this.
    """

    __slots__ = ("source", "target", "k", "exact", "packed")

    source: Vertex
    target: Vertex
    k: int
    exact: bool
    packed: bytes

    def __init__(
        self, source: Vertex, target: Vertex, k: int, exact: bool, packed: bytes
    ) -> None:
        for name, value in zip(self.__slots__, (source, target, k, exact, bytes(packed))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_result(cls, result: SimplePathGraphResult) -> "SPGAnswer":
        """Pack the answer edges of one full EVE result."""
        flat = array("q", chain.from_iterable(sorted(result.edges)))
        return cls(result.source, result.target, result.k, result.exact, flat.tobytes())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> Tuple[Vertex, Vertex, int, bool, bytes]:
        return (self.source, self.target, self.k, self.exact, self.packed)

    def __reduce__(self):
        return (SPGAnswer, self._fields())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPGAnswer):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def edge_pairs(self) -> List[Edge]:
        """The answer edges as ``(u, v)`` tuples, in sorted order."""
        flat = memoryview(self.packed).cast("q")
        return list(zip(flat[0::2], flat[1::2]))

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The answer edge set, built fresh on every access."""
        return frozenset(self.edge_pairs)

    @property
    def vertices(self) -> FrozenSet[Vertex]:
        """Vertices incident to at least one answer edge."""
        return frozenset(memoryview(self.packed).cast("q"))

    @property
    def num_edges(self) -> int:
        return len(self.packed) // 16

    @property
    def is_empty(self) -> bool:
        """True when no k-hop-constrained s-t simple path exists."""
        return not self.packed

    def __repr__(self) -> str:
        return (
            f"SPGAnswer(s={self.source}, t={self.target}, k={self.k}, "
            f"edges={self.num_edges}, exact={self.exact})"
        )


def _compact(result: SimplePathGraphResult) -> Tuple[SPGAnswer, Dict[str, float]]:
    """Pack one full EVE result; keep only its five phase times beside it."""
    return SPGAnswer.from_result(result), result.phases.by_phase()


@dataclass
class QueryOutcome:
    """The outcome of one query inside a batch.

    Exactly one of ``result`` (an :class:`SPGAnswer`) / ``error`` is set.
    ``cached`` covers both engine-cache hits and in-batch deduplication
    (the same query appearing twice in one batch is computed once).
    """

    source: Vertex
    target: Vertex
    k: int
    result: Optional[SPGAnswer] = None
    error: Optional[str] = None
    cached: bool = False
    reused_backward: bool = False
    latency_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The answer edge set (empty for errored queries)."""
        return self.result.edges if self.result is not None else frozenset()


@dataclass
class BatchReport:
    """Outcomes of one batch, in input order, plus plan/cache accounting."""

    outcomes: List[QueryOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    planned_groups: int = 0
    shared_groups: int = 0
    reused_backward_passes: int = 0
    cache_hits: int = 0
    errors: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[QueryOutcome]:
        return iter(self.outcomes)

    def results(self) -> List[Optional[SPGAnswer]]:
        """Per-query answers in input order (``None`` for errored queries)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def num_ok(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)


@dataclass
class GroupExecution:
    """Picklable result of one worker-side task group: entries + telemetry.

    ``entries`` is the usual :data:`GroupResult`: each computed query's
    :class:`SPGAnswer` with its five phase times beside it, which the
    parent records in the phase *histograms* and then drops.  ``counters``
    is the stats delta the worker measured while running the group (its
    scratch checkouts — the keys
    :meth:`repro.service.stats.EngineStats.merge_counters` accepts), and
    ``events`` carries the worker tracer's drained spans when the parent
    requested tracing.
    """

    entries: GroupResult
    counters: Dict[str, int] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)


# ----------------------------------------------------------------------
# Group execution, shared by every backend
# ----------------------------------------------------------------------
def _execute_group(
    graph: DiGraph,
    config: EVEConfig,
    group: QueryGroup,
    borrow_scratch,
    tracer: Optional[Tracer] = None,
) -> GroupResult:
    """Run one planned group sequentially, isolating per-query errors.

    ``borrow_scratch`` is a zero-argument context manager factory yielding a
    :class:`~repro.core.eve.QueryScratch` for one query (the engine's pool
    in-process, a worker-local scratch across the process boundary), which
    :meth:`EVE.query` consumes for both its distance and its propagation
    buffers.  Returns the :data:`GroupResult` entries: each full result is
    packed into an :class:`SPGAnswer` as soon as ``EVE.query`` returns,
    with only its phase times kept beside it, so a group never holds more
    than one full result.  The
    shared backward pass (:func:`repro.core.distances.backward_distance_map`)
    is computed once for groups the planner marked ``shared``.  When that
    precomputation itself fails (e.g. the common target is not a vertex),
    each query falls through to the cold path and reports the error
    individually.  ``tracer`` optionally records the per-phase spans of
    every executed query (see :meth:`repro.core.eve.EVE.query`).
    """
    shared = None
    if group.shared:
        try:
            shared = backward_distance_map(graph, group.target, group.k)
        except Exception:
            shared = None
    engine = EVE(graph, config)
    out: GroupResult = []
    for planned in group.queries:
        reused = shared is not None
        query_started = time.perf_counter()
        try:
            with borrow_scratch() as scratch:
                answer, phases = _compact(
                    engine.query(
                        planned.source,
                        planned.target,
                        planned.k,
                        shared_backward=shared,
                        scratch=scratch,
                        tracer=tracer,
                    )
                )
        except Exception as exc:  # noqa: BLE001 - per-query isolation
            out.append(
                (planned.index, None, None, exc, time.perf_counter() - query_started, reused)
            )
        else:
            out.append(
                (planned.index, answer, phases, None, time.perf_counter() - query_started, reused)
            )
    return out


# ----------------------------------------------------------------------
# Process-backend worker state (one copy per worker process)
# ----------------------------------------------------------------------
_worker_graph: Optional[DiGraph] = None
_worker_config: Optional[EVEConfig] = None
_worker_scratch: Optional[ScratchPool] = None
_worker_attached: Optional[AttachedGraphSegment] = None
_worker_cleanup_registered = False


def _init_process_worker(graph: DiGraph, config: EVEConfig) -> None:
    """Pool initializer: install the graph, config and scratch in this worker.

    Runs exactly once per worker process — the one-time pickling of the
    graph that replaces any per-task graph shipping.  The fingerprint is
    warmed eagerly so the first served group does not pay the O(m) hash.
    The scratch lives in a worker-local *standalone*
    :class:`~repro.core.eve.ScratchPool`
    (it records its own counters), so each task can report the pool-counter
    delta it caused back to the parent.
    """
    global _worker_graph, _worker_config, _worker_scratch
    graph.fingerprint()
    _worker_graph = graph
    _worker_config = config
    _worker_scratch = ScratchPool()


def _release_worker_state() -> None:
    """Drop worker-held graph state and unmap any attached shared segment.

    Registered via ``atexit`` in shared-memory workers: the CSR views alias
    the mapped block, so the mapping must be released only after every view
    is unreachable — otherwise interpreter teardown trips over exported
    buffers and prints spurious ``BufferError`` noise.
    """
    global _worker_graph, _worker_config, _worker_scratch, _worker_attached
    _worker_graph = None
    _worker_config = None
    _worker_scratch = None
    attached = _worker_attached
    _worker_attached = None
    if attached is not None:
        attached.close()


def _init_shared_process_worker(
    descriptor: SharedGraphDescriptor, config: EVEConfig
) -> None:
    """Pool initializer for shared-memory workers: attach instead of unpickle.

    The worker attaches to the shared graph segment zero-copy and untracked:
    the installed :class:`~repro.graph.digraph.DiGraph` reads its CSR pairs
    straight from the shared block — no per-worker unpickled copy.  The
    attachment is kept in module state and released at worker exit; the
    *creator* (the parent engine) owns the block's unlink.
    """
    global _worker_attached, _worker_cleanup_registered
    if _worker_attached is not None:
        _worker_attached.close()
        _worker_attached = None
    attached = attach_shared_graph(descriptor)
    _worker_attached = attached
    if not _worker_cleanup_registered:
        atexit.register(_release_worker_state)
        _worker_cleanup_registered = True
    _init_process_worker(attached.graph, config)


def _worker_graph_probe() -> Dict[str, object]:
    """Diagnostic task payload: how this worker holds its graph.

    Used by the shared-memory tests and the RSS benchmark leg to assert that
    shared-memory workers read their CSR pairs from the shared block
    (``shared=True``: the buffers are memoryviews) instead of from an
    unpickled copy, and to read the worker's peak RSS.
    """
    import resource

    graph = _worker_graph
    return {
        "shared": graph is not None and isinstance(graph.csr()[1], memoryview),
        "fingerprint": None if graph is None else graph.fingerprint(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _process_run_group(
    fingerprint: str, group: QueryGroup, trace: bool = False
) -> GroupExecution:
    """Worker-side group runner for the process backend.

    ``fingerprint`` is the parent engine's view of the served graph; a
    mismatch means this worker was initialised against a different graph
    (e.g. a swap raced pool construction) and must fail loudly rather than
    silently answer against stale data.  Returns a :class:`GroupExecution`
    so the scratch-counter delta (and trace events, when ``trace`` is set)
    reach the parent's stats instead of dying with the worker.
    """
    if _worker_graph is None or _worker_config is None:
        raise RuntimeError("process worker used before initialisation")
    if fingerprint != _worker_graph.fingerprint():
        raise RuntimeError(
            f"process worker graph fingerprint {_worker_graph.fingerprint()} "
            f"does not match batch fingerprint {fingerprint}"
        )
    pool = _worker_scratch
    allocations_before, reuses_before = pool.allocations, pool.reuses
    tracer = Tracer() if trace else None
    entries = _execute_group(
        _worker_graph, _worker_config, group, pool.borrow, tracer=tracer
    )
    # The EngineStats.merge_counters delta this task caused.
    counters: Dict[str, int] = {}
    allocations = pool.allocations - allocations_before
    reuses = pool.reuses - reuses_before
    if allocations:
        counters["scratch_allocations"] = allocations
    if reuses:
        counters["scratch_reuses"] = reuses
    return GroupExecution(
        entries=entries,
        counters=counters,
        events=tracer.drain() if tracer is not None else [],
    )


def _release_backend(
    backend: ExecutorBackend, segment: Optional[SharedGraphSegment]
) -> None:
    """Finalizer body for engines dropped without ``close()``.

    Reaps the worker pool first (workers hold attachments into the
    segment), then unlinks the shared block — at most once, the segment's
    own finalizer guards repeats.
    """
    backend.close()
    if segment is not None:
        segment.close()


# ----------------------------------------------------------------------
# Scoped cache invalidation for one delta
# ----------------------------------------------------------------------
class _TouchedBall:
    """A multi-source BFS from a delta's touched endpoints, one level a step.

    ``dist`` holds every vertex within ``radius`` hops of the sources, at
    its exact distance; every other vertex is at least ``radius + 1``
    away.  The search walks one direction of a CSR pair and never passes
    ``cap``; a frontier that empties first sets ``radius`` to ``cap``,
    since nothing unreached lies within it.
    """

    __slots__ = ("_offsets", "_targets", "dist", "frontier", "radius", "cap")

    def __init__(
        self, csr: Tuple[Sequence[int], Sequence[Vertex]], sources: Set[Vertex], cap: int
    ) -> None:
        self._offsets, self._targets = csr
        self.dist: Dict[Vertex, int] = dict.fromkeys(sources, 0)
        self.frontier: List[Vertex] = list(self.dist)
        self.cap = cap
        self.radius = 0 if self.frontier else cap

    def advance(self) -> None:
        """Settle the next level."""
        offsets, targets, dist = self._offsets, self._targets, self.dist
        depth = self.radius + 1
        frontier: List[Vertex] = []
        for u in self.frontier:
            for v in targets[offsets[u]:offsets[u + 1]]:
                if v not in dist:
                    dist[v] = depth
                    frontier.append(v)
        self.frontier = frontier
        self.radius = depth if frontier else self.cap


def _scoped_keep_predicate(
    graph: DiGraph,
    touched: Sequence[Edge],
    keys: Iterable[Tuple[Vertex, Vertex, int]],
) -> Callable[[CacheKey], bool]:
    """Build the k-ball keep-predicate for one delta over the cached ``keys``.

    An entry ``(s, t, k)`` can only change if some ``touched`` edge ``(u,
    v)`` lies on an s-t path of at most ``k`` hops in the old or the new
    graph, which needs ``dist(s, tails) + 1 + dist(heads, t) <= k`` for
    the nearest touched tail and head.  Those two distances are the same
    in both graphs and in their union: a shortest path to a touched tail
    never crosses a touched edge, whose own tail would end a shorter one
    (symmetrically for paths from the heads).  So ``graph``, the new one,
    serves alone.

    Two balls grow in it one level at a time, reverse from the touched
    tails and forward from the touched heads, each capped at ``k_max - 1``
    for the largest cached ``k``.  As in the adaptive bidirectional search
    of Section 3.3, the side with the smaller frontier advances, and the
    search stops once every key is decided.  With an unreached end counted
    at its ball's ``radius + 1``, the sum ``dist(s, tails) + 1 + dist(heads,
    t)`` only grows as the balls do: a key is *kept* once it exceeds ``k``,
    and *invalidated* once both ends are reached and it is still ``<= k``.
    Those are the decisions of two full-depth passes, at the cost of the
    levels the keys need.

    ``keep(key)`` applies the same bound with the final radii.  A key with
    ``k > k_max`` (a racing put from an in-flight old-epoch batch), or one
    the stopped search left undecided, fails it and is dropped:
    over-invalidation is always safe.
    """
    pending = list(keys)
    if not pending:
        return lambda key: False
    k_max = max(k for _, _, k in pending)
    cap = max(0, k_max - 1)
    to_tails = _TouchedBall(graph.csr_reverse(), {u for u, _ in touched}, cap)
    from_heads = _TouchedBall(graph.csr(), {v for _, v in touched}, cap)

    while True:
        to_tail, far_tail = to_tails.dist, to_tails.radius + 1
        from_head, far_head = from_heads.dist, from_heads.radius + 1
        # Undecided: dist(s, tails) + 1 + dist(heads, t), with an unreached
        # end at its ball's radius + 1, is still <= k, and an end is unreached.
        pending = [
            (s, t, k)
            for s, t, k in pending
            if to_tail.get(s, far_tail) + from_head.get(t, far_head) < k
            and (s not in to_tail or t not in from_head)
        ]
        growing = [ball for ball in (to_tails, from_heads) if ball.radius < cap]
        if not pending or not growing:
            break
        min(growing, key=lambda ball: len(ball.frontier)).advance()

    def keep(key: CacheKey) -> bool:
        k = key[2]
        # Kept: that bound, at the final radii, exceeds k.
        return k <= k_max and to_tail.get(key[0], far_tail) + from_head.get(key[1], far_head) >= k

    return keep


@dataclass
class _PreparedBatch:
    """Everything ``run_batch`` computes before tasks are handed to a backend."""

    graph: DiGraph
    fingerprint: str
    normalized: List[Optional[Tuple[Vertex, Vertex, int]]]
    outcomes: List[Optional[QueryOutcome]]
    pending: Dict[CacheKey, List[int]]
    primaries: List[Tuple[CacheKey, int]]
    plan: BatchPlan
    use_cache: bool


def coerce_query_field(value: object, field: str) -> int:
    """Return one query field (an endpoint or ``k``) as an ``int``.

    Accepts integers, integral floats (JSON encoders routinely emit ``5.0``
    for 5) and integer strings.  Booleans and non-integral values raise
    :class:`QueryError`: ``int(2.9)`` would silently answer for vertex 2
    and ``int(True)`` for vertex 1 — a different query than the caller
    wrote.  ``field`` names the value in the error message.
    """
    if isinstance(value, bool):
        raise QueryError(f"{field} must be an integer, got boolean {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QueryError(f"{field} must be an integer, got {value!r}") from exc
    if number != value and not isinstance(value, str):
        raise QueryError(f"{field} must be integral, got {value!r}")
    return number


class SPGEngine:
    """A serving engine for SPG queries over one (mostly static) graph.

    Parameters
    ----------
    graph:
        The graph to serve; swap it later with :meth:`set_graph`.
    config:
        EVE tuning switches shared by every query this engine answers.
    cache_size:
        Maximum LRU entries (>= 0); ``0`` disables the result cache
        entirely.
    max_workers:
        How many planned groups run at once across overlapping batches:
        the process pool size, or the serial backend's in-flight bound
        (>= 1; ``None`` = available CPUs, capped).  Each running group
        holds one pooled scratch bundle.
    executor_backend:
        One of :data:`repro.service.executor.EXECUTOR_BACKENDS`.  ``None``
        defers to ``$REPRO_EXECUTOR_BACKEND``, then ``"serial"``, which
        runs each group inline on the calling thread.  The ``process``
        backend is the one that runs CPU-bound EVE queries on multiple
        cores; it pays a one-time pool spin-up + graph share per served
        graph, so it wins on multi-query CPU-bound batches and loses on
        tiny ones and on graphs that change often.  The engine
        owns exactly one backend: built lazily, kept warm across batches
        and streams, rebuilt only when a process pool goes stale, and
        released by :meth:`close` (the engine is also a context manager).
    shared_memory:
        How process workers receive the served graph.  ``None`` (default)
        = automatic: the pool's workers attach to a
        :class:`repro.graph.shm.SharedGraphSegment` zero-copy when the
        platform supports it, with a silent fallback to the pickled-graph
        initializer.  ``True`` requires the segment (the batch that builds
        the pool raises when shared memory is unavailable); ``False``
        always pickles.  Irrelevant for the serial backend.
    tracer:
        Optional :class:`repro.telemetry.Tracer`.  When set, every cache
        miss records its per-phase spans into it — in-process queries
        directly, process-pool queries via a worker-local tracer whose
        events are merged back with the task result.  ``None`` (default)
        disables tracing; the hot path then pays one ``is not None`` check
        per telemetry site.  Also settable later via the ``tracer``
        property (taking effect from the next query/batch).
    """

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[EVEConfig] = None,
        *,
        cache_size: int = 1024,
        max_workers: Optional[int] = None,
        executor_backend: Optional[str] = None,
        shared_memory: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._graph = graph
        self._config = config or EVEConfig()
        self._cache = ResultCache(cache_size) if cache_size > 0 else None
        self._stats = EngineStats()
        self._scratch = ScratchPool(self._stats)
        self._tracer = tracer
        self._max_workers = max_workers
        # Serializes apply_delta callers (mutations are read-modify-write
        # on the served graph); queries never take it.
        self._delta_lock = Lock()
        self._graph_epoch = 0
        # Fail fast on bad names instead of at first batch.
        self._backend_name = resolve_backend_name(executor_backend)
        self._shared_memory = shared_memory
        self._backend: Optional[ExecutorBackend] = None
        self._backend_fingerprint: Optional[str] = None
        self._backend_finalizer: Optional[weakref.finalize] = None
        self._backend_lock = Lock()
        self._segment: Optional[SharedGraphSegment] = None
        self._warm_graph(graph)

    @staticmethod
    def _warm_graph(graph: DiGraph) -> None:
        """Force the graph's lazy fingerprint on the caller thread.

        The fingerprint is computed lazily and without synchronization;
        warming it here keeps overlapping cold batches from all racing to
        hash the same O(m) edges.
        """
        graph.fingerprint()

    @classmethod
    def from_config(cls, graph: DiGraph, config: Optional[EngineConfig] = None) -> "SPGEngine":
        """Build an engine from one declarative :class:`EngineConfig`."""
        config = config or EngineConfig()
        return cls(graph, config.eve_config(), **config.engine_kwargs())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def graph_epoch(self) -> int:
        """Number of effective deltas applied since construction."""
        return self._graph_epoch

    @property
    def config(self) -> EVEConfig:
        return self._config

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def stats(self) -> EngineStats:
        return self._stats

    @property
    def scratch_pool(self) -> ScratchPool:
        return self._scratch

    @property
    def tracer(self) -> Optional[Tracer]:
        """The engine's tracer, or ``None`` when tracing is off."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer

    @property
    def executor_backend(self) -> str:
        """Name of the backend batches execute on."""
        return self._backend_name

    def stats_snapshot(self) -> Dict[str, object]:
        """Engine counters plus cache counters, as one JSON-friendly dict."""
        snapshot = self._stats.snapshot()
        snapshot["cache"] = self._cache.stats() if self._cache is not None else None
        snapshot["executor_backend"] = self._backend_name
        return snapshot

    # ------------------------------------------------------------------
    # Backend lifecycle
    # ------------------------------------------------------------------
    def _create_segment(self, graph: DiGraph) -> Optional[SharedGraphSegment]:
        """Build the shared CSR segment for ``graph``, honouring the knob.

        ``shared_memory=None`` treats an allocation failure as "platform
        does not support it" and falls back to pickled workers; an explicit
        ``True`` propagates the failure.
        """
        if self._shared_memory is False:
            return None
        try:
            return SharedGraphSegment(graph)
        except Exception:
            if self._shared_memory:
                raise
            return None

    def _build_persistent_backend(self, graph: DiGraph) -> ExecutorBackend:
        """Build the engine's one backend, which every batch and stream uses.

        The serial backend shares the parent's memory.  A process pool
        either attaches its workers zero-copy to a shared segment, tracked
        in ``self._segment`` and closed on staleness rebuilds,
        :meth:`close` and the GC finalizer, or, when
        :meth:`_create_segment` returns ``None``, installs a pickled copy
        of the graph in each worker.
        """
        if self._backend_name != "process":
            return create_backend(self._backend_name, self._max_workers)
        segment = self._create_segment(graph)
        if segment is None:
            return create_backend(
                "process",
                self._max_workers,
                initializer=_init_process_worker,
                initargs=(graph, self._config),
            )
        self._segment = segment
        return create_backend(
            "process",
            self._max_workers,
            initializer=_init_shared_process_worker,
            initargs=(segment.descriptor, self._config),
        )

    def _ensure_backend(self, graph: DiGraph) -> ExecutorBackend:
        """Return the backend that serves ``graph``, (re)building it if needed.

        A process backend is pinned to the graph its workers were
        initialised with: a ``graph`` with a different fingerprint (or a
        broken pool after a worker death) closes the old pool and builds a
        fresh one.  The serial backend shares the parent's memory and
        survives swaps untouched.
        """
        with self._backend_lock:
            backend = self._backend
            if (
                backend is not None
                and self._backend_name == "process"
                and (backend.broken or self._backend_fingerprint != graph.fingerprint())
            ):
                backend.close()
                backend = None
                self._close_segment()
            if backend is None:
                backend = self._build_persistent_backend(graph)
                self._backend = backend
                self._backend_fingerprint = graph.fingerprint()
                # Engines dropped without close() must not leak warm pools
                # (process workers would outlive the engine until exit) or
                # shared-memory blocks (which would outlive the *machine
                # boot* without an unlink).  Exactly one finalizer is kept:
                # the superseded one is detached so rebuilds do not
                # accumulate dead backends.
                if self._backend_finalizer is not None:
                    self._backend_finalizer.detach()
                self._backend_finalizer = weakref.finalize(
                    self, _release_backend, backend, self._segment
                )
            return backend

    def _close_segment(self) -> None:
        """Unlink the current shared segment, if any (idempotent)."""
        segment = self._segment
        self._segment = None
        if segment is not None:
            segment.close()

    def close(self) -> None:
        """Shut down the executor backend (idempotent; pools are released).

        The engine remains usable afterwards — the next batch lazily builds
        a fresh backend — so ``close()`` doubles as a "drop warm workers"
        hint for long-idle engines.
        """
        with self._backend_lock:
            if self._backend is not None:
                self._backend.close()
                self._backend = None
                self._backend_fingerprint = None
            self._close_segment()
            if self._backend_finalizer is not None:
                self._backend_finalizer.detach()
                self._backend_finalizer = None

    def __enter__(self) -> "SPGEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Graph lifecycle
    # ------------------------------------------------------------------
    def set_graph(self, graph: DiGraph) -> None:
        """Swap the served graph.

        Cache entries are keyed on the graph fingerprint, so entries of the
        old graph can never answer queries against the new one — they age
        out of the LRU naturally, or :meth:`clear_cache` drops them at
        once.  A process backend initialised for a different graph is
        rebuilt lazily on the next batch (swapping to an *equal* graph
        keeps its warm workers).
        """
        self._warm_graph(graph)
        self._graph = graph

    def clear_cache(self) -> None:
        """Drop every cached result."""
        if self._cache is not None:
            self._cache.clear()

    # ------------------------------------------------------------------
    # Dynamic graphs: epoch-versioned delta application
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> DeltaReport:
        """Apply an edge delta to the served graph under live traffic.

        The successor graph is built as a :class:`~repro.graph.delta`
        overlay of the current epoch (spliced CSR, lineage fingerprint) —
        or folded into a fresh base via ``compact()`` once the net overlay
        reaches :data:`COMPACT_THRESHOLD` edges — and swapped in through
        :meth:`set_graph`.  The epoch semantics fall out of the
        existing immutability machinery:

        * In-flight queries and batches read ``self._graph`` exactly once
          at admission, so they finish on the epoch they started on;
          checked-out scratch is graph-independent (epoch-stamped buffers).
        * New queries see the new epoch and its fingerprint.
        * A warm process pool serving the old fingerprint is detected by
          the existing staleness guards and rebuilt lazily on the next
          batch; mid-flight tasks on the old pool carry the old
          fingerprint and stay consistent.

        Cache entries keyed on the old fingerprint are migrated with a
        *scoped* invalidation instead of a whole-flush: an entry ``(s, t,
        k)`` can only change if some touched edge ``(u, v)`` sits on a
        path of length <= k from ``s`` to ``t`` in either epoch, which
        needs ``dist(s, u) + 1 + dist(v, t) <= k`` for the nearest touched
        tail ``u`` and head ``v``.  Those distances are the same in both
        epochs, so the test is conservative: it may over-invalidate, never
        retain a stale entry.  The search behind it stops once every
        old-epoch entry is decided, so it scans only the levels around the
        touched edges those entries need (see
        :func:`_scoped_keep_predicate`).
        Surviving entries are re-keyed to the new fingerprint atomically.

        Mutations serialize against each other; queries are never
        blocked.  No-op deltas (every edge already present/absent) leave
        the graph, epoch, fingerprint and cache untouched.

        Raises :class:`~repro.exceptions.EdgeError` if the delta names an
        endpoint outside the current graph's vertex range.
        """
        with self._delta_lock:
            old_graph = self._graph
            view = apply_graph_delta(old_graph, delta)
            skipped_inserts = delta.num_inserts - len(view.applied_inserts)
            skipped_deletes = delta.num_deletes - len(view.applied_deletes)
            if view.is_noop:
                report = DeltaReport(
                    epoch=self._graph_epoch,
                    inserted=0,
                    deleted=0,
                    skipped_inserts=skipped_inserts,
                    skipped_deletes=skipped_deletes,
                    cache_invalidated=0,
                    cache_retained=0,
                    compacted=False,
                    noop=True,
                )
                self._stats.record_delta(
                    inserted=0,
                    deleted=0,
                    invalidated=0,
                    retained=0,
                    compacted=False,
                    epoch=self._graph_epoch,
                )
                return report

            compacted = view.overlay_size >= COMPACT_THRESHOLD
            new_graph: DiGraph = view.compact() if compacted else view
            old_fingerprint = old_graph.fingerprint()

            # Scoped invalidation runs its search *before* the swap: the
            # predicate is a pure function over the distances found, so the
            # later atomic re-key holds the cache lock only for dict
            # operations.
            if self._cache is not None:
                keep = _scoped_keep_predicate(
                    new_graph,
                    view.applied_inserts + view.applied_deletes,
                    [key[:3] for key in self._cache.keys() if key[4] == old_fingerprint],
                )

            self.set_graph(new_graph)
            new_fingerprint = new_graph.fingerprint()
            self._graph_epoch += 1
            epoch = self._graph_epoch

            invalidated = retained = 0
            if self._cache is not None:
                invalidated, retained = self._cache.rekey_fingerprint(
                    old_fingerprint, new_fingerprint, keep
                )
            self._stats.record_delta(
                inserted=len(view.applied_inserts),
                deleted=len(view.applied_deletes),
                invalidated=invalidated,
                retained=retained,
                compacted=compacted,
                epoch=epoch,
            )
            return DeltaReport(
                epoch=epoch,
                inserted=len(view.applied_inserts),
                deleted=len(view.applied_deletes),
                skipped_inserts=skipped_inserts,
                skipped_deletes=skipped_deletes,
                cache_invalidated=invalidated,
                cache_retained=retained,
                compacted=compacted,
                noop=False,
            )

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: Vertex,
        target: Vertex,
        k: int,
        *,
        use_cache: bool = True,
    ) -> SPGAnswer:
        """Answer one query through the cache; exceptions propagate.

        The full EVE result — labels, upper bound, space — is for
        :func:`repro.core.eve.build_spg` and :meth:`EVE.query` callers; the
        engine records its phase times and returns the packed answer.
        """
        graph = self._graph
        key = None
        if use_cache and self._cache is not None:
            key = make_cache_key(
                source, target, k, self._config, graph.fingerprint()
            )
            hit = self._cache.get(key)
            if hit is not None:
                self._stats.record_query(0.0, cached=True)
                return hit
        started = time.perf_counter()
        try:
            with self._scratch.borrow() as scratch:
                answer, phases = _compact(
                    EVE(graph, self._config).query(
                        source, target, k, scratch=scratch, tracer=self._tracer
                    )
                )
        except Exception:
            self._stats.record_query(
                time.perf_counter() - started, cached=False, error=True
            )
            raise
        self._stats.record_query(
            time.perf_counter() - started, cached=False, phases=phases
        )
        if key is not None:
            self._cache.put(key, answer)
        return answer

    def cached_outcome(self, query: QueryLike) -> Optional[QueryOutcome]:
        """Answer one query from the result cache alone; ``None`` on a miss.

        Reads the served graph once and builds the key :meth:`run_batch`
        would build, so a hit is exact for the epoch it keyed on.  It takes
        only the cache's lock — no EVE work, planning or backend call — so
        an event loop can call it inline.  A malformed query is a miss; the
        batch it is sent on to reports it.

        Counting rule: every query is one served query in
        :class:`~repro.service.stats.EngineStats`, whichever path answers
        it.  A hit here counts as a cache hit and as one served cached
        query, with no batch.  A miss counts nowhere: the caller sends the
        query on to :meth:`run_batch`, which counts it.
        """
        if self._cache is None:
            return None
        try:
            normalized = self._normalize(query)
        except QueryError:
            return None
        _, outcome = self._lookup(normalized, self._graph.fingerprint(), True)
        if outcome is not None:
            self._stats.record_query(0.0, cached=True)
        return outcome

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def run_batch(
        self, queries: Iterable[QueryLike], *, use_cache: bool = True
    ) -> BatchReport:
        """Answer a batch of queries with caching and shared-work planning.

        ``queries`` may hold ``(s, t, k)`` tuples,
        :class:`repro.queries.workload.Query` objects, or mappings with
        ``source`` / ``target`` / ``k`` keys.  Outcomes come back in input
        order; per-query failures — including malformed entries that cannot
        be normalised — are isolated into errored outcomes.  Execution runs
        on the engine's backend; the report is identical for every backend.

        This is the one batch path: :meth:`run_batch_async` and
        :meth:`astream` call it.  The served graph is read once, so the
        whole batch answers on one epoch even when a swap lands while
        ``queries`` is being consumed.
        """
        graph = self._graph
        backend = self._ensure_backend(graph)
        started = time.perf_counter()
        prepared = self._prepare_batch(graph, queries, use_cache)
        group_results = backend.run(self._group_tasks(prepared, backend))
        return self._finalize_batch(prepared, group_results, started)

    async def run_batch_async(
        self, queries: Iterable[QueryLike], *, use_cache: bool = True
    ) -> BatchReport:
        """Awaitable :meth:`run_batch` with an identical report.

        The whole batch — cache lookups, planning, backend dispatch (and a
        cold process pool's start-up), finalization — runs on a helper
        thread, so the event loop stays responsive.  On ``serial`` the
        helper thread runs the EVE work itself, holding one of the
        backend's ``max_workers`` permits per planned group; on
        ``process`` the work goes to the pool's workers.  Either way
        ``max_workers`` bounds it however many calls overlap.
        Overlapping calls on one engine are safe — cache, stats and scratch
        pool are thread-safe — and each batch still returns outcomes in its
        own input order.
        """
        return await asyncio.to_thread(self.run_batch, queries, use_cache=use_cache)

    async def astream(
        self, queries, *, use_cache: bool = True
    ) -> AsyncIterator[QueryOutcome]:
        """Serve a sync *or* async query iterable in bounded-memory chunks.

        Outcomes are yielded in input order with the usual per-query error
        isolation.  Each chunk of :data:`STREAM_BATCH_SIZE` queries goes
        through :meth:`run_batch_async` (cache, planner, executor), so a
        stream with repeated or target-grouped queries gets the same wins
        as an explicit batch, consuming the stream from an event loop never
        blocks it on EVE computation, and a graph swap mid-stream takes
        effect from the next chunk.
        """
        if not hasattr(queries, "__aiter__"):
            sync_queries = queries

            async def aiter_sync():
                for query in sync_queries:
                    yield query

            queries = aiter_sync()

        chunk: List[QueryLike] = []
        async for query in queries:
            chunk.append(query)
            if len(chunk) >= STREAM_BATCH_SIZE:
                for outcome in await self.run_batch_async(chunk, use_cache=use_cache):
                    yield outcome
                chunk = []
        if chunk:
            for outcome in await self.run_batch_async(chunk, use_cache=use_cache):
                yield outcome

    # ------------------------------------------------------------------
    # Batch internals
    # ------------------------------------------------------------------
    def _prepare_batch(
        self, graph: DiGraph, queries: Iterable[QueryLike], use_cache: bool
    ) -> _PreparedBatch:
        """Normalise, consult the cache, dedupe and plan one batch on ``graph``."""
        raw_queries = list(queries)
        fingerprint = graph.fingerprint()

        normalized: List[Optional[Tuple[Vertex, Vertex, int]]] = []
        outcomes: List[Optional[QueryOutcome]] = [None] * len(raw_queries)
        for index, query in enumerate(raw_queries):
            try:
                normalized.append(self._normalize(query))
            except QueryError as exc:
                # Malformed queries are isolated like any other bad query.
                normalized.append(None)
                source, target, k = self._raw_fields(query)
                outcomes[index] = QueryOutcome(
                    source=source, target=target, k=k, error=str(exc)
                )

        pending: Dict[CacheKey, List[int]] = {}
        for index, entry in enumerate(normalized):
            if entry is None:
                continue
            key, hit = self._lookup(entry, fingerprint, use_cache)
            if hit is not None:
                outcomes[index] = hit
                continue
            pending.setdefault(key, []).append(index)

        # One computation per distinct uncached query; duplicates are filled
        # from the first occurrence afterwards.
        primaries: List[Tuple[CacheKey, int]] = [
            (key, indices[0]) for key, indices in pending.items()
        ]
        plan = plan_batch([normalized[index] for _, index in primaries])
        return _PreparedBatch(
            graph=graph,
            fingerprint=fingerprint,
            normalized=normalized,
            outcomes=outcomes,
            pending=pending,
            primaries=primaries,
            plan=plan,
            use_cache=use_cache,
        )

    def _lookup(
        self,
        query: Tuple[Vertex, Vertex, int],
        fingerprint: str,
        use_cache: bool,
    ) -> Tuple[CacheKey, Optional[QueryOutcome]]:
        """Key one normalised query on ``fingerprint``; return the key and
        its cached outcome, or ``None`` on a miss (or with the cache off)."""
        source, target, k = query
        key = make_cache_key(source, target, k, self._config, fingerprint)
        if use_cache and self._cache is not None:
            hit = self._cache.get(key)
            if hit is not None:
                return key, QueryOutcome(
                    source=source, target=target, k=k, result=hit, cached=True
                )
        return key, None

    def _group_tasks(
        self, prepared: _PreparedBatch, backend: ExecutorBackend
    ) -> List[Call]:
        """Build one task per planned group, in the backend's task form.

        The serial backend closes over the engine (shared scratch pool and
        stats); the process backend gets module-level picklable payloads
        carrying the graph fingerprint for the worker-side staleness check
        plus whether the parent wants trace events shipped back.
        """
        if backend.requires_picklable_tasks:
            trace = self._tracer is not None
            return [
                Call(_process_run_group, (prepared.fingerprint, group, trace))
                for group in prepared.plan.groups
            ]
        graph = prepared.graph
        return [Call(self._run_group, (graph, group)) for group in prepared.plan.groups]

    def _finalize_batch(
        self,
        prepared: _PreparedBatch,
        group_results: List[object],
        started: float,
    ) -> BatchReport:
        """Slot group results back into input order and assemble the report.

        The phase times of each computed query are recorded in
        :class:`~repro.service.stats.EngineStats` here, the same site for
        every backend, and then dropped: outcomes carry only answers.
        """
        normalized = prepared.normalized
        outcomes = prepared.outcomes
        pending = prepared.pending
        primaries = prepared.primaries
        use_cache = prepared.use_cache
        phase_times: List[Optional[Dict[str, float]]] = [None] * len(outcomes)

        tracer = self._tracer
        for group, group_result in zip(prepared.plan.groups, group_results):
            if isinstance(group_result, GroupExecution):
                # Worker-side execution: fold the counter delta (and trace
                # events) into the parent before unwrapping the entries.
                if group_result.counters:
                    self._stats.merge_counters(group_result.counters)
                if group_result.events and tracer is not None:
                    tracer.extend(group_result.events)
                group_result = group_result.entries
            if isinstance(group_result, TaskError):
                # Defensive: group runners isolate per-query errors, so this
                # only fires on unexpected failures (a dead worker process,
                # an unpicklable payload) — blame every query of the group
                # rather than dropping the batch.
                group_result = [
                    (planned.index, None, None, group_result.error, 0.0, False)
                    for planned in group.queries
                ]
            for position, answer, phases, exc, latency, reused in group_result:
                key, outcome_index = primaries[position]
                source, target, k = normalized[outcome_index]
                if exc is not None:
                    outcome = QueryOutcome(
                        source=source,
                        target=target,
                        k=k,
                        error=f"{type(exc).__name__}: {exc}",
                        reused_backward=reused,
                        latency_seconds=latency,
                    )
                else:
                    outcome = QueryOutcome(
                        source=source,
                        target=target,
                        k=k,
                        result=answer,
                        reused_backward=reused,
                        latency_seconds=latency,
                    )
                    phase_times[outcome_index] = phases
                    if use_cache and self._cache is not None:
                        self._cache.put(key, answer)
                outcomes[outcome_index] = outcome
                for duplicate_index in pending[key][1:]:
                    # Duplicates of a successful primary are served without
                    # recomputation (a hit); duplicates of a failed one
                    # repeat the error and must not inflate the hit rate.
                    outcomes[duplicate_index] = QueryOutcome(
                        source=source,
                        target=target,
                        k=k,
                        result=answer,
                        error=outcome.error,
                        cached=outcome.error is None,
                        reused_backward=reused,
                    )

        report = BatchReport(
            wall_seconds=time.perf_counter() - started,
            planned_groups=len(prepared.plan.groups),
            shared_groups=prepared.plan.num_shared_groups,
            reused_backward_passes=prepared.plan.reused_backward_passes,
        )
        for outcome, phases in zip(outcomes, phase_times):
            if outcome is None:
                continue
            report.outcomes.append(outcome)
            self._stats.record_query(
                outcome.latency_seconds,
                cached=outcome.cached,
                error=not outcome.ok,
                reused_backward=outcome.reused_backward,
                phases=phases,
            )
            if outcome.cached:
                report.cache_hits += 1
            if not outcome.ok:
                report.errors += 1
        self._stats.record_batch()
        return report

    def _run_group(self, graph: DiGraph, group: QueryGroup) -> GroupResult:
        """In-process group runner: pooled scratch, shared stats and tracer."""
        return _execute_group(
            graph, self._config, group, self._scratch.borrow, tracer=self._tracer
        )

    @staticmethod
    def _normalize(query: QueryLike) -> Tuple[Vertex, Vertex, int]:
        """Coerce one query-like object to an ``(s, t, k)`` integer tuple.

        Every field goes through :func:`coerce_query_field`, so a boolean or
        a non-integral float fails the query instead of naming another one.
        Raises :class:`QueryError` (never a bare ``ValueError``) so
        ``run_batch`` can isolate malformed queries per entry.
        """
        if isinstance(query, Query):
            fields = (query.source, query.target, query.k)
        elif isinstance(query, dict):
            try:
                fields = (query["source"], query["target"], query["k"])
            except KeyError as exc:
                raise QueryError(
                    f"query mapping needs source/target/k keys, got {sorted(query, key=str)}"
                ) from exc
        elif isinstance(query, (tuple, list)) and len(query) == 3:
            fields = query
        else:
            raise QueryError(
                "queries must be (source, target, k) triples, Query objects, or "
                f"mappings with source/target/k keys; got {query!r}"
            )
        source, target, k = fields
        try:
            return (
                coerce_query_field(source, "vertex id"),
                coerce_query_field(target, "vertex id"),
                coerce_query_field(k, "hop constraint k"),
            )
        except QueryError as exc:
            raise QueryError(f"non-integer query fields in {query!r}: {exc}") from exc

    @staticmethod
    def _raw_fields(query: QueryLike) -> Tuple[object, object, object]:
        """Best-effort ``(source, target, k)`` extraction for error outcomes."""
        if isinstance(query, Query):
            return (query.source, query.target, query.k)
        if isinstance(query, dict):
            return (query.get("source"), query.get("target"), query.get("k", 0))
        if isinstance(query, (tuple, list)) and len(query) == 3:
            return (query[0], query[1], query[2])
        return (None, None, 0)

    def __repr__(self) -> str:
        return (
            f"SPGEngine(graph={self._graph.name!r}, "
            f"vertices={self._graph.num_vertices}, edges={self._graph.num_edges}, "
            f"backend={self._backend_name!r}, "
            f"cache={'off' if self._cache is None else len(self._cache)})"
        )
