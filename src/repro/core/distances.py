"""Bounded shortest-distance computation (Section 3.3, Figure 6(a)).

Before propagating essential vertices, EVE needs the shortest distances
``dist(s, y)`` and ``dist(y, t)`` for every vertex ``y`` that can possibly
lie on a k-hop-constrained s-t path, i.e. every ``y`` with
``dist(s, y) + dist(y, t) <= k``.  Vertices outside this *candidate space*
may be ignored (their distance is treated as infinity), which is exactly
what the forward-looking pruning rule needs.

Three strategies are implemented, matching the ablation in Figure 11:

``single``
    Two independent breadth-first searches bounded by depth ``k`` (forward
    from ``s`` on ``G``, backward from ``t`` on ``G`` reversed).
``bidirectional``
    Classic balanced bi-directional BFS: forward to depth ``ceil(k/2)``,
    backward to depth ``floor(k/2)``, then each side is extended to depth
    ``k`` restricted to vertices already discovered by the other side.
``adaptive``
    Adaptive bi-directional search: at every step the side with the smaller
    frontier advances, until the two explored depths sum to ``k``; the same
    restricted extension then completes the candidate space.

All strategies return a :class:`DistanceIndex` whose distances are *exact*
for every candidate vertex; the restricted extension is correct because any
vertex on a shortest path to a candidate vertex is itself within the other
side's explored radius (see the proof sketch in the module tests).

Execution backend
-----------------
Since the CSR refactor, every search runs on the flat-array adjacency of
:meth:`repro.graph.digraph.DiGraph.csr` instead of list-of-list neighbour
walks, and visited bookkeeping uses one *marked* flat buffer instead of
per-query dicts: each search gets a fresh ``base``, a vertex ``v`` is
reached iff ``mark[v] >= base``, and its distance is ``mark[v] - base``.
Resetting between queries is a single integer addition rather than an
O(n) clear or a fresh allocation, and one list read answers both "reached?"
and "how far?".  The buffers live in a
:class:`DistanceScratch` that callers (every :meth:`repro.core.eve.EVE.query`,
via a pooled :class:`repro.core.eve.QueryScratch`) reuse across queries for
zero per-query allocation; a direct kernel call without a scratch creates a
private one.  Results are exposed through :class:`ArrayDistanceMap`, a
read-only ``Mapping`` view over the buffers, so the ``{vertex: distance}``
contract of the previous dict implementation — retained verbatim in
:mod:`repro.core.distances_reference` as the property-test oracle — is
unchanged for every consumer.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro._types import Vertex
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph

__all__ = [
    "DistanceIndex",
    "BackwardDistanceMap",
    "ArrayDistanceMap",
    "DistanceScratch",
    "compute_distance_index",
    "backward_distance_map",
    "bounded_bfs",
    "DISTANCE_STRATEGIES",
]

DISTANCE_STRATEGIES = ("single", "bidirectional", "adaptive")

_INF = float("inf")


# ----------------------------------------------------------------------
# Flat-buffer scratch and the dict-like view over it
# ----------------------------------------------------------------------
class ArrayDistanceMap(_MappingABC):
    """Read-only ``{vertex: distance}`` view over a marked flat buffer.

    A vertex is present exactly when ``mark[vertex] >= base``; its
    distance is then ``mark[vertex] - base``.  ``touched`` lists the present
    vertices in discovery (BFS level) order, which makes iteration and
    ``len`` O(reached) rather than O(n).  The class implements the full
    ``Mapping`` protocol (including ``==`` against plain dicts), so code
    written against the previous dict-based distance layer keeps working.

    Lifetime: a view built on a *shared* :class:`DistanceScratch` is only
    coherent until the scratch is reused for another query.  The engine
    confines scratch-backed views to a single query execution;
    :func:`backward_distance_map` always returns an owned view safe to
    retain (batch planners cache it across queries).
    """

    __slots__ = ("mark", "base", "touched")

    def __init__(self, mark: List[int], base: int, touched: List[Vertex]) -> None:
        self.mark = mark
        self.base = base
        self.touched = touched

    def get(self, vertex: Vertex, default=None):
        """Return the distance of ``vertex`` or ``default`` when unreached.

        Like ``dict.get``, any non-vertex key (wrong type, out of range)
        yields ``default`` instead of raising.
        """
        mark = self.mark
        try:
            if 0 <= vertex < len(mark) and mark[vertex] >= self.base:
                return mark[vertex] - self.base
        except TypeError:
            return default
        return default

    def __getitem__(self, vertex: Vertex) -> int:
        distance = self.get(vertex)
        if distance is None:
            raise KeyError(vertex)
        return distance

    def __contains__(self, vertex: object) -> bool:
        mark = self.mark
        return (
            isinstance(vertex, int)
            and 0 <= vertex < len(mark)
            and mark[vertex] >= self.base
        )

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.touched)

    def __len__(self) -> int:
        return len(self.touched)

    def items(self) -> List[Tuple[Vertex, int]]:
        """Return ``(vertex, distance)`` pairs in discovery order (fast path)."""
        mark, base = self.mark, self.base
        return [(v, mark[v] - base) for v in self.touched]

    def to_dict(self) -> dict:
        """Materialise a plain dict copy (detached from the scratch buffers)."""
        mark, base = self.mark, self.base
        return {v: mark[v] - base for v in self.touched}

    def __repr__(self) -> str:
        return f"ArrayDistanceMap(reached={len(self.touched)}, base={self.base})"


class _ScratchSide:
    """One reusable mark buffer and the base of its next search."""

    __slots__ = ("mark", "next_base")

    def __init__(self) -> None:
        self.mark: List[int] = []
        self.next_base = 1

    def begin(self, num_vertices: int, max_depth: int) -> Tuple[List[int], int]:
        """Start a search of at most ``max_depth`` hops; grow to fit the graph.

        The search marks its vertices in ``[base, base + max_depth]``, so
        the next search starts above that range and every older mark reads
        as unreached.
        """
        grow = num_vertices - len(self.mark)
        if grow > 0:
            self.mark.extend([0] * grow)
        base = self.next_base
        self.next_base = base + max(max_depth, 0) + 1
        return self.mark, base


class DistanceScratch:
    """Reusable flat buffers for one in-flight distance computation.

    Holds a forward and a backward :class:`_ScratchSide` (a bi-directional
    search needs both simultaneously).  A scratch must serve at most one
    query at a time, but may be reused for any number of *successive*
    queries — even across graphs of different sizes (buffers grow on
    demand) — without allocating: that is the zero-allocation serving path
    of :class:`repro.core.eve.ScratchPool`.
    """

    __slots__ = ("forward", "backward")

    def __init__(self) -> None:
        self.forward = _ScratchSide()
        self.backward = _ScratchSide()

    @property
    def capacity(self) -> int:
        """Number of vertices the buffers currently cover without growing."""
        return len(self.forward.mark)


@dataclass
class DistanceIndex:
    """Shortest distances from ``s`` and to ``t`` over the candidate space.

    Attributes
    ----------
    source, target, k:
        The query this index was built for.
    from_source:
        ``{vertex: dist(s, vertex)}`` — exact for every candidate vertex.
    to_target:
        ``{vertex: dist(vertex, t)}`` — exact for every candidate vertex.
    explored_vertices:
        Total number of vertex expansions performed (search-space size; used
        by the Figure 11 ablation report).
    strategy:
        Which strategy produced the index.

    Both distance maps satisfy the ``Mapping`` protocol.  The CSR kernels
    of this module build :class:`ArrayDistanceMap` views, and those are the
    only maps the flat kernels (:mod:`repro.core.essential`,
    :mod:`repro.core.labeling`) read: they test distances on the raw
    ``mark``/``base`` buffers.  The plain dicts that
    :mod:`repro.core.distances_reference` builds go to the reference
    kernels only.
    """

    source: Vertex
    target: Vertex
    k: int
    from_source: Mapping[Vertex, int] = field(default_factory=dict)
    to_target: Mapping[Vertex, int] = field(default_factory=dict)
    explored_vertices: int = 0
    strategy: str = "adaptive"

    # ------------------------------------------------------------------
    def dist_from_source(self, vertex: Vertex) -> float:
        """Return ``dist(s, vertex)`` or ``inf`` if unknown/out of space."""
        return self.from_source.get(vertex, _INF)

    def dist_to_target(self, vertex: Vertex) -> float:
        """Return ``dist(vertex, t)`` or ``inf`` if unknown/out of space."""
        return self.to_target.get(vertex, _INF)

    def in_candidate_space(self, vertex: Vertex) -> bool:
        """True when ``dist(s, v) + dist(v, t) <= k``."""
        return (
            self.dist_from_source(vertex) + self.dist_to_target(vertex) <= self.k
        )

    def candidate_vertices(self) -> Set[Vertex]:
        """Return all vertices in the candidate space."""
        return {
            v
            for v, d in self.from_source.items()
            if d + self.dist_to_target(v) <= self.k
        }

    def shortest_st_distance(self) -> float:
        """Return ``dist(s, t)`` (may be ``inf`` when t is unreachable in k)."""
        return self.dist_from_source(self.target)

    def size(self) -> int:
        """Number of stored distance entries (space accounting)."""
        return len(self.from_source) + len(self.to_target)

    def span_attributes(self) -> Dict[str, object]:
        """Trace attributes describing this index (distance-phase spans).

        O(1): reads only stored sizes, never walks the distance maps, so
        attaching these to a span costs nothing measurable.
        """
        return {
            "strategy": self.strategy,
            "index_size": self.size(),
            "explored_vertices": self.explored_vertices,
        }


# ----------------------------------------------------------------------
# CSR kernels
# ----------------------------------------------------------------------
def _expand_level(
    offsets,
    targets,
    frontier: List[Vertex],
    depth: int,
    mark: List[int],
    base: int,
    touched: List[Vertex],
) -> List[Vertex]:
    """Expand ``frontier`` by one hop, marking new vertices at ``depth``."""
    level = base + depth
    next_frontier: List[Vertex] = []
    push = next_frontier.append
    for vertex in frontier:
        for neighbor in targets[offsets[vertex]:offsets[vertex + 1]]:
            if mark[neighbor] < base:
                mark[neighbor] = level
                push(neighbor)
    touched.extend(next_frontier)
    return next_frontier


def _restricted_extension(
    offsets,
    targets,
    frontier: List[Vertex],
    start_depth: int,
    k: int,
    mark: List[int],
    base: int,
    omark: List[int],
    obase: int,
    touched: List[Vertex],
) -> int:
    """Extend a partially-explored side up to depth ``k``.

    Only vertices whose distance on the *other* side is known and compatible
    with the hop budget are added; this keeps the search inside the
    candidate space while preserving exact distances for candidates.
    Returns the number of vertex expansions performed.
    """
    explored = 0
    depth = start_depth
    current = frontier
    while current and depth < k:
        depth += 1
        level = base + depth
        # Admit ``w`` when the other side reached it within ``k - depth``.
        olimit = obase + k - depth
        next_frontier: List[Vertex] = []
        push = next_frontier.append
        for vertex in current:
            for neighbor in targets[offsets[vertex]:offsets[vertex + 1]]:
                if mark[neighbor] >= base:
                    continue
                if not obase <= omark[neighbor] <= olimit:
                    continue
                mark[neighbor] = level
                push(neighbor)
                explored += 1
        touched.extend(next_frontier)
        current = next_frontier
    return explored


# ----------------------------------------------------------------------
# Elementary bounded BFS
# ----------------------------------------------------------------------
def bounded_bfs(
    graph: DiGraph,
    source: Vertex,
    max_depth: int,
    reverse: bool = False,
    scratch_side: Optional[_ScratchSide] = None,
) -> ArrayDistanceMap:
    """Breadth-first search from ``source`` bounded by ``max_depth`` hops.

    ``reverse`` traverses in-edges instead of out-edges (the backward
    search from ``t``).  ``scratch_side`` optionally supplies reusable
    buffers; a private one is allocated when omitted.

    Returns a read-only :class:`ArrayDistanceMap` that behaves like a
    ``{vertex: depth}`` dict (including ``==`` against plain dicts).
    """
    offsets, targets = graph.csr_reverse() if reverse else graph.csr()
    side = scratch_side if scratch_side is not None else _ScratchSide()
    mark, base = side.begin(graph.num_vertices, max_depth)
    mark[source] = base
    touched = [source]
    frontier = [source]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        frontier = _expand_level(offsets, targets, frontier, depth, mark, base, touched)
    return ArrayDistanceMap(mark, base, touched)


# ----------------------------------------------------------------------
# Strategy drivers
# ----------------------------------------------------------------------
def _single_directional(
    graph: DiGraph, s: Vertex, t: Vertex, k: int, scratch: DistanceScratch
) -> DistanceIndex:
    forward = bounded_bfs(graph, s, k, reverse=False, scratch_side=scratch.forward)
    backward = bounded_bfs(graph, t, k, reverse=True, scratch_side=scratch.backward)
    return DistanceIndex(
        source=s,
        target=t,
        k=k,
        from_source=forward,
        to_target=backward,
        explored_vertices=len(forward) + len(backward),
        strategy="single",
    )


def _two_phase(
    graph: DiGraph,
    s: Vertex,
    t: Vertex,
    k: int,
    adaptive: bool,
    scratch: DistanceScratch,
) -> DistanceIndex:
    n = graph.num_vertices
    f_offsets, f_targets = graph.csr()
    b_offsets, b_targets = graph.csr_reverse()
    fmark, fbase = scratch.forward.begin(n, k)
    bmark, bbase = scratch.backward.begin(n, k)

    fmark[s] = fbase
    bmark[t] = bbase
    forward_touched = [s]
    backward_touched = [t]
    forward_frontier: List[Vertex] = [s]
    backward_frontier: List[Vertex] = [t]
    forward_depth = 0
    backward_depth = 0
    explored = 2

    if adaptive:
        # Advance the smaller frontier until the two depths cover k hops.
        while forward_depth + backward_depth < k:
            forward_alive = bool(forward_frontier)
            backward_alive = bool(backward_frontier)
            if not forward_alive and not backward_alive:
                break
            advance_forward = forward_alive and (
                not backward_alive
                or len(forward_frontier) <= len(backward_frontier)
            )
            if advance_forward:
                forward_depth += 1
                forward_frontier = _expand_level(
                    f_offsets, f_targets, forward_frontier, forward_depth,
                    fmark, fbase, forward_touched,
                )
                explored += len(forward_frontier)
            else:
                backward_depth += 1
                backward_frontier = _expand_level(
                    b_offsets, b_targets, backward_frontier, backward_depth,
                    bmark, bbase, backward_touched,
                )
                explored += len(backward_frontier)
    else:
        forward_budget = (k + 1) // 2
        backward_budget = k - forward_budget
        while forward_depth < forward_budget and forward_frontier:
            forward_depth += 1
            forward_frontier = _expand_level(
                f_offsets, f_targets, forward_frontier, forward_depth,
                fmark, fbase, forward_touched,
            )
            explored += len(forward_frontier)
        while backward_depth < backward_budget and backward_frontier:
            backward_depth += 1
            backward_frontier = _expand_level(
                b_offsets, b_targets, backward_frontier, backward_depth,
                bmark, bbase, backward_touched,
            )
            explored += len(backward_frontier)

    # Phase 2: restricted extension so every candidate vertex gets an exact
    # distance on both sides.
    explored += _restricted_extension(
        f_offsets, f_targets, forward_frontier, forward_depth, k,
        fmark, fbase, bmark, bbase, forward_touched,
    )
    explored += _restricted_extension(
        b_offsets, b_targets, backward_frontier, backward_depth, k,
        bmark, bbase, fmark, fbase, backward_touched,
    )
    return DistanceIndex(
        source=s,
        target=t,
        k=k,
        from_source=ArrayDistanceMap(fmark, fbase, forward_touched),
        to_target=ArrayDistanceMap(bmark, bbase, backward_touched),
        explored_vertices=explored,
        strategy="adaptive" if adaptive else "bidirectional",
    )


# ----------------------------------------------------------------------
# Shared backward passes (batch-query reuse)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackwardDistanceMap:
    """Reusable backward distances ``dist(·, t)`` for one ``(t, k)`` pair.

    The map holds the exact distance to ``t`` for *every* vertex within
    ``k`` hops of ``t`` (a full reverse BFS), independent of any source.
    A batch of queries sharing ``(t, k)`` therefore computes it once and
    hands it to :func:`compute_distance_index` for each member, replacing
    the per-query backward search entirely.  ``distances`` is the
    :class:`ArrayDistanceMap` of :func:`backward_distance_map`, whose
    buffers the restricted forward search reads directly.  Treat it as
    read-only — it is shared across queries and threads.  The map always
    owns its buffers (it is never built on pooled scratch), so retaining it
    across queries is safe.
    """

    target: Vertex
    k: int
    distances: Mapping[Vertex, int]

    def __len__(self) -> int:
        return len(self.distances)


def backward_distance_map(graph: DiGraph, target: Vertex, k: int) -> BackwardDistanceMap:
    """Compute the source-independent backward pass for ``(target, k)``."""
    graph.check_vertex(target)
    if k < 1:
        raise QueryError(f"hop constraint k must be >= 1, got {k}")
    return BackwardDistanceMap(
        target=target,
        k=k,
        distances=bounded_bfs(graph, target, k, reverse=True),
    )


def _from_shared_backward(
    graph: DiGraph,
    s: Vertex,
    t: Vertex,
    k: int,
    shared: BackwardDistanceMap,
    scratch: DistanceScratch,
) -> DistanceIndex:
    """Build a :class:`DistanceIndex` from a precomputed backward pass.

    The forward search is :func:`_restricted_extension` seeded at ``s``
    with depth 0, reading the shared map's buffers: a neighbour at depth
    ``d`` is kept only when ``d + dist(v, t) <= k``.  Every vertex
    admitted this way is a true candidate, and its restricted distance is
    exact because all vertices on a shortest ``s``-``v`` path of a candidate
    ``v`` are themselves candidates (the same argument as the restricted
    extension of bi-directional search), so the index satisfies the usual
    contract: exact distances on the whole candidate space.
    """
    offsets, targets = graph.csr()
    mark, base = scratch.forward.begin(graph.num_vertices, k)
    mark[s] = base
    touched = [s]
    backward = shared.distances
    _restricted_extension(
        offsets, targets, [s], 0, k, mark, base, backward.mark, backward.base, touched,
    )
    return DistanceIndex(
        source=s,
        target=t,
        k=k,
        from_source=ArrayDistanceMap(mark, base, touched),
        to_target=backward,
        explored_vertices=len(touched),
        strategy="shared-backward",
    )


def compute_distance_index(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    strategy: str = "adaptive",
    shared_backward: Optional[BackwardDistanceMap] = None,
    scratch: Optional[DistanceScratch] = None,
) -> DistanceIndex:
    """Compute the :class:`DistanceIndex` for a query ``<s, t, k>``.

    ``strategy`` must be one of :data:`DISTANCE_STRATEGIES`.  When
    ``shared_backward`` (a :func:`backward_distance_map` for the same target
    with hop budget ``>= k``) is given, the backward search is skipped
    entirely and only a restricted forward search runs; ``strategy`` is then
    ignored.  This is the batch-query reuse hook used by
    :class:`repro.service.SPGEngine`.

    ``scratch`` optionally supplies reusable flat buffers (see
    :class:`DistanceScratch`); the returned index then borrows those buffers
    and is only coherent until the scratch serves its next query.  Without
    ``scratch``, the index owns freshly allocated buffers.
    """
    graph.check_vertex(source)
    graph.check_vertex(target)
    if k < 1:
        raise QueryError(f"hop constraint k must be >= 1, got {k}")
    if source == target:
        raise QueryError("source and target must be distinct vertices")
    if strategy not in DISTANCE_STRATEGIES:
        raise QueryError(
            f"unknown distance strategy {strategy!r}; expected one of {DISTANCE_STRATEGIES}"
        )
    if scratch is None:
        scratch = DistanceScratch()
    if shared_backward is not None:
        if shared_backward.target != target:
            raise QueryError(
                f"shared backward pass was built for target {shared_backward.target}, "
                f"query targets {target}"
            )
        if shared_backward.k < k:
            raise QueryError(
                f"shared backward pass covers k={shared_backward.k} hops, "
                f"query needs k={k}"
            )
        return _from_shared_backward(graph, source, target, k, shared_backward, scratch)
    if strategy == "single":
        return _single_directional(graph, source, target, k, scratch)
    return _two_phase(graph, source, target, k, adaptive=(strategy == "adaptive"), scratch=scratch)
