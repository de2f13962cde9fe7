"""Essential-vertex computation (Section 3) on flat CSR buffers.

Essential vertices ``EV*_l(s, u)`` are the vertices shared by *all* simple
paths from ``s`` to ``u`` of length at most ``l`` that avoid ``t``
(Definition 3.1).  Theorem 3.5 shows that intersecting over *all* paths
(not only simple ones) yields the same sets, which enables the propagating
computation of Algorithm 1: essential vertices flow level by level along
edges, with set intersection at every merge.

Execution backend
-----------------
Like the distance kernels of :mod:`repro.core.distances`, propagation now
runs on the cached flat-array adjacency of
:meth:`repro.graph.digraph.DiGraph.csr` / ``csr_reverse()`` instead of
list-of-list neighbour walks, and all per-vertex bookkeeping lives in flat
arrays indexed by CSR vertex id instead of dicts:

* **EV sets are sorted int tuples.**  An ``EV*_l`` set has at most ``l + 1``
  elements (it is a subset of any single path of length ``<= l``), so each
  stored set is a small sorted array of vertex ids.  Sorted storage makes
  set equality a tuple compare and gives the labelling phase a canonical
  order to build its intersection bitsets from (see
  :mod:`repro.core.labeling`).
* **Per-vertex entries in flat lists.**  ``levels[v]`` / ``sets[v]`` are
  slots indexed by vertex id (the paper's "only store the first one"
  sparse-per-level scheme, without the dict around it), holding a
  vertex's entry tuples once it is reached and ``None`` otherwise.
* **Epoch-stamped level merges.**  The per-level ``updates`` dict of the
  reference implementation is replaced by an epoch-stamped working-set
  array: a vertex's in-flight set for the current level is valid iff
  ``work_stamp[v] == work_epoch``, so starting a new level is one integer
  increment and no per-level dict is ever built.
* **Reusable scratch.**  All of the above lives in an
  :class:`EssentialScratch` that callers (every :meth:`repro.core.eve.EVE.query`,
  via a pooled :class:`repro.core.eve.QueryScratch`) reuse across queries
  for zero per-query O(num_vertices) allocation; a direct kernel call
  without a scratch creates a private one.  Each new query first frees
  the previous query's entries, walking only the vertices it reached
  (O(previously reached), never the whole buffer), and each level returns
  its merge sets to a spare list once consumed, so a long-lived scratch
  holds one query's entries at most.

The previous dict/frozenset implementation is retained verbatim in
:mod:`repro.core.essential_reference` as the property-test oracle and
benchmark baseline; the differential harness in
``tests/test_flat_propagation.py`` holds the two answer-identical on
randomized graphs across ``k``, prune settings and distance strategies.

Algorithmic notes (shared with the reference implementation)
------------------------------------------------------------
* **Inheritance fix.**  Algorithm 1 as printed intersects the level-``l``
  set of a vertex only with contributions arriving from the current
  frontier.  When a vertex already holds a level-``(l-1)`` set and receives
  a new contribution at level ``l``, the new set must also be intersected
  with the inherited value, otherwise essential vertices learned through an
  earlier (shorter) path are lost and edges can be misclassified.  The
  incremental recurrence implemented here is::

      EV_l(s, y) = EV_{l-1}(s, y)  ∩  ⋂_{x ∈ frontier ∩ In(y)} (EV_{l-1}(s, x) ∪ {y})

  which equals Equation (4) because the contribution of every in-neighbour
  that did not change at level ``l-1`` is already folded into
  ``EV_{l-1}(s, y)`` (see the property tests for an executable proof).
* **Delta frontiers.**  A vertex joins the next frontier only when its set
  changed (or it was newly reached); unchanged vertices cannot affect any
  downstream set, which keeps the propagation close to ``O(k^2 |E|)``.
* **Forward-looking pruning (Theorem 3.6).**  With ``prune=True`` a vertex
  ``y`` is only expanded at level ``l`` when ``l + dist(y, t) <= k``; such
  sets can never help Theorem 3.4 conclude anything, and — because once the
  inequality fails it fails for all larger ``l`` — skipping them can never
  corrupt a set that *is* needed.  The distance test reads the
  :class:`~repro.core.distances.ArrayDistanceMap` buffers directly (one
  stamp compare + one array read per neighbour) instead of a method call.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro._types import Vertex
from repro.core.distances import ArrayDistanceMap, DistanceIndex
from repro.core.space import SpaceMeter
from repro.graph.digraph import DiGraph

__all__ = [
    "EssentialScratch",
    "EssentialVertexIndex",
    "propagate_forward",
    "propagate_backward",
]


class _EssentialSide:
    """Reusable flat buffers for one propagation direction.

    ``levels[v]`` / ``sets[v]`` hold the recorded ``(level, sorted tuple)``
    entries of vertex ``v`` as tuples, exactly for the vertices in
    ``touched`` (the current query's vertices in first-recorded order), and
    ``None`` for every other vertex.  ``work[v]`` is ``v``'s merge set
    while a level is in flight, valid iff ``work_stamp[v] == work_epoch``,
    so starting a level is one increment; each level hands its merge sets
    back to ``spare`` once consumed.

    Tuples and recycled sets keep the per-query churn of garbage-collected
    containers low: a fresh list or set per reached vertex survives into
    the collector's oldest generation and triggers full collections (on a
    20k-vertex, degree-8 engine workload, twice the full-collection time).
    """

    __slots__ = ("levels", "sets", "touched", "work", "work_stamp", "work_epoch", "spare")

    def __init__(self) -> None:
        self.levels: List[Optional[Tuple[int, ...]]] = []
        self.sets: List[Optional[Tuple[Tuple[Vertex, ...], ...]]] = []
        self.touched: List[Vertex] = []
        self.work: List[Optional[Set[Vertex]]] = []
        self.work_stamp: List[int] = []
        self.work_epoch = 0
        self.spare: List[Set[Vertex]] = []

    def begin(self, num_vertices: int) -> None:
        """Start a new propagation: free the previous query's entries, grow.

        Freeing walks the previous ``touched`` list (O(previously reached)),
        so a long-lived scratch holds one query's entries, never the union
        of every query it served.  Growth (first use, or a larger graph)
        extends the arrays in place, so steady-state reuse allocates no
        O(num_vertices) storage.
        """
        levels, sets = self.levels, self.sets
        for vertex in self.touched:
            levels[vertex] = sets[vertex] = None
        self.touched.clear()
        grow = num_vertices - len(levels)
        if grow > 0:
            levels.extend([None] * grow)
            sets.extend([None] * grow)
            self.work.extend([None] * grow)
            self.work_stamp.extend([0] * grow)


class EssentialScratch:
    """Reusable flat buffers for one in-flight propagation pair.

    Holds a forward and a backward :class:`_EssentialSide` (one EVE query
    propagates in both directions).  Like
    :class:`~repro.core.distances.DistanceScratch`, a scratch must serve at
    most one query at a time but may be reused for any number of
    *successive* queries — even across graphs of different sizes (buffers
    grow on demand) — without allocating O(num_vertices) storage; a query
    allocates entries only for the vertices it reaches, and the next query
    frees them.  Indexes built on a scratch are only coherent until the
    scratch serves its next query.
    """

    __slots__ = ("forward", "backward")

    def __init__(self) -> None:
        self.forward = _EssentialSide()
        self.backward = _EssentialSide()

    @property
    def capacity(self) -> int:
        """Number of vertices the buffers currently cover without growing."""
        return len(self.forward.levels)


class EssentialVertexIndex:
    """Essential-vertex sets for one direction (from ``s`` or to ``t``).

    The index maps a vertex and a level ``l`` to ``EV*_l`` for that vertex,
    or ``None`` when the set *does not exist* (no simple path of length
    ``<= l`` avoiding the excluded endpoint reaches the vertex).

    Storage is borrowed from an :class:`_EssentialSide`: ``_levels[v]`` is
    the sorted tuple of recorded levels of vertex ``v`` (``None`` when ``v``
    was not reached) and ``_sets[v]`` the parallel tuple of sorted int
    tuples, coherent until the side serves its next query.  :meth:`get` /
    :meth:`latest` return frozensets for API compatibility with the
    retained reference implementation (and set-algebra-friendly test
    assertions); the hot labelling path reads the raw tuples through the
    underscore fields instead.
    """

    __slots__ = ("anchor", "excluded", "k", "direction", "_levels", "_sets", "_touched", "_n")

    def __init__(
        self,
        anchor: Vertex,
        excluded: Vertex,
        k: int,
        direction: str,
        side: "_EssentialSide",
        num_vertices: int,
    ) -> None:
        self.anchor = anchor
        self.excluded = excluded
        self.k = k
        self.direction = direction
        self._levels = side.levels
        self._sets = side.sets
        self._touched = side.touched
        self._n = num_vertices

    # ------------------------------------------------------------------
    def get(self, vertex: Vertex, level: int) -> Optional[FrozenSet[Vertex]]:
        """Return ``EV*_level`` for ``vertex`` or ``None`` if it does not exist."""
        if not 0 <= vertex < self._n:
            return None
        levels = self._levels[vertex]
        if not levels or levels[0] > level:
            return None
        return frozenset(self._sets[vertex][bisect_right(levels, level) - 1])

    def latest(self, vertex: Vertex) -> Optional[FrozenSet[Vertex]]:
        """Return the most recently stored set for ``vertex`` (any level)."""
        if not 0 <= vertex < self._n:
            return None
        sets = self._sets[vertex]
        if not sets:
            return None
        return frozenset(sets[-1])

    def exists(self, vertex: Vertex, level: int) -> bool:
        """True when ``EV*_level`` exists for ``vertex`` (no allocation)."""
        if not 0 <= vertex < self._n:
            return False
        levels = self._levels[vertex]
        return bool(levels) and levels[0] <= level

    def first_level(self, vertex: Vertex) -> Optional[int]:
        """Smallest level at which the vertex was reached (its distance)."""
        if not 0 <= vertex < self._n:
            return None
        levels = self._levels[vertex]
        if not levels:
            return None
        return levels[0]

    def reached_vertices(self) -> Sequence[Vertex]:
        """Vertices with at least one stored set (first-reached order)."""
        return list(self._touched)

    # ------------------------------------------------------------------
    def stored_entries(self) -> int:
        """Number of ``(vertex, level)`` entries stored (space accounting)."""
        levels = self._levels
        return sum(len(levels[vertex]) for vertex in self._touched)

    def stored_items(self) -> int:
        """Total number of vertex ids stored across all sets."""
        sets = self._sets
        return sum(len(s) for vertex in self._touched for s in sets[vertex])

    def span_attributes(self) -> Dict[str, object]:
        """Trace attributes describing this index (propagation-phase spans).

        ``reached`` is O(1); ``entries`` walks the touched list once —
        cheap relative to the propagation that produced it.
        """
        return {
            f"{self.direction}_reached": len(self._touched),
            f"{self.direction}_entries": self.stored_entries(),
        }

    def __repr__(self) -> str:
        return (
            f"EssentialVertexIndex(direction={self.direction!r}, anchor={self.anchor}, "
            f"vertices={len(self._touched)}, entries={self.stored_entries()})"
        )


def _propagate(
    graph: DiGraph,
    anchor: Vertex,
    excluded: Vertex,
    k: int,
    reverse: bool,
    direction: str,
    distance_to_other: Optional[Mapping[Vertex, int]],
    prune: bool,
    space: Optional[SpaceMeter],
    side: Optional[_EssentialSide],
) -> EssentialVertexIndex:
    """Shared propagation loop for both directions (CSR flat-buffer kernel).

    ``reverse=False`` walks the forward CSR (propagation from ``s``);
    ``reverse=True`` walks the reverse CSR (propagation from ``t``).
    ``distance_to_other`` holds the pruning distances: ``dist(y, t)`` for the
    forward pass and ``dist(s, y)`` for the backward pass.  ``side``
    supplies reusable buffers; a private one is created when omitted.
    """
    offsets, targets = graph.csr_reverse() if reverse else graph.csr()
    num_vertices = graph.num_vertices
    if side is None:
        side = _EssentialSide()
    side.begin(num_vertices)
    levels = side.levels
    sets = side.sets
    touched = side.touched

    touched.append(anchor)
    levels[anchor] = (0,)
    sets[anchor] = ((anchor,),)
    index = EssentialVertexIndex(anchor, excluded, k, direction, side, num_vertices)

    # Pruning access: raw buffer reads for array-backed maps, ``.get`` for
    # anything else (e.g. the reference implementation's plain dicts).
    array_pruning = False
    distance_get = None
    if prune and distance_to_other is not None:
        if isinstance(distance_to_other, ArrayDistanceMap):
            array_pruning = True
            other_mark = distance_to_other.mark
            other_base = distance_to_other.base
        else:
            distance_get = distance_to_other.get

    work = side.work
    work_stamp = side.work_stamp
    spare = side.spare
    category = f"ev-{direction}"
    frontier: List[Vertex] = [anchor]
    for level in range(1, k):
        side.work_epoch += 1
        epoch = side.work_epoch
        # Array pruning keeps ``y`` when the other side reached it within
        # ``k - level`` hops: one mark range.
        other_limit = other_base + k - level if array_pruning else 0
        updated: List[Vertex] = []
        for x in frontier:
            base = sets[x][-1]
            for y in targets[offsets[x]:offsets[x + 1]]:
                if y == anchor or y == excluded:
                    continue
                if array_pruning:
                    if not other_base <= other_mark[y] <= other_limit:
                        continue
                elif distance_get is not None:
                    other = distance_get(y)
                    if other is None or level + other > k:
                        continue
                if work_stamp[y] != epoch:
                    work_stamp[y] = epoch
                    merged = spare.pop() if spare else set()
                    merged.update(base)
                    merged.add(y)
                    work[y] = merged
                    updated.append(y)
                else:
                    merged = work[y]
                    merged.intersection_update(base)
                    merged.add(y)
        if not updated:
            break
        next_frontier: List[Vertex] = []
        for y in updated:
            merged = work[y]
            work[y] = None
            entry_levels = levels[y]
            if entry_levels is None:
                touched.append(y)
                frozen = tuple(sorted(merged))
                levels[y] = (level,)
                sets[y] = (frozen,)
            else:
                entry_sets = sets[y]
                previous = entry_sets[-1]
                merged.intersection_update(previous)
                merged.add(y)
                # ``merged`` ⊆ ``previous`` here (every stored set of ``y``
                # contains ``y``), so equal sizes means equal sets — and an
                # unchanged set cannot affect anything downstream.
                if len(merged) == len(previous):
                    merged.clear()
                    spare.append(merged)
                    continue
                frozen = tuple(sorted(merged))
                levels[y] = entry_levels + (level,)
                sets[y] = entry_sets + (frozen,)
            merged.clear()
            spare.append(merged)
            next_frontier.append(y)
            if space is not None:
                space.allocate(len(frozen), category=category)
        frontier = next_frontier
        if not frontier:
            break
    return index


def propagate_forward(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    distances: Optional[DistanceIndex] = None,
    prune: bool = True,
    space: Optional[SpaceMeter] = None,
    scratch: Optional[EssentialScratch] = None,
) -> EssentialVertexIndex:
    """Forward propagation of ``EV*_l(s, ·)`` for ``1 <= l < k`` (Algorithm 1).

    ``scratch`` optionally supplies reusable flat buffers (see
    :class:`EssentialScratch`); the returned index then borrows those
    buffers and is only coherent until the scratch serves its next query.
    """
    distance_to_target = distances.to_target if distances is not None else None
    return _propagate(
        graph,
        anchor=source,
        excluded=target,
        k=k,
        reverse=False,
        direction="forward",
        distance_to_other=distance_to_target,
        prune=prune,
        space=space,
        side=scratch.forward if scratch is not None else None,
    )


def propagate_backward(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    distances: Optional[DistanceIndex] = None,
    prune: bool = True,
    space: Optional[SpaceMeter] = None,
    scratch: Optional[EssentialScratch] = None,
) -> EssentialVertexIndex:
    """Backward propagation of ``EV*_l(·, t)`` on the reverse CSR view."""
    distance_from_source = distances.from_source if distances is not None else None
    return _propagate(
        graph,
        anchor=target,
        excluded=source,
        k=k,
        reverse=True,
        direction="backward",
        distance_to_other=distance_from_source,
        prune=prune,
        space=space,
        side=scratch.backward if scratch is not None else None,
    )
