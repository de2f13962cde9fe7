"""Verification of undetermined edges (Section 5) on flat CSR slices.

For hop constraints ``k >= 5`` the upper-bound graph may contain edges whose
membership in ``SPG_k(s, t)`` is still unknown.  Theorem 5.6 reduces the
check for an undetermined edge ``e(u, v)`` to finding a simple path ``q*``
of length at most ``k - 4`` that

* passes through ``e(u, v)``,
* starts at a *departure* vertex and ends at an *arrival* vertex, and
* can be extended by a valid in-neighbour of the departure and a valid
  out-neighbour of the arrival (plus ``s`` and ``t``) without repeating a
  vertex.

Algorithm 3 searches for ``q*`` with an interleaved forward/backward search
restricted to the upper-bound graph.  Every edge on a successful stack is a
confirmed member of ``SPG_k``, so one successful search can settle several
undetermined edges at once.

Execution backend
-----------------
Like the distance, propagation and labelling phases before it
(:mod:`repro.core.distances`, :mod:`repro.core.essential`,
:mod:`repro.core.labeling`), the search runs on flat buffers instead of
dict adjacency and Python recursion:

* **CSR slices of the upper-bound graph.**  :func:`prepare_verification`
  materialises ``UpperBoundGraph.out_adjacency`` / ``in_adjacency`` into
  compact start/end + target arrays (forward and reverse), valid for the
  current query iff ``adj_stamp[v] == adj_epoch`` — no per-query dict
  walks inside the search.
* **Explicit frame stack.**  The recursive ``forward``/``backward``
  closures of the reference implementation are a single iteration loop
  over reusable frame arrays (mode, vertex, resume state, adjacency
  cursor), with epoch-stamped on-stack marks instead of a rebuilt
  ``set`` per edge — no per-edge set rebuilds and no recursion-limit
  exposure.
* **Precomputed-key search ordering.**  The Section 5.3 ordering
  (:meth:`PreparedVerification.apply_search_ordering`) runs a multi-source
  BFS over the flat slices and computes one sort key per vertex —
  ascending distance to the closest arrival for out-neighbours (arrivals
  first, larger ``|Out_A|`` first, vertex id as the final deterministic
  tie-break) and ascending distance from the closest departure for
  in-neighbours — then sorts each slice by those keys, instead of two
  dict lookups per comparison.
* **Reusable scratch.**  All buffers live in a :class:`VerificationScratch`
  that callers (every :meth:`repro.core.eve.EVE.query`, via a pooled
  :class:`repro.core.eve.QueryScratch`) reuse across queries for zero
  per-query verification allocation; a direct kernel call without a
  scratch creates a private one.

The previous dict/recursive implementation is retained in
:mod:`repro.core.verification_reference` as the property-test oracle and
benchmark baseline; ``tests/test_flat_verification.py`` holds the two
confirmed-edge-set identical on randomized graphs across ``k``, strategies
and every executor backend.  The dict-level ordering
(:func:`~repro.core.verification_reference.order_adjacency_reference`)
lives there too; the flat kernel inherits the adjacency order it is given
when built without its own ordering pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro._types import Edge, Vertex
from repro.core.labeling import UpperBoundGraph
from repro.core.space import SpaceMeter

__all__ = [
    "VerificationStats",
    "VerificationScratch",
    "PreparedVerification",
    "prepare_verification",
    "verify_undetermined_edges",
]


@dataclass
class VerificationStats:
    """Work counters for one Algorithm 3 run (the verification phase).

    ROADMAP flags verification as the dominant phase for large ``k``; these
    counters make the bottleneck measurable per query instead of inferable
    from wall-clock alone.

    Attributes
    ----------
    edges_checked:
        Undetermined edges for which a search was actually launched (edges
        already confirmed by an earlier successful stack are skipped).
    edges_confirmed:
        Undetermined edges that ended up in the answer, counted as stacks
        commit (not recounted afterwards).
    expansions:
        Vertex expansions across both search directions — the unit of
        verification work.  Counted for the search actually run: the flat
        kernel's distance-bound pruning cuts dead branches the reference
        implementation still walks, so this can be lower than the oracle's
        count at an identical confirmed set.
    """

    edges_checked: int = 0
    edges_confirmed: int = 0
    expansions: int = 0

    def span_attributes(self) -> Dict[str, object]:
        """Trace attributes for the verification-phase span."""
        return {
            "edges_checked": self.edges_checked,
            "edges_confirmed": self.edges_confirmed,
            "expansions": self.expansions,
        }


# Frame modes of the explicit search stack.  Root frames (the seed of each
# direction) own no pushed edge and no on-stack mark of their own, so popping
# them releases nothing; ``mode < 2`` selects the forward direction.
_FORWARD_ROOT = 0
_FORWARD = 1
_BACKWARD_ROOT = 2
_BACKWARD = 3


class VerificationScratch:
    """Reusable flat buffers for the verification phase of one query.

    Same discipline as :class:`~repro.core.distances.DistanceScratch` and
    :class:`~repro.core.essential.EssentialScratch`: every array is indexed
    by vertex id, validity is an epoch stamp (``adj_stamp[v] == adj_epoch``
    for the CSR slices, ``stack_stamp[v] == stack_epoch`` for the on-stack
    marks, one epoch bump per undetermined edge), and starting a new query
    grows the arrays in place at most once — steady-state reuse allocates
    nothing.  A scratch must not be shared by concurrent queries.
    """

    __slots__ = (
        # CSR slices of the current upper-bound graph (valid per adj_epoch).
        "adj_epoch",
        "adj_stamp",
        "touched",
        "out_start",
        "out_end",
        "in_start",
        "in_end",
        "out_targets",
        "in_targets",
        # Section 5.3 ordering: per-vertex sort keys + the two multi-source
        # BFS results (distance to the closest arrival / from the closest
        # departure), retained for search pruning.
        "out_rank",
        "in_rank",
        "bfs_epoch",
        "arr_stamp",
        "arr_dist",
        "dep_stamp",
        "dep_dist",
        "frontier",
        # Explicit search stack: on-stack marks, frames, committed-edge stack.
        "stack_epoch",
        "stack_stamp",
        "frame_mode",
        "frame_vertex",
        "frame_cursor",
        "frame_end",
        "edge_tail",
        "edge_head",
    )

    def __init__(self) -> None:
        self.adj_epoch = 0
        self.adj_stamp: List[int] = []
        self.touched: List[Vertex] = []
        self.out_start: List[int] = []
        self.out_end: List[int] = []
        self.in_start: List[int] = []
        self.in_end: List[int] = []
        self.out_targets: List[int] = []
        self.in_targets: List[int] = []
        self.out_rank: List[int] = []
        self.in_rank: List[int] = []
        self.bfs_epoch = 0
        self.arr_stamp: List[int] = []
        self.arr_dist: List[int] = []
        self.dep_stamp: List[int] = []
        self.dep_dist: List[int] = []
        self.frontier: List[int] = []
        self.stack_epoch = 0
        self.stack_stamp: List[int] = []
        self.frame_mode: List[int] = []
        self.frame_vertex: List[int] = []
        self.frame_cursor: List[int] = []
        self.frame_end: List[int] = []
        self.edge_tail: List[int] = []
        self.edge_head: List[int] = []

    @property
    def capacity(self) -> int:
        """Number of vertex slots the per-vertex buffers currently cover."""
        return len(self.adj_stamp)

    def begin(self, num_vertices: int, max_depth: int) -> None:
        """Start a new query: invalidate previous slices, grow to fit.

        Invalidation is the epoch bump; growth (first use, or a larger
        graph) extends the arrays in place, so steady-state reuse allocates
        nothing.  ``max_depth`` bounds the edge stack (``k - 4`` internal
        hops plus the checked edge), which sizes the frame arrays.
        """
        self.touched.clear()
        self.adj_epoch += 1
        grow = num_vertices - len(self.adj_stamp)
        if grow > 0:
            self.adj_stamp.extend([0] * grow)
            self.out_start.extend([0] * grow)
            self.out_end.extend([0] * grow)
            self.in_start.extend([0] * grow)
            self.in_end.extend([0] * grow)
            self.out_rank.extend([0] * grow)
            self.in_rank.extend([0] * grow)
            self.arr_stamp.extend([0] * grow)
            self.arr_dist.extend([0] * grow)
            self.dep_stamp.extend([0] * grow)
            self.dep_dist.extend([0] * grow)
            self.stack_stamp.extend([0] * grow)
        frames = 2 * max_depth + 4
        grow = frames - len(self.frame_mode)
        if grow > 0:
            self.frame_mode.extend([0] * grow)
            self.frame_vertex.extend([0] * grow)
            self.frame_cursor.extend([0] * grow)
            self.frame_end.extend([0] * grow)
        grow = (max_depth + 2) - len(self.edge_tail)
        if grow > 0:
            self.edge_tail.extend([0] * grow)
            self.edge_head.extend([0] * grow)



class PreparedVerification:
    """One query's upper-bound graph, materialised into scratch slices.

    Built by :func:`prepare_verification`; :meth:`apply_search_ordering`
    optionally sorts the slices per Section 5.3, :meth:`verify` runs the
    explicit-stack search.  The object only borrows the scratch — it is
    invalidated by the next :func:`prepare_verification` on the same
    scratch.
    """

    __slots__ = (
        "upper",
        "scratch",
        "active",
        "scanning",
        "limit",
        "arr_epoch",
        "dep_epoch",
    )

    def __init__(
        self, upper: UpperBoundGraph, scratch: VerificationScratch
    ) -> None:
        self.upper = upper
        self.scratch = scratch
        self.active = upper.k >= 5 and bool(upper.undetermined_edges)
        # With k == 5 the hop budget is one edge — the checked edge itself —
        # so the search never scans adjacency: every undetermined edge is
        # settled by the frame-free endpoint test alone, and neither the CSR
        # slices nor the Section 5.3 ordering can influence the answer.
        self.scanning = self.active and upper.k >= 6
        self.limit = 0
        # Epochs under which the to-arrival / from-departure BFS distances
        # are valid; 0 until apply_search_ordering() computes them.
        self.arr_epoch = 0
        self.dep_epoch = 0
        if self.active:
            self._materialize()

    # ------------------------------------------------------------------
    def _materialize(self) -> None:
        """Build the forward and reverse CSR slices of the upper bound."""
        upper = self.upper
        scratch = self.scratch
        out_adjacency = upper.out_adjacency
        in_adjacency = upper.in_adjacency
        limit = max(upper.source, upper.target)
        for vertex in out_adjacency:
            if vertex > limit:
                limit = vertex
        for vertex in in_adjacency:
            if vertex > limit:
                limit = vertex
        limit += 1
        self.limit = limit
        scratch.begin(limit, max(1, upper.k - 4) + 1)
        if not self.scanning:
            # k == 5: the search reads only the on-stack marks (sized by
            # ``begin``), never the slices — skip the adjacency copy.
            return

        stamp = scratch.adj_stamp
        epoch = scratch.adj_epoch
        touched = scratch.touched
        out_start, out_end = scratch.out_start, scratch.out_end
        in_start, in_end = scratch.in_start, scratch.in_end

        # Copy each adjacency list into the flat target buffer with one
        # slice assignment (a C-level copy) instead of per-element writes.
        targets = scratch.out_targets
        capacity = len(targets)
        position = 0
        for vertex, neighbors in out_adjacency.items():
            if stamp[vertex] != epoch:
                stamp[vertex] = epoch
                touched.append(vertex)
                in_start[vertex] = in_end[vertex] = 0
            out_start[vertex] = position
            stop = position + len(neighbors)
            if stop > capacity:
                targets.extend([0] * (stop - capacity))
                capacity = stop
            targets[position:stop] = neighbors
            out_end[vertex] = stop
            position = stop

        targets = scratch.in_targets
        capacity = len(targets)
        position = 0
        for vertex, neighbors in in_adjacency.items():
            if stamp[vertex] != epoch:
                stamp[vertex] = epoch
                touched.append(vertex)
                out_start[vertex] = out_end[vertex] = 0
            in_start[vertex] = position
            stop = position + len(neighbors)
            if stop > capacity:
                targets.extend([0] * (stop - capacity))
                capacity = stop
            targets[position:stop] = neighbors
            in_end[vertex] = stop
            position = stop

    # ------------------------------------------------------------------
    def _flat_bfs(
        self,
        sources: Iterable[Vertex],
        start: List[int],
        end: List[int],
        targets: List[int],
        stamp: List[int],
        dist: List[int],
    ) -> int:
        """Multi-source BFS over one slice direction; returns the epoch used.

        Distances land in ``dist``, valid under the returned epoch of
        ``stamp``.
        """
        scratch = self.scratch
        scratch.bfs_epoch += 1
        epoch = scratch.bfs_epoch
        adj_stamp = scratch.adj_stamp
        adj_epoch = scratch.adj_epoch
        queue = scratch.frontier
        limit = self.limit
        size = 0
        for vertex in sources:
            if vertex < limit and stamp[vertex] != epoch:
                stamp[vertex] = epoch
                dist[vertex] = 0
                if size < len(queue):
                    queue[size] = vertex
                else:
                    queue.append(vertex)
                size += 1
        head = 0
        while head < size:
            vertex = queue[head]
            head += 1
            if adj_stamp[vertex] != adj_epoch:
                continue
            depth = dist[vertex] + 1
            for neighbor in targets[start[vertex] : end[vertex]]:
                if stamp[neighbor] != epoch:
                    stamp[neighbor] = epoch
                    dist[neighbor] = depth
                    if size < len(queue):
                        queue[size] = neighbor
                    else:
                        queue.append(neighbor)
                    size += 1
        return epoch

    def apply_search_ordering(self) -> None:
        """Sort the slices per Section 5.3 with one precomputed key per vertex.

        Same keys as
        :func:`~repro.core.verification_reference.order_adjacency_reference`
        (ascending distance to the closest arrival / from the closest
        departure, boundary-set size and vertex id as tie-breaks), computed
        once per vertex from a multi-source BFS over the flat slices — never
        per comparison.
        No-op when there is nothing to verify, and likewise for ``k == 5``
        (the search never scans adjacency, so no slices were materialised
        and no ordering could matter).
        """
        if not self.scanning:
            return
        upper = self.upper
        scratch = self.scratch
        arrivals = upper.arrivals
        departures = upper.departures
        out_start, out_end = scratch.out_start, scratch.out_end
        in_start, in_end = scratch.in_start, scratch.in_end
        out_targets, in_targets = scratch.out_targets, scratch.in_targets
        infinity = self.limit + 1

        # The (distance, boundary-size tie-break, vertex) key is packed into
        # one int with the vertex id in the low bits, so slices sort as plain
        # int lists (no key callable, no tuple comparisons) and the sorted
        # keys decode back to vertex ids with a mask.  ``tie_cap`` bounds the
        # boundary-set sizes so the negated-size tie-break packs as
        # ``tie_cap - size`` without underflowing into the distance field.
        shift = self.limit.bit_length()
        vertex_mask = (1 << shift) - 1
        tie_cap = 1
        for boundary in arrivals.values():
            if len(boundary) >= tie_cap:
                tie_cap = len(boundary) + 1
        for boundary in departures.values():
            if len(boundary) >= tie_cap:
                tie_cap = len(boundary) + 1
        stride = tie_cap + 1

        out_rank, in_rank = scratch.out_rank, scratch.in_rank
        # Distance *to* the closest arrival along forward edges equals a BFS
        # from all arrivals over the reverse slices, and vice versa.  Both
        # results are retained (stamp/dist pairs + their epochs) so
        # :meth:`verify` can prune pushes that cannot commit within budget.
        stamp = scratch.arr_stamp
        dist = scratch.arr_dist
        epoch = self._flat_bfs(
            arrivals.keys(), in_start, in_end, in_targets, stamp, dist
        )
        self.arr_epoch = epoch
        for vertex in scratch.touched:
            if stamp[vertex] == epoch:
                distance = dist[vertex]
                tie_break = tie_cap - len(arrivals[vertex]) if distance == 0 else tie_cap
            else:
                distance = infinity
                tie_break = tie_cap
            out_rank[vertex] = ((distance * stride + tie_break) << shift) | vertex
        stamp = scratch.dep_stamp
        dist = scratch.dep_dist
        epoch = self._flat_bfs(
            departures.keys(), out_start, out_end, out_targets, stamp, dist
        )
        self.dep_epoch = epoch
        for vertex in scratch.touched:
            if stamp[vertex] == epoch:
                distance = dist[vertex]
                tie_break = tie_cap - len(departures[vertex]) if distance == 0 else tie_cap
            else:
                distance = infinity
                tie_break = tie_cap
            in_rank[vertex] = ((distance * stride + tie_break) << shift) | vertex

        for vertex in scratch.touched:
            begin, stop = out_start[vertex], out_end[vertex]
            if stop - begin > 1:
                segment = [out_rank[t] for t in out_targets[begin:stop]]
                segment.sort()
                out_targets[begin:stop] = [key & vertex_mask for key in segment]
            begin, stop = in_start[vertex], in_end[vertex]
            if stop - begin > 1:
                segment = [in_rank[t] for t in in_targets[begin:stop]]
                segment.sort()
                in_targets[begin:stop] = [key & vertex_mask for key in segment]

    # ------------------------------------------------------------------
    def verify(
        self,
        space: Optional[SpaceMeter] = None,
        stats: Optional[VerificationStats] = None,
    ) -> Set[Edge]:
        """Run the explicit-stack Algorithm 3 search over the slices.

        Answer-identical to
        :func:`repro.core.verification_reference.verify_undetermined_edges_reference`:
        the result always contains every definite edge, and each
        undetermined edge is added exactly when a valid path per
        Theorem 5.6 exists.  When ``stats`` is given the search fills its
        work counters.  ``space`` receives the searches' peak once, at the
        end, as an ``allocate`` and a ``release`` of ``4 + deepest stack``.
        """
        upper = self.upper
        confirmed: Set[Edge] = set(upper.definite_edges)
        if not self.active:
            return confirmed

        scratch = self.scratch
        source, target = upper.source, upper.target
        departures_get = upper.departures.get
        arrivals_get = upper.arrivals.get
        max_hops = upper.k - 4
        can_scan = max_hops > 1
        limit = self.limit
        out_start, out_end = scratch.out_start, scratch.out_end
        in_start, in_end = scratch.in_start, scratch.in_end
        out_targets, in_targets = scratch.out_targets, scratch.in_targets
        mark = scratch.stack_stamp
        f_mode = scratch.frame_mode
        f_vertex = scratch.frame_vertex
        f_cursor = scratch.frame_cursor
        f_end = scratch.frame_end
        e_tail = scratch.edge_tail
        e_head = scratch.edge_head

        # Distance-bound pruning, available once apply_search_ordering() has
        # run its two BFS passes: a push (or a whole edge) whose BFS
        # lower-bound distances already exceed the remaining hop budget
        # cannot be part of any committing stack, so skipping it cannot
        # change the confirmed set — every committing stack is found
        # unchanged, only dead branches are cut.
        arr_epoch = self.arr_epoch
        dep_epoch = self.dep_epoch
        pruned = arr_epoch > 0
        arr_stamp, arr_dist = scratch.arr_stamp, scratch.arr_dist
        dep_stamp, dep_dist = scratch.dep_stamp, scratch.dep_dist
        forward_budget = max_hops

        stack_epoch = scratch.stack_epoch
        # The deepest edge stack of any search, reported to ``space`` once.
        # The first undetermined edge is always searched, at depth 1.
        deepest = 1
        for checked in sorted(upper.undetermined_edges):
            if checked in confirmed:
                continue
            if stats is not None:
                stats.edges_checked += 1
            u, v = checked
            if pruned:
                if (
                    arr_stamp[v] != arr_epoch
                    or dep_stamp[u] != dep_epoch
                    or arr_dist[v] + dep_dist[u] >= max_hops
                ):
                    # The checked edge plus the shortest possible forward and
                    # backward completions already blow the budget: the
                    # search must fail, skip it outright.
                    continue
                forward_budget = max_hops - dep_dist[u]
            stack_epoch += 1
            epoch = stack_epoch
            mark[u] = epoch
            mark[v] = epoch
            mark[source] = epoch
            mark[target] = epoch
            success = False
            u_departures = departures_get(u)
            arrival_list = arrivals_get(v)
            if arrival_list is not None:
                # Fast path: the checked edge alone is a candidate q* (v is
                # an arrival).  Run the Theorem 5.6 endpoint test for u
                # inline; most searches commit right here, without touching
                # the frame machinery at all.
                if u_departures is not None:
                    first_in = -1
                    seen_in = 0
                    for x in u_departures:
                        if x >= limit or mark[x] != epoch:
                            seen_in += 1
                            if seen_in == 1:
                                first_in = x
                            else:
                                break
                    if seen_in:
                        for y in arrival_list:
                            if (y >= limit or mark[y] != epoch) and (
                                seen_in > 1 or y != first_in
                            ):
                                success = True
                                break
                if success:
                    confirmed.add(checked)
                    if stats is not None:
                        stats.edges_confirmed += 1
                    continue
                if not can_scan:
                    continue
                # Both root boundary checks are done: suspend the forward
                # root (it resumes scanning v's out-slice if the backward
                # chain comes back empty) and activate the backward root.
                f_mode[0] = _FORWARD_ROOT
                f_vertex[0] = v
                f_cursor[0] = out_start[v]
                f_end[0] = out_end[v]
                top = 1
                mode = _BACKWARD_ROOT
                current = u
                cursor = in_start[u]
                stop = in_end[u]
            else:
                if not can_scan:
                    continue
                top = 0
                mode = _FORWARD_ROOT
                current = v
                cursor = out_start[v]
                stop = out_end[v]
            e_tail[0] = u
            e_head[0] = v
            depth = 1
            # The active frame lives in locals (mode/current/cursor/stop);
            # the arrays only hold suspended frames, written on push and
            # read back on pop.  Boundary checks run once, at vertex entry.
            while True:
                neighbor = -1
                if pruned:
                    if mode < 2:
                        targets = out_targets
                        p_stamp, p_dist = arr_stamp, arr_dist
                        p_epoch = arr_epoch
                        p_budget = forward_budget
                    else:
                        targets = in_targets
                        p_stamp, p_dist = dep_stamp, dep_dist
                        p_epoch = dep_epoch
                        p_budget = max_hops
                    while cursor < stop:
                        candidate = targets[cursor]
                        cursor += 1
                        if (
                            mark[candidate] == epoch
                            or p_stamp[candidate] != p_epoch
                            or p_dist[candidate] + depth >= p_budget
                        ):
                            continue
                        neighbor = candidate
                        break
                else:
                    targets = out_targets if mode < 2 else in_targets
                    while cursor < stop:
                        candidate = targets[cursor]
                        cursor += 1
                        if mark[candidate] != epoch:
                            neighbor = candidate
                            break
                if neighbor >= 0:
                    if stats is not None:
                        stats.expansions += 1
                    mark[neighbor] = epoch
                    if depth >= deepest:
                        deepest = depth + 1
                    f_mode[top] = mode
                    f_vertex[top] = current
                    f_cursor[top] = cursor
                    f_end[top] = stop
                    top += 1
                    if mode < 2:
                        e_tail[depth] = current
                        e_head[depth] = neighbor
                        depth += 1
                        current = neighbor
                        # Forward entry: on an arrival, re-test the endpoint
                        # condition at u, then suspend this frame and chain
                        # backwards from u at the same hop count.
                        arr_list = arrivals_get(current)
                        if arr_list is not None:
                            arrival_list = arr_list
                            if u_departures is not None:
                                first_in = -1
                                seen_in = 0
                                for x in u_departures:
                                    if x >= limit or mark[x] != epoch:
                                        seen_in += 1
                                        if seen_in == 1:
                                            first_in = x
                                        else:
                                            break
                                if seen_in:
                                    for y in arr_list:
                                        if (y >= limit or mark[y] != epoch) and (
                                            seen_in > 1 or y != first_in
                                        ):
                                            success = True
                                            break
                                    if success:
                                        break
                            f_mode[top] = _FORWARD
                            f_vertex[top] = current
                            if depth < max_hops:
                                f_cursor[top] = out_start[current]
                                f_end[top] = out_end[current]
                                cursor = in_start[u]
                                stop = in_end[u]
                            else:
                                f_cursor[top] = 0
                                f_end[top] = 0
                                cursor = stop = 0
                            top += 1
                            mode = _BACKWARD_ROOT
                            current = u
                        else:
                            mode = _FORWARD
                            if depth < max_hops:
                                cursor = out_start[current]
                                stop = out_end[current]
                            else:
                                cursor = stop = 0
                    else:
                        e_tail[depth] = neighbor
                        e_head[depth] = current
                        depth += 1
                        current = neighbor
                        # Backward entry: on a departure, run the endpoint
                        # test against the arrival that spawned this chain.
                        dep_list = departures_get(current)
                        if dep_list is not None:
                            first_in = -1
                            seen_in = 0
                            for x in dep_list:
                                if x >= limit or mark[x] != epoch:
                                    seen_in += 1
                                    if seen_in == 1:
                                        first_in = x
                                    else:
                                        break
                            if seen_in:
                                for y in arrival_list:
                                    if (y >= limit or mark[y] != epoch) and (
                                        seen_in > 1 or y != first_in
                                    ):
                                        success = True
                                        break
                                if success:
                                    break
                        mode = _BACKWARD
                        if depth < max_hops:
                            cursor = in_start[current]
                            stop = in_end[current]
                        else:
                            cursor = stop = 0
                    continue
                # Slice exhausted: pop.  Non-root frames own one pushed edge
                # and one on-stack mark; root frames own neither.
                if mode == _FORWARD or mode == _BACKWARD:
                    mark[current] = 0
                    depth -= 1
                if top == 0:
                    break
                top -= 1
                mode = f_mode[top]
                current = f_vertex[top]
                cursor = f_cursor[top]
                stop = f_end[top]
            if success:
                # Commit the stack: bulk-add the edges and count the newly
                # settled ones by the size delta (definite edges are in
                # ``confirmed`` from the start, so every addition is one
                # undetermined edge settling).
                before = len(confirmed)
                confirmed.update(zip(e_tail[:depth], e_head[:depth]))
                if stats is not None:
                    stats.edges_confirmed += len(confirmed) - before
        scratch.stack_epoch = stack_epoch
        if space is not None:
            # A search at stack depth ``d`` holds the checked edge's 5 items
            # (u, v, s, t and the edge) plus one per further stacked edge.
            space.allocate(4 + deepest, category="verification-stack")
            space.release(4 + deepest, category="verification-stack")
        return confirmed


def prepare_verification(
    upper: UpperBoundGraph, scratch: Optional[VerificationScratch] = None
) -> PreparedVerification:
    """Materialise ``upper`` into flat slices, ready to order and verify.

    With ``k < 5`` or no undetermined edges the prepared object is trivial
    (nothing is materialised; :meth:`PreparedVerification.verify` returns
    the definite edges).  Passing a pooled ``scratch`` makes preparation
    allocation-free in steady state.
    """
    if scratch is None:
        scratch = VerificationScratch()
    return PreparedVerification(upper, scratch)


def verify_undetermined_edges(
    upper: UpperBoundGraph,
    space: Optional[SpaceMeter] = None,
    stats: Optional[VerificationStats] = None,
    scratch: Optional[VerificationScratch] = None,
    search_ordering: bool = False,
) -> Set[Edge]:
    """Run Algorithm 3 and return the exact edge set of ``SPG_k(s, t)``.

    Convenience wrapper over :func:`prepare_verification` +
    :meth:`PreparedVerification.verify` for callers outside the phase-timed
    EVE pipeline (tests, benchmarks, the differential harness).
    ``search_ordering`` additionally applies the Section 5.3 slice ordering
    before searching; the answer is identical either way.
    """
    prepared = prepare_verification(upper, scratch=scratch)
    if search_ordering:
        prepared.apply_search_ordering()
    return prepared.verify(space=space, stats=stats)
