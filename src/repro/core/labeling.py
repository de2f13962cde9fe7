"""Edge labelling and the upper-bound graph (Section 4 of the paper).

Every edge in the candidate space (``dist(s, u) + 1 + dist(v, t) <= k``) is
assigned one of three labels by Algorithm 2:

* ``FAILING`` — Theorem 3.4 proves no k-hop-constrained s-t simple path can
  use the edge;
* ``DEFINITE`` — Lemmas 4.4/4.6 prove the edge is in ``SPG_k(s, t)``
  (edges within two hops of ``s`` or ``t`` in the upper-bound graph);
* ``UNDETERMINED`` — the essential-vertex test is inconclusive; the edge
  belongs to the upper-bound graph and is handed to the verification phase.

This module also collects the *departure* and *arrival* vertex sets together
with their valid in-/out-neighbours (Definitions 5.1-5.4), truncated to
``k - 2`` entries per vertex as justified by Theorem 5.8.

Execution backend
-----------------
Since the flat-buffer refactor of :mod:`repro.core.essential`,
:func:`compute_upper_bound` runs Algorithm 2 as a **single fused pass over
the CSR out-edges** of the candidate space instead of a per-edge
``label_edge`` call: per-source values (the Lemma 4.4/4.6 sets, the
level-resolved intersection operands) are computed once per ``u`` and
per-target values are memoised across the edges that share ``v``.

The split loop of lines 5-8 runs only over the splits that can decide a
label.  The ``k_f + k_b = k - 1`` pairing leaves an edge the splits ``k_f``
from ``max(2, first forward level of u)`` to ``min(k - 3, k - 1 - first
backward level of v)``; every other split has a missing set.  EV sets only
shrink as their level grows, so of the splits that share ``u``'s forward
set only the first, which pairs it with the smallest backward set, needs a
test: one test per edge for a ``u`` holding a single entry, as most reached
vertices do.  Each test is ``frozenset.isdisjoint`` of ``u``'s memoised
forward set against ``v``'s stored tuple, exact because a shared vertex
lies in both sets.

The per-edge specification (``label_edge``) and its driver loop live in
:mod:`repro.core.labeling_reference`, the property-test oracle and
benchmark baseline; ``tests/test_flat_propagation.py`` holds the fused pass
to ``label_edge`` edge by edge, and the two pipelines answer-identical
(labels, edge partition, adjacency, boundaries) on randomized graphs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro._types import Edge, Vertex
from repro.core.distances import ArrayDistanceMap, DistanceIndex
from repro.core.essential import EssentialVertexIndex
from repro.core.result import EdgeLabel
from repro.core.space import SpaceMeter
from repro.graph.digraph import DiGraph

__all__ = ["UpperBoundGraph", "compute_upper_bound", "collect_boundaries"]


@dataclass
class UpperBoundGraph:
    """The upper-bound graph ``SPGu_k(s, t)`` plus bookkeeping for phase 3.

    Attributes
    ----------
    labels:
        Label of every candidate-space edge.
    definite_edges / undetermined_edges:
        Partition of the upper-bound edge set.
    out_adjacency / in_adjacency:
        Adjacency of the upper-bound graph (only its vertices appear).
    departures / arrivals:
        ``{vertex: [valid neighbours]}`` maps per Definitions 5.1-5.4,
        truncated to ``k - 2`` entries (Theorem 5.8).
    """

    source: Vertex
    target: Vertex
    k: int
    labels: Dict[Edge, EdgeLabel] = field(default_factory=dict)
    definite_edges: Set[Edge] = field(default_factory=set)
    undetermined_edges: Set[Edge] = field(default_factory=set)
    out_adjacency: Dict[Vertex, List[Vertex]] = field(default_factory=dict)
    in_adjacency: Dict[Vertex, List[Vertex]] = field(default_factory=dict)
    departures: Dict[Vertex, List[Vertex]] = field(default_factory=dict)
    arrivals: Dict[Vertex, List[Vertex]] = field(default_factory=dict)

    @property
    def edges(self) -> Set[Edge]:
        """All edges of the upper-bound graph."""
        return self.definite_edges | self.undetermined_edges

    @property
    def num_edges(self) -> int:
        """Number of edges of the upper-bound graph."""
        return len(self.definite_edges) + len(self.undetermined_edges)

    @property
    def num_definite(self) -> int:
        """Number of DEFINITE edges (Lemmas 4.4/4.6)."""
        return len(self.definite_edges)

    @property
    def num_undetermined(self) -> int:
        """Number of UNDETERMINED edges handed to verification."""
        return len(self.undetermined_edges)

    def span_attributes(self) -> Dict[str, object]:
        """Trace attributes describing this upper bound (labeling spans)."""
        return {
            "labeled_edges": len(self.labels),
            "definite_edges": len(self.definite_edges),
            "undetermined_edges": len(self.undetermined_edges),
            "departures": len(self.departures),
            "arrivals": len(self.arrivals),
        }

    def vertices(self) -> Set[Vertex]:
        """Vertices incident to at least one upper-bound edge."""
        found: Set[Vertex] = set()
        for u, v in self.definite_edges:
            found.add(u)
            found.add(v)
        for u, v in self.undetermined_edges:
            found.add(u)
            found.add(v)
        return found


# ----------------------------------------------------------------------
# Fused CSR labelling kernel
# ----------------------------------------------------------------------
def _forward_splits(
    levels: Tuple[int, ...], sets: Tuple[Tuple[Vertex, ...], ...], k: int
) -> List[Tuple[int, FrozenSet[Vertex]]]:
    """``(k_f, EV_kf(s, u))`` at each split where ``u``'s forward set changes.

    These are ``max(2, first level of u)`` and every later stored level up
    to ``k - 3``; the module docstring says why no other split needs a test.
    """
    first = levels[0] if levels[0] > 2 else 2
    if first > k - 3:
        return []
    position = bisect_right(levels, first) - 1
    splits = [(first, frozenset(sets[position]))]
    for position in range(position + 1, len(levels)):
        level = levels[position]
        if level > k - 3:
            break
        splits.append((level, frozenset(sets[position])))
    return splits


def _label_edges_flat(
    graph: DiGraph,
    upper: UpperBoundGraph,
    distances: DistanceIndex,
    forward: EssentialVertexIndex,
    backward: EssentialVertexIndex,
) -> None:
    """Single fused pass over candidate CSR out-edges (see module docstring)."""
    source, target, k = upper.source, upper.target, upper.k
    offsets, targets = graph.csr()
    flevels, fsets = forward._levels, forward._sets
    blevels, bsets = backward._levels, backward._sets

    # ``dist(s, u) = smark[u] - sbase`` for both kinds of map.
    from_source = distances.from_source
    if isinstance(from_source, ArrayDistanceMap):
        source_order = from_source.touched
        smark, sbase = from_source.mark, from_source.base
    else:
        source_order = list(from_source)
        smark, sbase = from_source, 0

    to_target = distances.to_target
    if isinstance(to_target, ArrayDistanceMap):
        tmark, tbase = to_target.mark, to_target.base
        to_target_get = None
    else:
        to_target_get = to_target.get

    #: per-target memo: (exists(v, k-1), EV_1(v,t), EV_{k-2}(v,t), the
    #: largest k_f whose EV_{k-1-k_f}(v, t) exists, levels, sets)
    v_cache: Dict[Vertex, tuple] = {}

    labels = upper.labels
    definite_edges = upper.definite_edges
    undetermined_edges = upper.undetermined_edges
    out_adjacency = upper.out_adjacency
    in_adjacency = upper.in_adjacency
    DEFINITE, UNDETERMINED, FAILING = (
        EdgeLabel.DEFINITE,
        EdgeLabel.UNDETERMINED,
        EdgeLabel.FAILING,
    )

    for u in source_order:
        # An out-edge (u, v) is a candidate when ``dist(v, t) <= budget``.
        # Then u is a candidate vertex as well, whose exact ``dist(u, t)``
        # is at most ``budget + 1``; any other u has no candidate out-edge,
        # so its row is never read.
        budget = k - 1 - (smark[u] - sbase)
        if budget < 0:
            continue
        if to_target_get is None:
            tlimit = tbase + budget
            if not tbase <= tmark[u] <= tlimit + 1:
                continue
        else:
            dist_ut = to_target_get(u)
            if dist_ut is None or dist_ut > budget + 1:
                continue
        start, end = offsets[u], offsets[u + 1]
        if start == end:
            continue

        u_ready = False
        for v in targets[start:end]:
            if to_target_get is None:
                if not tbase <= tmark[v] <= tlimit:
                    continue
            else:
                dist_vt = to_target_get(v)
                if dist_vt is None or dist_vt > budget:
                    continue

            if not u_ready:
                # Deferred per-source prelude: many candidate-ball vertices
                # have no surviving out-edge at all.
                u_ready = True
                u_levels = flevels[u]
                if u_levels:
                    u_first = u_levels[0]
                    u_sets = fsets[u]
                    u_exists_k1 = u_first <= k - 1
                    ev_su_1 = (
                        u_sets[bisect_right(u_levels, 1) - 1] if u_first <= 1 else None
                    )
                    ev_su_k2 = (
                        u_sets[bisect_right(u_levels, k - 2) - 1]
                        if u_first <= k - 2
                        else None
                    )
                    u_splits = None  # resolved on first use
                else:
                    u_exists_k1 = False
                    ev_su_1 = None
                    ev_su_k2 = None
                    u_splits = ()

            cached = v_cache.get(v)
            if cached is None:
                v_levels = blevels[v]
                if v_levels:
                    v_first = v_levels[0]
                    v_sets = bsets[v]
                    cached = (
                        v_first <= k - 1,
                        v_sets[bisect_right(v_levels, 1) - 1] if v_first <= 1 else None,
                        v_sets[bisect_right(v_levels, k - 2) - 1]
                        if v_first <= k - 2
                        else None,
                        k - 1 - v_first,
                        v_levels,
                        v_sets,
                    )
                else:
                    cached = (False, None, None, -1, None, None)
                v_cache[v] = cached
            v_exists_k1, ev_vt_1, ev_vt_k2, v_last, v_levels, v_sets = cached

            # Lines 1-2 (Lemma 4.4), lines 3-4 (Lemma 4.6) — see
            # labeling_reference.label_edge.
            if (
                (u == source and v_exists_k1)
                or (v == target and u_exists_k1)
                or (ev_su_1 is not None and ev_vt_k2 is not None and u not in ev_vt_k2)
                or (ev_vt_1 is not None and ev_su_k2 is not None and v not in ev_su_k2)
            ):
                label = DEFINITE
            else:
                # Lines 5-8 over the splits whose two sets exist, k_f from
                # max(2, first level of u) to min(k - 3, v_last) (vacuously
                # FAILING for k <= 4, see labeling_reference.label_edge).
                label = FAILING
                if u_splits is None:
                    u_splits = _forward_splits(u_levels, u_sets, k)
                for k_forward, ev_forward in u_splits:
                    if k_forward > v_last:
                        break
                    if ev_forward.isdisjoint(
                        v_sets[bisect_right(v_levels, k - 1 - k_forward) - 1]
                    ):
                        label = UNDETERMINED
                        break

            # The label map and the edge set share one tuple: fewer objects
            # for the garbage collector to count.
            edge = (u, v)
            labels[edge] = label
            if label is FAILING:
                continue
            if label is DEFINITE:
                definite_edges.add(edge)
            else:
                undetermined_edges.add(edge)
            out_list = out_adjacency.get(u)
            if out_list is None:
                out_adjacency[u] = [v]
            else:
                out_list.append(v)
            in_list = in_adjacency.get(v)
            if in_list is None:
                in_adjacency[v] = [u]
            else:
                in_list.append(u)


def compute_upper_bound(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    distances: DistanceIndex,
    forward: EssentialVertexIndex,
    backward: EssentialVertexIndex,
    space: SpaceMeter | None = None,
) -> UpperBoundGraph:
    """Run Algorithm 2 over the candidate space and build ``SPGu_k(s, t)``.

    Only edges whose endpoints satisfy ``dist(s, u) + 1 + dist(v, t) <= k``
    are examined; edges outside that space cannot lie on any k-hop s-t path
    (Section 4.1) and are implicitly failing.  ``forward`` and ``backward``
    are the flat-buffer indexes of :mod:`repro.core.essential`; the
    reference indexes of :mod:`repro.core.essential_reference` go to
    :func:`repro.core.labeling_reference.compute_upper_bound`.
    """
    upper = UpperBoundGraph(source=source, target=target, k=k)
    _label_edges_flat(graph, upper, distances, forward, backward)
    if space is not None:
        space.allocate(len(upper.labels), category="edge-labels")
        space.allocate(upper.num_edges, category="upper-bound-graph")
    collect_boundaries(upper, space=space)
    return upper


def collect_boundaries(upper: UpperBoundGraph, space: SpaceMeter | None = None) -> None:
    """Populate departures/arrivals and their valid neighbours.

    A vertex ``v`` is a *departure* when some in-neighbour ``x`` (distinct
    from ``s``, ``t`` and ``v``) has both ``e(s, x)`` and ``e(x, v)`` in the
    upper-bound graph; the valid in-neighbours ``In_D(v)`` are all such ``x``
    (Definitions 5.1-5.2).  Arrivals are symmetric (Definitions 5.3-5.4).
    Per Theorem 5.8, at most ``k - 2`` neighbours are retained per vertex —
    and the retained ones are the ``k - 2`` *smallest vertex ids*: the
    candidates are visited in sorted order, so the truncation is a pure
    function of the upper-bound edge set, not of adjacency iteration order.
    (Historically the cap kept whichever neighbours set/dict iteration
    yielded first, which made departures/arrivals — and therefore canonical
    reports — differ between dict- and CSR-order builds of the same upper
    bound.)
    """
    source, target, k = upper.source, upper.target, upper.k
    limit = max(1, k - 2)
    out_of_source = sorted(set(upper.out_adjacency.get(source, ())))
    into_target = sorted(set(upper.in_adjacency.get(target, ())))

    departures: Dict[Vertex, List[Vertex]] = {}
    for x in out_of_source:
        if x == target or x == source:
            continue
        for v in upper.out_adjacency.get(x, ()):
            if v == source or v == target or v == x:
                continue
            valid = departures.setdefault(v, [])
            if len(valid) < limit and x not in valid:
                valid.append(x)
    arrivals: Dict[Vertex, List[Vertex]] = {}
    for y in into_target:
        if y == source or y == target:
            continue
        for v in upper.in_adjacency.get(y, ()):
            if v == source or v == target or v == y:
                continue
            valid = arrivals.setdefault(v, [])
            if len(valid) < limit and y not in valid:
                valid.append(y)
    upper.departures = departures
    upper.arrivals = arrivals
    if space is not None:
        space.allocate(
            sum(len(vs) for vs in departures.values())
            + sum(len(vs) for vs in arrivals.values()),
            category="boundaries",
        )
