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
:func:`label_edge` call: per-source values (the Lemma 4.4/4.6 sets, the
level-resolved intersection operands) are computed once per ``u`` and
per-target values are memoised across the edges that share ``v``.

Intersection tests use **small bitsets over the shared essential-vertex
universe**: a vertex can witness ``EV_kf(s, u) ∩ EV_kb(v, t) != ∅`` only if
it appears in some forward *and* some backward set, so each such vertex is
assigned one bit (in sorted vertex-id order) and every stored EV set folds
down to one int mask — the per-split emptiness test of Algorithm 2's inner
loop becomes a single ``fmask & bmask`` machine op, exact by construction.

The original per-edge implementation is retained in
:mod:`repro.core.labeling_reference` as the property-test oracle and
benchmark baseline; ``tests/test_flat_propagation.py`` holds the two
answer-identical (labels, edge partition, adjacency, boundaries) on
randomized graphs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro._types import Edge, Vertex
from repro.core.distances import ArrayDistanceMap, DistanceIndex
from repro.core.essential import EssentialVertexIndex
from repro.core.result import EdgeLabel
from repro.core.space import SpaceMeter
from repro.graph.digraph import DiGraph

__all__ = ["UpperBoundGraph", "label_edge", "compute_upper_bound", "collect_boundaries"]


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


def label_edge(
    u: Vertex,
    v: Vertex,
    source: Vertex,
    target: Vertex,
    k: int,
    forward,
    backward,
) -> EdgeLabel:
    """Label a single edge ``e(u, v)`` (Algorithm 2).

    ``forward`` holds ``EV*_l(s, ·)`` and ``backward`` holds ``EV*_l(·, t)``
    (any index exposing ``get`` / ``exists`` — flat or reference).  This is
    the specification the fused pass of :func:`compute_upper_bound` is held
    to; it is also the path taken for index types the fused kernel does not
    recognise.
    """
    # Lines 1-2: first-hop edges from s / last-hop edges into t (Lemma 4.4).
    if u == source and backward.exists(v, k - 1):
        return EdgeLabel.DEFINITE
    if v == target and forward.exists(u, k - 1):
        return EdgeLabel.DEFINITE

    # Lines 3-4: second-hop edges (Lemma 4.6) — definite when the one-hop
    # prefix/suffix exists and the far endpoint avoids the near one.
    ev_su_1 = forward.get(u, 1)
    ev_vt_k2 = backward.get(v, k - 2)
    if ev_su_1 is not None and ev_vt_k2 is not None and u not in ev_vt_k2:
        return EdgeLabel.DEFINITE
    ev_vt_1 = backward.get(v, 1)
    ev_su_k2 = forward.get(u, k - 2)
    if ev_vt_1 is not None and ev_su_k2 is not None and v not in ev_su_k2:
        return EdgeLabel.DEFINITE

    # Lines 5-8: iterate k_f, pairing with k_b = k - k_f - 1 (Theorem 4.3
    # shows smaller k_b need not be checked separately).  For k <= 4 this
    # range is empty *and vacuously complete*: every split of k - 1 hops
    # with k_f >= 2 and k_b >= 2 needs k >= 5, and the k_f <= 1 / k_b <= 1
    # splits are each settled conclusively above — either DEFINITE, or
    # impossible because the one-hop prefix/suffix does not exist (the
    # Lemma set is None) or the far endpoint is essential on the other
    # side (`u in EV_{k-2}(v, t)` means every short suffix repeats u).
    # FAILING is therefore exact for k <= 4, which is Theorem 4.8; the
    # enumeration cross-check in tests/test_flat_propagation.py keeps this
    # argument honest.
    for k_forward in range(2, k - 2):
        k_backward = k - k_forward - 1
        ev_forward = forward.get(u, k_forward)
        if ev_forward is None:
            continue
        ev_backward = backward.get(v, k_backward)
        if ev_backward is None:
            continue
        if not (ev_forward & ev_backward):
            return EdgeLabel.UNDETERMINED
    return EdgeLabel.FAILING


# ----------------------------------------------------------------------
# Fused CSR labelling kernel
# ----------------------------------------------------------------------
def _entry_masks(
    sets: Tuple[Tuple[Vertex, ...], ...], bit_of: Dict[Vertex, int]
) -> List[int]:
    """Fold each stored EV tuple into its shared-universe bitset."""
    masks: List[int] = []
    get = bit_of.get
    for entry in sets:
        acc = 0
        for element in entry:
            b = get(element)
            if b is not None:
                acc |= b
        masks.append(acc)
    return masks


def _masks_at_levels(
    entry_levels: Tuple[int, ...], masks: List[int], lo: int, hi: int
) -> List[Optional[int]]:
    """Resolve ``get(vertex, L)`` to a mask for every level ``L`` in [lo, hi).

    One forward walk of the (short, sorted) entry-level list replaces a
    bisect per ``(edge, split)`` query.
    """
    resolved: List[Optional[int]] = []
    index = -1
    count = len(entry_levels)
    for level in range(lo, hi):
        while index + 1 < count and entry_levels[index + 1] <= level:
            index += 1
        resolved.append(masks[index] if index >= 0 else None)
    return resolved


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

    # Bit assignment for the intersection tests: only vertices appearing in
    # some forward AND some backward set can witness a non-empty
    # intersection, so only they need bits (sorted for determinism).  The
    # inner split loop only runs for k >= 5; skip the pass entirely below.
    loop_len = max(0, k - 4)
    bit_of: Dict[Vertex, int] = {}
    if loop_len:
        forward_elements: Set[Vertex] = set()
        for vertex in forward._touched:
            for entry in fsets[vertex]:
                forward_elements.update(entry)
        backward_elements: Set[Vertex] = set()
        for vertex in backward._touched:
            for entry in bsets[vertex]:
                backward_elements.update(entry)
        for position, vertex in enumerate(sorted(forward_elements & backward_elements)):
            bit_of[vertex] = 1 << position
    no_masks: List[Optional[int]] = [None] * loop_len

    #: per-target memo: [exists(v, k-1), EV_1(v,t), EV_{k-2}(v,t), split masks]
    #: (masks resolved lazily — ``None`` until an edge reaches the split loop)
    v_cache: Dict[Vertex, list] = {}

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
                if flevels[u]:
                    u_levels = flevels[u]
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
                    u_masks: Optional[List[Optional[int]]] = None  # lazy
                else:
                    u_exists_k1 = False
                    ev_su_1 = None
                    ev_su_k2 = None
                    u_masks = no_masks

            cached = v_cache.get(v)
            if cached is None:
                if blevels[v]:
                    v_levels = blevels[v]
                    v_first = v_levels[0]
                    v_sets = bsets[v]
                    cached = [
                        v_first <= k - 1,
                        v_sets[bisect_right(v_levels, 1) - 1] if v_first <= 1 else None,
                        v_sets[bisect_right(v_levels, k - 2) - 1]
                        if v_first <= k - 2
                        else None,
                        None,  # split masks, resolved on first use
                    ]
                else:
                    cached = [False, None, None, no_masks]
                v_cache[v] = cached
            v_exists_k1, ev_vt_1, ev_vt_k2, v_masks = cached

            # Lines 1-2 (Lemma 4.4), lines 3-4 (Lemma 4.6) — see label_edge.
            if (
                (u == source and v_exists_k1)
                or (v == target and u_exists_k1)
                or (ev_su_1 is not None and ev_vt_k2 is not None and u not in ev_vt_k2)
                or (ev_vt_1 is not None and ev_su_k2 is not None and v not in ev_su_k2)
            ):
                label = DEFINITE
            else:
                # Lines 5-8: the split loop over k_f in [2, k-3] as one
                # bitset AND per split (vacuously FAILING for k <= 4, see
                # label_edge).
                label = FAILING
                if loop_len:
                    if u_masks is None:
                        u_masks = _masks_at_levels(
                            u_levels, _entry_masks(u_sets, bit_of), 2, k - 2
                        )
                    if v_masks is None:
                        v_masks = _masks_at_levels(
                            blevels[v], _entry_masks(bsets[v], bit_of), 2, k - 2
                        )
                        cached[3] = v_masks
                    last = loop_len - 1
                    for i in range(loop_len):
                        fmask = u_masks[i]
                        if fmask is None:
                            continue
                        bmask = v_masks[last - i]
                        if bmask is None:
                            continue
                        if not fmask & bmask:
                            label = UNDETERMINED
                            break

            labels[(u, v)] = label
            if label is FAILING:
                continue
            if label is DEFINITE:
                definite_edges.add((u, v))
            else:
                undetermined_edges.add((u, v))
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


def _label_edges_generic(
    graph: DiGraph,
    upper: UpperBoundGraph,
    distances: DistanceIndex,
    forward,
    backward,
) -> None:
    """Per-edge fallback for index types the fused kernel cannot read."""
    source, target, k = upper.source, upper.target, upper.k
    to_target_get = distances.to_target.get
    for u, dist_su in distances.from_source.items():
        if dist_su + 1 > k:
            continue
        for v in graph.out_neighbors(u):
            dist_vt = to_target_get(v)
            if dist_vt is None or dist_su + 1 + dist_vt > k:
                continue
            label = label_edge(u, v, source, target, k, forward, backward)
            upper.labels[(u, v)] = label
            if label is EdgeLabel.FAILING:
                continue
            if label is EdgeLabel.DEFINITE:
                upper.definite_edges.add((u, v))
            else:
                upper.undetermined_edges.add((u, v))
            upper.out_adjacency.setdefault(u, []).append(v)
            upper.in_adjacency.setdefault(v, []).append(u)


def compute_upper_bound(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    distances: DistanceIndex,
    forward,
    backward,
    space: SpaceMeter | None = None,
) -> UpperBoundGraph:
    """Run Algorithm 2 over the candidate space and build ``SPGu_k(s, t)``.

    Only edges whose endpoints satisfy ``dist(s, u) + 1 + dist(v, t) <= k``
    are examined; edges outside that space cannot lie on any k-hop s-t path
    (Section 4.1) and are implicitly failing.  With flat-buffer indexes from
    :mod:`repro.core.essential` the labelling runs as the fused CSR pass;
    any other index pair (e.g. the retained reference implementation) takes
    the per-edge :func:`label_edge` path — both produce identical upper
    bounds.
    """
    upper = UpperBoundGraph(source=source, target=target, k=k)
    if isinstance(forward, EssentialVertexIndex) and isinstance(
        backward, EssentialVertexIndex
    ):
        _label_edges_flat(graph, upper, distances, forward, backward)
    else:
        _label_edges_generic(graph, upper, distances, forward, backward)
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
