"""Retained reference implementation of Algorithm 2 (edge labelling).

This module preserves the original per-edge ``label_edge`` driver loop of
:mod:`repro.core.labeling` exactly as it was before labelling moved to the
fused single-pass CSR kernel, and pairs with
:mod:`repro.core.essential_reference` the same way
:mod:`repro.core.distances_reference` pairs with the CSR distance kernel:
it is the property-test oracle and the benchmark baseline for the flat
path.  The only deliberate deviation from the historical code is the
deterministic boundary truncation of :func:`collect_boundaries` (a bug
fix shared with the flat path — see that function).  Do not use this
module on hot paths.

Background: every edge in the candidate space
(``dist(s, u) + 1 + dist(v, t) <= k``) is assigned one of three labels by
Algorithm 2:

* ``FAILING`` — Theorem 3.4 proves no k-hop-constrained s-t simple path can
  use the edge;
* ``DEFINITE`` — Lemmas 4.4/4.6 prove the edge is in ``SPG_k(s, t)``
  (edges within two hops of ``s`` or ``t`` in the upper-bound graph);
* ``UNDETERMINED`` — the essential-vertex test is inconclusive; the edge
  belongs to the upper-bound graph and is handed to the verification phase.

The boundary collection (Definitions 5.1-5.4) is shared with the flat path:
:func:`compute_upper_bound` delegates to
:func:`repro.core.labeling.collect_boundaries`, whose truncation is purely
a function of the upper-bound *edge set* — so both paths produce identical
departures/arrivals by construction.
"""

from __future__ import annotations

from repro._types import Vertex
from repro.core.distances import DistanceIndex
from repro.core.essential_reference import EssentialVertexIndex
from repro.core.labeling import UpperBoundGraph, collect_boundaries
from repro.core.result import EdgeLabel
from repro.core.space import SpaceMeter
from repro.graph.digraph import DiGraph

__all__ = ["label_edge", "compute_upper_bound"]


def label_edge(
    u: Vertex,
    v: Vertex,
    source: Vertex,
    target: Vertex,
    k: int,
    forward: EssentialVertexIndex,
    backward: EssentialVertexIndex,
) -> EdgeLabel:
    """Label a single edge ``e(u, v)`` (Algorithm 2).

    ``forward`` holds ``EV*_l(s, ·)`` and ``backward`` holds ``EV*_l(·, t)``
    (any index exposing ``get`` / ``exists`` — flat or reference).  This is
    the specification the fused pass of
    :func:`repro.core.labeling.compute_upper_bound` is held to.
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
    (Section 4.1) and are implicitly failing.
    """
    upper = UpperBoundGraph(source=source, target=target, k=k)
    from_source = distances.from_source
    to_target_get = distances.to_target.get
    for u, dist_su in from_source.items():
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
    if space is not None:
        space.allocate(len(upper.labels), category="edge-labels")
        space.allocate(upper.num_edges, category="upper-bound-graph")
    collect_boundaries(upper, space=space)
    return upper
