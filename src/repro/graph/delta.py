"""Batched edge mutations applied to immutable graphs as CSR overlays.

Everything in this library treats :class:`~repro.graph.digraph.DiGraph`
as immutable: caches, scratch pools and warm worker pools all key on the
whole-graph fingerprint.  That is the right contract for query
evaluation, but the motivating fraud-screening scenario interleaves
hop-constrained path queries with *streams of new transactions* — and
rebuilding an entire graph (re-validating every edge, re-sorting the
fingerprint, reflattening both CSR views) for a handful of new edges is
exactly the wrong cost model.

This module adds a delta layer that preserves the immutability contract:

* :class:`GraphDelta` — a validated, deduplicated batch of edge inserts
  and deletes.
* :func:`apply_delta` — applies a delta to a graph and returns a **new**
  :class:`DeltaOverlayView`.  The input graph is never mutated; in-flight
  readers of the old graph are undisturbed.
* :class:`DeltaOverlayView` — a full :class:`DiGraph` whose storage is
  built by *overlaying* the delta on the previous graph's CSR pairs: the
  rows the delta touches are rebuilt from their CSR slices, and every
  other row is spliced from the previous CSR in C — one memcpy per run of
  targets, and one memcpy or one big-int lane add per run of offsets
  (no per-edge or per-offset Python loop, no re-validation, no
  fingerprint sort) — so the Python work is proportional to the touched
  rows.  The fingerprint is a **lineage hash** chained from the previous
  epoch in O(|delta| log |delta|).  ``compact()`` folds the overlay
  bookkeeping away once it grows past a threshold, resetting the lineage
  root.

Fingerprint lineage
-------------------
A view's fingerprint is ``H(tag, root_fingerprint, n, overlay)`` where
``root_fingerprint`` is the content fingerprint of the last compacted
ancestor and ``overlay`` is the *net* insert/delete sets relative to that
root.  The tuple ``(root, overlay)`` determines the graph content
uniquely, so distinct fingerprints still imply distinct graphs — the
property every cache and staleness guard actually relies on.  The one
deliberate deviation from :meth:`DiGraph.fingerprint` is that a lineage
fingerprint differs from the *content* fingerprint of an equal
from-scratch graph: that can only cause a cold cache (over-invalidation),
never a stale hit.  Deltas that cancel out exactly (net overlay empty)
collapse back to the root fingerprint, so a no-op round trip keeps every
cache entry and warm pool valid.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from struct import pack
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro._types import Edge, Vertex
from repro.exceptions import EdgeError, GraphError
from repro.graph.digraph import CSR, DiGraph

__all__ = ["GraphDelta", "DeltaOverlayView", "apply_delta"]

#: Domain tag for lineage fingerprints; keeps them disjoint from content
#: fingerprints (which hash a bare ``n`` + edge stream) by construction.
_LINEAGE_TAG = b"repro-delta-v1"

#: Byte order and width of one ``array('q')`` offset, for the lane add in
#: :func:`_shifted`.
_BYTE_ORDER = sys.byteorder
_LANE_BYTES = array("q").itemsize


def _check_endpoint(value: object, edge: object) -> int:
    """Return ``value`` as a vertex id, rejecting bools and non-ints.

    Mirrors the strict ingestion rules from the service layer: ``True`` is
    not vertex 1 and ``2.9`` is not vertex 2.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"edge {edge!r} has a non-integer endpoint {value!r}")
    return value


class GraphDelta:
    """A validated batch of edge inserts and deletes.

    Duplicates are collapsed (first occurrence wins, order preserved so
    adjacency-append order stays deterministic), self loops are dropped —
    they can never participate in a simple path between distinct
    endpoints, matching :class:`DiGraph` construction — and an edge
    appearing in both lists is rejected as ambiguous.  Endpoint *range*
    validation happens at apply time, where the target graph's vertex
    count is known.

    Examples
    --------
    >>> delta = GraphDelta(inserts=[(0, 1), (0, 1), (2, 2)], deletes=[(3, 4)])
    >>> delta.inserts, delta.deletes
    (((0, 1),), ((3, 4),))
    >>> delta.num_inserts, delta.num_deletes, delta.dropped_self_loops
    (1, 1, 1)
    """

    __slots__ = ("_inserts", "_deletes", "_dropped_self_loops")

    def __init__(
        self,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> None:
        self._dropped_self_loops = 0
        self._inserts = self._normalize(inserts, "insert")
        self._deletes = self._normalize(deletes, "delete")
        overlap = set(self._inserts) & set(self._deletes)
        if overlap:
            raise GraphError(
                f"edges {sorted(overlap)} appear in both inserts and deletes"
            )

    def _normalize(
        self, pairs: Iterable[Sequence[object]], kind: str
    ) -> Tuple[Edge, ...]:
        seen: Set[Edge] = set()
        edges: List[Edge] = []
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise GraphError(f"{kind} entry {pair!r} is not a (u, v) pair")
            u = _check_endpoint(pair[0], pair)
            v = _check_endpoint(pair[1], pair)
            if u == v:
                self._dropped_self_loops += 1
                continue
            edge = (u, v)
            if edge in seen:
                continue
            seen.add(edge)
            edges.append(edge)
        return tuple(edges)

    # ------------------------------------------------------------------
    @property
    def inserts(self) -> Tuple[Edge, ...]:
        """Edges to insert, deduplicated, in submission order."""
        return self._inserts

    @property
    def deletes(self) -> Tuple[Edge, ...]:
        """Edges to delete, deduplicated, in submission order."""
        return self._deletes

    @property
    def num_inserts(self) -> int:
        return len(self._inserts)

    @property
    def num_deletes(self) -> int:
        return len(self._deletes)

    @property
    def dropped_self_loops(self) -> int:
        """Self loops silently dropped during normalization."""
        return self._dropped_self_loops

    @property
    def is_empty(self) -> bool:
        return not self._inserts and not self._deletes

    def touched_vertices(self) -> Set[Vertex]:
        """Every endpoint named by the delta."""
        touched: Set[Vertex] = set()
        for u, v in self._inserts:
            touched.add(u)
            touched.add(v)
        for u, v in self._deletes:
            touched.add(u)
            touched.add(v)
        return touched

    def validate_for(self, graph: DiGraph) -> None:
        """Raise :class:`EdgeError` if any endpoint is outside ``graph``."""
        n = graph.num_vertices
        for edge in self._inserts + self._deletes:
            u, v = edge
            if not (0 <= u < n) or not (0 <= v < n):
                raise EdgeError(
                    f"delta edge ({u}, {v}) has endpoints outside [0, {n})"
                )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(inserts={len(self._inserts)}, "
            f"deletes={len(self._deletes)})"
        )


def _lineage_fingerprint(
    root_fingerprint: str,
    num_vertices: int,
    overlay_inserts: FrozenSet[Edge],
    overlay_deletes: FrozenSet[Edge],
) -> str:
    """Hash-chain a fingerprint from a root fingerprint plus a net overlay."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(_LINEAGE_TAG)
    hasher.update(root_fingerprint.encode("ascii"))
    hasher.update(pack("<qqq", num_vertices, len(overlay_inserts), len(overlay_deletes)))
    for edge in sorted(overlay_inserts):
        hasher.update(pack("<qq", *edge))
    hasher.update(b"/")
    for edge in sorted(overlay_deletes):
        hasher.update(pack("<qq", *edge))
    return hasher.hexdigest()


def _shifted(run: memoryview, shift: int) -> bytes:
    """The offsets in ``run`` plus ``shift``, as raw ``array('q')`` bytes.

    One big-int lane add replaces a per-offset loop: the run is read as a
    single integer whose 64-bit lanes are the offsets, and ``abs(shift)``
    repeated in every lane is added or subtracted.  Offsets stay in
    ``[0, 2**63)`` before and after the shift, so no lane carries into or
    borrows from its neighbour and every lane comes out exact.
    """
    count = len(run)
    lanes = int.from_bytes(run, _BYTE_ORDER)
    step = int.from_bytes(
        abs(shift).to_bytes(_LANE_BYTES, _BYTE_ORDER) * count, _BYTE_ORDER
    )
    lanes = lanes + step if shift > 0 else lanes - step
    return lanes.to_bytes(count * _LANE_BYTES, _BYTE_ORDER)


def _splice_csr(
    base: CSR, changed_rows: Dict[Vertex, Sequence[Vertex]], num_vertices: int
) -> CSR:
    """Rebuild a CSR pair with ``changed_rows`` replaced, splicing the rest.

    ``base`` may hold owned arrays or shared-memory ``memoryview``\\s.  Each
    untouched run of rows costs two C-level copies: its ``targets`` as one
    memcpy, and its ``offsets`` as one memcpy while the cumulative length
    shift is zero, or one :func:`_shifted` lane add after the first resized
    row.  Python work is O(changed rows + changed degree); the rest is
    O(n + m) bytes moved in C — far under full ``DiGraph`` construction.
    """
    base_offsets, base_targets = (memoryview(part) for part in base)
    offsets = array("q", [0])
    targets = array("q")
    shift = 0
    prev = 0
    # ``num_vertices`` closes the run after the last changed row.
    for u in [*sorted(changed_rows), num_vertices]:
        if prev < u:
            targets.frombytes(
                base_targets[base_offsets[prev]:base_offsets[u]].cast("B")
            )
            run = base_offsets[prev + 1:u + 1]
            offsets.frombytes(_shifted(run, shift) if shift else run.cast("B"))
        if u == num_vertices:
            break
        row = changed_rows[u]
        targets.extend(row)
        shift += len(row) - (base_offsets[u + 1] - base_offsets[u])
        offsets.append(base_offsets[u + 1] + shift)
        prev = u + 1
    return offsets, targets


class DeltaOverlayView(DiGraph):
    """A :class:`DiGraph` built by overlaying a delta on a previous epoch.

    A view is a *complete, independent* graph — every kernel, pickler
    and shared-memory segment consumes it exactly like a base graph — but
    its storage is derived from the previous epoch instead of rebuilt: the
    CSR pairs are spliced from the previous CSR pairs, and the fingerprint
    is a lineage hash (see the module docstring).  The view shares no
    storage with the previous graph, so retired epochs are
    garbage-collected as soon as their last in-flight query completes.

    Construct views with :func:`apply_delta`, never directly.
    """

    __slots__ = (
        "_root_fingerprint",
        "_overlay_inserts",
        "_overlay_deletes",
        "_applied_inserts",
        "_applied_deletes",
    )

    # ------------------------------------------------------------------
    # Overlay bookkeeping
    # ------------------------------------------------------------------
    @property
    def root_fingerprint(self) -> str:
        """Content fingerprint of the last compacted ancestor."""
        return self._root_fingerprint

    @property
    def overlay_inserts(self) -> FrozenSet[Edge]:
        """Net edges present here but absent from the lineage root."""
        return self._overlay_inserts

    @property
    def overlay_deletes(self) -> FrozenSet[Edge]:
        """Net edges absent here but present in the lineage root."""
        return self._overlay_deletes

    @property
    def overlay_size(self) -> int:
        """Net overlay magnitude; drives the engine's compaction policy."""
        return len(self._overlay_inserts) + len(self._overlay_deletes)

    @property
    def applied_inserts(self) -> Tuple[Edge, ...]:
        """Edges this apply step actually added (absent in the previous epoch)."""
        return self._applied_inserts

    @property
    def applied_deletes(self) -> Tuple[Edge, ...]:
        """Edges this apply step actually removed (present in the previous epoch)."""
        return self._applied_deletes

    @property
    def is_noop(self) -> bool:
        """True when the apply step changed nothing (all edges were no-ops)."""
        return not self._applied_inserts and not self._applied_deletes

    # ------------------------------------------------------------------
    def compact(self, name: Optional[str] = None) -> DiGraph:
        """Fold the overlay away into a plain :class:`DiGraph`.

        The merged storage already lives on this view, so compaction is
        O(1): it strips the overlay bookkeeping (resetting the lineage
        root for future deltas) and shares the CSR pairs.  The compacted
        graph deliberately **keeps the lineage fingerprint** so result
        caches and warm worker pools keyed on it survive compaction — see
        the module docstring for why that is sound.
        """
        return DiGraph._from_csr(
            self._n,
            self._csr,
            self._csr_rev,
            name or self.name,
            fingerprint=self._fingerprint,
            max_degree=self._max_degree,
        )

    # ------------------------------------------------------------------
    # Pickling: a worker only needs DiGraph behaviour, so the inherited
    # compact CSR payload is reused and the overlay bookkeeping is
    # re-initialized to a detached (empty-overlay) state on arrival.  The
    # lineage fingerprint travels in the base payload, so staleness guards
    # keep working across the process boundary.
    # ------------------------------------------------------------------
    def __setstate__(self, state: Dict[str, object]) -> None:
        super().__setstate__(state)
        self._root_fingerprint = self.fingerprint()
        self._overlay_inserts = frozenset()
        self._overlay_deletes = frozenset()
        self._applied_inserts = ()
        self._applied_deletes = ()

    def __repr__(self) -> str:
        return (
            f"DeltaOverlayView(name={self.name!r}, vertices={self._n}, "
            f"edges={self.num_edges}, overlay={self.overlay_size})"
        )


def _changed_rows(
    csr: CSR,
    deletes_by_key: Dict[Vertex, Set[Vertex]],
    inserts_by_key: Dict[Vertex, List[Vertex]],
) -> Dict[Vertex, List[Vertex]]:
    """Return the merged row of every touched vertex, read from its CSR slice."""
    offsets, targets = csr
    merged: Dict[Vertex, List[Vertex]] = {}
    for key in deletes_by_key.keys() | inserts_by_key.keys():
        row = targets[offsets[key]:offsets[key + 1]].tolist()
        dropped = deletes_by_key.get(key)
        if dropped:
            row = [other for other in row if other not in dropped]
        row.extend(inserts_by_key.get(key, ()))
        merged[key] = row
    return merged


def apply_delta(
    graph: DiGraph, delta: GraphDelta, *, name: Optional[str] = None
) -> DeltaOverlayView:
    """Apply ``delta`` to ``graph`` and return a new :class:`DeltaOverlayView`.

    ``graph`` is not mutated.  Inserting an edge that already exists and
    deleting an edge that does not are idempotent no-ops (the effective
    subsets are exposed as :attr:`DeltaOverlayView.applied_inserts` /
    :attr:`~DeltaOverlayView.applied_deletes`), so replaying a
    transaction stream is safe.  Applying to a graph that is itself a
    view merges the net overlays relative to the shared lineage root —
    views never chain, so read cost does not grow with epoch count.

    Raises :class:`EdgeError` if any endpoint is out of range.
    """
    delta.validate_for(graph)
    n = graph.num_vertices
    has_edge = graph.has_edge

    applied_inserts = tuple(e for e in delta.inserts if not has_edge(*e))
    applied_deletes = tuple(e for e in delta.deletes if has_edge(*e))

    # Rebuild only the rows the delta actually lands on; the splice copies
    # every other row from the previous CSR pairs.
    del_out: Dict[Vertex, Set[Vertex]] = {}
    del_in: Dict[Vertex, Set[Vertex]] = {}
    for u, v in applied_deletes:
        del_out.setdefault(u, set()).add(v)
        del_in.setdefault(v, set()).add(u)
    ins_out: Dict[Vertex, List[Vertex]] = {}
    ins_in: Dict[Vertex, List[Vertex]] = {}
    for u, v in applied_inserts:
        ins_out.setdefault(u, []).append(v)
        ins_in.setdefault(v, []).append(u)
    csr, csr_rev = graph.csr(), graph.csr_reverse()
    if applied_inserts or applied_deletes:
        csr = _splice_csr(csr, _changed_rows(csr, del_out, ins_out), n)
        csr_rev = _splice_csr(csr_rev, _changed_rows(csr_rev, del_in, ins_in), n)

    # Net overlay relative to the lineage root.  An applied insert that the
    # root already had (it sits in the previous overlay's delete set)
    # un-deletes; symmetrically for applied deletes of overlay-added edges.
    if isinstance(graph, DeltaOverlayView):
        root_fingerprint = graph._root_fingerprint
        overlay_inserts = set(graph._overlay_inserts)
        overlay_deletes = set(graph._overlay_deletes)
    else:
        root_fingerprint = graph.fingerprint()
        overlay_inserts = set()
        overlay_deletes = set()
    for edge in applied_inserts:
        if edge in overlay_deletes:
            overlay_deletes.remove(edge)
        else:
            overlay_inserts.add(edge)
    for edge in applied_deletes:
        if edge in overlay_inserts:
            overlay_inserts.remove(edge)
        else:
            overlay_deletes.add(edge)

    view = DeltaOverlayView._from_csr(n, csr, csr_rev, name or graph.name)
    view._root_fingerprint = root_fingerprint
    view._overlay_inserts = frozenset(overlay_inserts)
    view._overlay_deletes = frozenset(overlay_deletes)
    view._applied_inserts = applied_inserts
    view._applied_deletes = applied_deletes
    if not overlay_inserts and not overlay_deletes:
        # The net overlay cancelled out: content-identical to the root, so
        # reuse its fingerprint and every keyed cache stays warm.
        view._fingerprint = root_fingerprint
    else:
        view._fingerprint = _lineage_fingerprint(
            root_fingerprint, n, view._overlay_inserts, view._overlay_deletes
        )
    return view
