"""A compact directed graph with dense integer vertex ids.

:class:`DiGraph` is the single graph representation used throughout the
library.  Its only storage is two CSR (compressed sparse row) pairs of
flat integer buffers, one per direction: ``targets[offsets[u]:offsets[u + 1]]``
are the out-neighbours of ``u`` in the forward pair and its in-neighbours
in the reverse pair.  The buffers are owned ``array('q')`` objects, or
``memoryview``s into a shared-memory block when a process-pool worker
attaches to one (:mod:`repro.graph.shm`).  Every kernel reads the pairs
directly, and no per-edge Python object outlives construction, so a graph
holds 16 bytes per edge and 16 per vertex.

Design notes
------------
* Vertices are ``0 .. num_vertices - 1``.  Callers that have arbitrary
  labels should go through :class:`repro.graph.builder.GraphBuilder`, which
  relabels to a dense range and remembers the mapping.
* The graph is immutable after construction; algorithms never mutate their
  input graph.  Derived graphs (reverse graph, subgraphs) are new objects.
* Parallel edges are collapsed and self-loops dropped at construction time
  because neither can participate in a simple path between distinct
  endpoints (a self loop would repeat its vertex).
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import accumulate
from operator import sub
from struct import pack
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro._types import Edge, Vertex
from repro.exceptions import EdgeError, GraphError, VertexError

__all__ = ["DiGraph"]

#: ``(offsets, targets)``: ``array('q')`` pairs, or ``memoryview``s of
#: format ``'q'`` over a shared-memory block.
CSR = Tuple[Sequence[int], Sequence[Vertex]]


def _group_rows(num_vertices: int, keys: List[Vertex], values: List[Vertex]) -> CSR:
    """Counting-sort ``values`` by ``keys`` into an ``(offsets, targets)`` pair.

    Each row lists its values in input order, so a graph's CSR keeps the
    insertion order of its edges — which fixes search order, and with it
    every work counter, downstream.
    """
    counts = [0] * (num_vertices + 1)
    for key in keys:
        counts[key + 1] += 1
    offsets = array("q", accumulate(counts))
    cursor = offsets.tolist()
    targets = array("q", bytes(8 * len(keys)))
    for key, value in zip(keys, values):
        slot = cursor[key]
        targets[slot] = value
        cursor[key] = slot + 1
    return offsets, targets


def _rows(csr: CSR) -> Iterator[Sequence[Vertex]]:
    """Yield the rows of ``csr`` in vertex order."""
    offsets, targets = csr
    for u in range(len(offsets) - 1):
        yield targets[offsets[u]:offsets[u + 1]]


def _owned(csr: CSR) -> CSR:
    """``csr`` as ``array('q')`` pairs, copying any shared buffer."""
    return tuple(part if isinstance(part, array) else array("q", part) for part in csr)


class DiGraph:
    """An immutable directed graph stored as forward and reverse CSR pairs.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops are ignored and duplicate
        edges are collapsed.
    name:
        Optional human-readable name (used by datasets and reports).

    Examples
    --------
    >>> g = DiGraph(3, [(0, 1), (1, 2), (0, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.out_neighbors(0))
    [1, 2]
    """

    __slots__ = (
        "_n",
        "_csr",
        "_csr_rev",
        "_fingerprint",
        "_max_degree",
        "name",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge] = (),
        name: str = "graph",
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        n = int(num_vertices)
        # Duplicates collapse to their first occurrence.  The set of seen
        # edges is freed before the CSR pairs are built, which keeps the
        # peak low; no per-edge object outlives the constructor.
        seen: Set[Edge] = set()
        sources: List[Vertex] = []
        targets: List[Vertex] = []
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise EdgeError(f"edge ({u}, {v}) has endpoints outside [0, {n})")
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            sources.append(u)
            targets.append(v)
        del seen
        self._n = n
        self.name = name
        self._csr = _group_rows(n, sources, targets)
        self._csr_rev = _group_rows(n, targets, sources)
        self._fingerprint: Optional[str] = None
        self._max_degree: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (distinct, non-loop) directed edges."""
        return len(self._csr[1])

    def vertices(self) -> range:
        """Return the range of vertex ids."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(u, v)`` pairs (sorted by source)."""
        for u, row in enumerate(_rows(self._csr)):
            for v in row:
                yield (u, v)

    def edge_set(self) -> Set[Edge]:
        """Return the edges as a new set."""
        return set(self.edges())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the directed edge ``(u, v)`` exists.

        Never raises: an endpoint that is not an ``int`` in
        ``[0, num_vertices)`` names no edge.
        """
        n = self._n
        if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < n and 0 <= v < n):
            return False
        offsets, targets = self._csr
        return v in targets[offsets[u]:offsets[u + 1]]

    def has_vertex(self, u: Vertex) -> bool:
        """Return ``True`` if ``u`` is a valid vertex id."""
        return 0 <= u < self._n

    def check_vertex(self, u: Vertex) -> None:
        """Raise :class:`VertexError` if ``u`` is not a valid vertex id."""
        if not self.has_vertex(u):
            raise VertexError(f"vertex {u} is not in [0, {self._n})")

    # ------------------------------------------------------------------
    # Neighbourhoods and degrees
    # ------------------------------------------------------------------
    def out_neighbors(self, u: Vertex) -> Sequence[Vertex]:
        """Return the out-neighbours of ``u``: a slice of its CSR row."""
        offsets, targets = self._csr
        return targets[offsets[u]:offsets[u + 1]]

    def in_neighbors(self, u: Vertex) -> Sequence[Vertex]:
        """Return the in-neighbours of ``u``: a slice of its reverse CSR row."""
        offsets, targets = self._csr_rev
        return targets[offsets[u]:offsets[u + 1]]

    def out_degree(self, u: Vertex) -> int:
        """Return the out-degree of ``u``."""
        offsets = self._csr[0]
        return offsets[u + 1] - offsets[u]

    def in_degree(self, u: Vertex) -> int:
        """Return the in-degree of ``u``."""
        offsets = self._csr_rev[0]
        return offsets[u + 1] - offsets[u]

    def degree(self, u: Vertex) -> int:
        """Return in-degree plus out-degree of ``u``."""
        return self.out_degree(u) + self.in_degree(u)

    def max_degree(self) -> int:
        """Return ``d_max``: the maximum of in- and out-degrees over vertices.

        Read from the offsets once and cached (the graph is immutable);
        reports and the adaptive-search heuristics may call this per query
        without paying an O(n) scan each time.
        """
        if self._max_degree is None:
            self._max_degree = max(
                max(map(sub, offsets[1:], offsets), default=0)
                for offsets in (self._csr[0], self._csr_rev[0])
            )
        return self._max_degree

    def average_degree(self) -> float:
        """Return ``d_avg = |E| / |V|`` (0 for the empty graph)."""
        if self._n == 0:
            return 0.0
        return self.num_edges / self._n

    def fingerprint(self) -> str:
        """Return a stable content fingerprint of ``(num_vertices, edge_set)``.

        Two graphs share a fingerprint exactly when they are equal as graphs
        (same vertex count and edge set), regardless of ``name`` or insertion
        order: the digest covers the edges in sorted order, one sorted row
        at a time.  It is computed once and cached -- the graph is
        immutable -- so repeated calls are O(1).  The service layer keys its
        result caches on this value, which makes cache invalidation on a
        graph swap automatic: a different graph can never serve stale
        entries.
        """
        if self._fingerprint is None:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(pack("<q", self._n))
            for u, row in enumerate(_rows(self._csr)):
                for v in sorted(row):
                    hasher.update(pack("<qq", u, v))
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # The storage: CSR pairs
    # ------------------------------------------------------------------
    def csr(self) -> CSR:
        """Return the ``(offsets, targets)`` CSR pair of out-edges.

        ``targets[offsets[u]:offsets[u + 1]]`` are the out-neighbours of
        ``u`` in insertion order.  This is the graph's storage itself,
        shared by every query, thread and derived :meth:`copy`/:meth:`reverse`
        graph; treat it as read-only.
        """
        return self._csr

    def csr_reverse(self) -> CSR:
        """Return the CSR pair of in-edges (the reverse graph)."""
        return self._csr_rev

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """Return the reverse graph ``G^r`` (every edge flipped) in O(1).

        The forward and reverse CSR pairs simply swap roles.
        """
        return DiGraph._from_csr(
            self._n,
            self._csr_rev,
            self._csr,
            f"{self.name}-reversed",
            max_degree=self._max_degree,
        )

    def copy(self, name: Optional[str] = None) -> "DiGraph":
        """Return a copy of this graph (a distinct object, equal as a graph).

        Both graphs are immutable, so the copy shares the CSR pairs and the
        cached fingerprint and max degree instead of rebuilding them.
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
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the CSR pairs (raw bytes) and the cached fingerprint.

        Carrying the fingerprint lets a process-pool worker verify it
        serves the parent's exact graph without re-hashing the edges.
        Shared buffers travel as owned arrays, so a pickle never refers to
        a shared-memory segment.
        """
        return {
            "n": self._n,
            "name": self.name,
            "fingerprint": self._fingerprint,
            "csr": _owned(self._csr),
            "csr_rev": _owned(self._csr_rev),
            "max_degree": self._max_degree,
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._n = state["n"]
        self.name = state["name"]
        self._csr = state["csr"]
        self._csr_rev = state["csr_rev"]
        self._fingerprint = state["fingerprint"]
        self._max_degree = state["max_degree"]

    # ------------------------------------------------------------------
    # Interop / dunder helpers
    # ------------------------------------------------------------------
    def to_edge_list(self) -> List[Edge]:
        """Return all edges as a sorted list of pairs."""
        return sorted(self.edges())

    def to_adjacency_dict(self) -> Dict[Vertex, List[Vertex]]:
        """Return a ``{u: [v, ...]}`` adjacency dictionary copy."""
        return {u: list(row) for u, row in enumerate(_rows(self._csr))}

    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        if isinstance(item, int):
            return self.has_vertex(item)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        offsets, targets = self._csr
        other_offsets, other_targets = other._csr
        if self._n != other._n or offsets != other_offsets:
            return False
        # Same degrees everywhere: equal as graphs when every row holds the
        # same neighbours, in whatever order.
        return targets == other_targets or all(
            sorted(row) == sorted(other_row)
            for row, other_row in zip(_rows(self._csr), _rows(other._csr))
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs rarely hashed
        return hash((self._n, frozenset(self.edges())))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"DiGraph(name={self.name!r}, vertices={self._n}, edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls, edges: Iterable[Edge], num_vertices: Optional[int] = None, name: str = "graph"
    ) -> "DiGraph":
        """Build a graph from an edge list.

        If ``num_vertices`` is omitted, it is inferred as ``max id + 1``.
        """
        edge_list = [(int(u), int(v)) for u, v in edges]
        if num_vertices is None:
            num_vertices = 0
            for u, v in edge_list:
                if u < 0 or v < 0:
                    raise EdgeError(f"negative vertex id in edge ({u}, {v})")
                num_vertices = max(num_vertices, u + 1, v + 1)
        return cls(num_vertices, edge_list, name=name)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "DiGraph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        return cls(num_vertices, (), name=name)

    @classmethod
    def _from_csr(
        cls,
        num_vertices: int,
        csr: CSR,
        csr_rev: CSR,
        name: str,
        fingerprint: Optional[str] = None,
        max_degree: Optional[int] = None,
    ) -> "DiGraph":
        """A graph over existing CSR pairs: owned arrays or shared buffers.

        Nothing is copied.  The pairs may come from another process (a
        shared-memory descriptor), so their layout is checked in O(1):
        ``num_vertices + 1`` offsets in each direction and one target per
        edge in both.
        """
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        offsets, targets = csr
        rev_offsets, rev_targets = csr_rev
        if len(offsets) != num_vertices + 1 or len(rev_offsets) != num_vertices + 1:
            raise GraphError(
                f"CSR offsets must have num_vertices + 1 = {num_vertices + 1} "
                f"entries, got {len(offsets)} forward / {len(rev_offsets)} reverse"
            )
        if len(targets) != len(rev_targets):
            raise GraphError(
                "forward and reverse CSR pairs disagree on the edge count: "
                f"{len(targets)} vs {len(rev_targets)}"
            )
        graph = cls.__new__(cls)
        graph._n = int(num_vertices)
        graph.name = name
        graph._csr = csr
        graph._csr_rev = csr_rev
        graph._fingerprint = fingerprint
        graph._max_degree = max_degree
        return graph
