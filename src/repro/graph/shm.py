"""Shared-memory CSR graph segments: zero-copy graph state for process pools.

The ``process`` executor backend historically shipped the served graph to
every worker by pickling its CSR views (PR 3).  That is one full copy of
the edge arrays *per worker*, plus an O(m) adjacency rebuild on arrival.
This module removes both costs for ``spawn``/``forkserver`` pools:

* :class:`SharedGraphSegment` (creator side) packs both CSR views —
  ``csr()`` and ``csr_reverse()`` — into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` block and hands out a
  tiny picklable :class:`SharedGraphDescriptor`;
* :func:`attach_shared_graph` (worker side) maps the block and wraps it in
  a :class:`CSRGraphView` — a :class:`~repro.graph.digraph.DiGraph` whose
  adjacency is served **directly from the shared buffers** through
  ``memoryview`` slices.  No unpickling, no adjacency lists, no edge set:
  per-worker memory for the graph is O(1) however large the graph is.

Lifecycle rules (regression-tested):

* the segment is unlinked **exactly once**, on :meth:`SharedGraphSegment.close`
  or the GC finalizer of a dropped-without-close owner, whichever fires
  first (``weakref.finalize`` guarantees at-most-once);
* workers attach *untracked* — the creator owns the unlink, so worker
  processes must not register the block with their own
  ``resource_tracker`` (doing so produces bogus "leaked shared_memory"
  warnings at worker exit on Python < 3.13);
* :meth:`AttachedGraphSegment.close` drops the views before closing the
  mapping so interpreter teardown in workers stays silent.
"""

from __future__ import annotations

import gc
import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro._types import Edge, Vertex
from repro.exceptions import GraphError
from repro.graph.digraph import DiGraph

__all__ = [
    "SharedGraphDescriptor",
    "SharedGraphSegment",
    "AttachedGraphSegment",
    "CSRGraphView",
    "attach_shared_graph",
    "shared_memory_available",
]

_ITEM_SIZE = 8  # array('q') / memoryview format 'q'


def shared_memory_available() -> bool:
    """True when :mod:`multiprocessing.shared_memory` can allocate here."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython >= 3.8
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=_ITEM_SIZE)
    except Exception:  # pragma: no cover - exotic platform / sandbox
        return False
    probe.close()
    probe.unlink()
    return True


@dataclass(frozen=True)
class SharedGraphDescriptor:
    """Everything a worker needs to attach to a shared graph segment.

    A few dozen bytes however large the graph: the segment name, the array
    layout (element counts of the four CSR arrays, in block order), and the
    graph identity (vertex count, name, fingerprint) the worker must serve.
    """

    segment_name: str
    num_vertices: int
    graph_name: str
    fingerprint: str
    #: element counts: (fwd offsets, fwd targets, rev offsets, rev targets)
    lengths: Tuple[int, int, int, int]

    @property
    def total_bytes(self) -> int:
        return sum(self.lengths) * _ITEM_SIZE


def _destroy_segment(shm) -> None:
    """Close-and-unlink helper shared by ``close()`` and the GC finalizer."""
    try:
        shm.close()
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup raced
            pass


class SharedGraphSegment:
    """Creator-side owner of one shared-memory block holding both CSR views.

    Building the segment copies each CSR array into the block once; workers
    then attach zero-copy.  The creating process owns the block: it must
    stay alive (and the segment un-closed) while any pool worker may still
    attach.  ``close()`` is idempotent and the block is also reclaimed by a
    GC finalizer when the owner is dropped without ``close()`` — in both
    cases the underlying block is unlinked exactly once.
    """

    def __init__(self, graph: DiGraph) -> None:
        from multiprocessing import shared_memory

        arrays = (*graph.csr(), *graph.csr_reverse())
        lengths = tuple(len(block) for block in arrays)
        total = max(_ITEM_SIZE, sum(lengths) * _ITEM_SIZE)
        shm = shared_memory.SharedMemory(create=True, size=total)
        cursor = 0
        buffer = shm.buf
        for block in arrays:
            raw = block.tobytes() if isinstance(block, array) else bytes(block)
            buffer[cursor:cursor + len(raw)] = raw
            cursor += len(raw)
        self.descriptor = SharedGraphDescriptor(
            segment_name=shm.name,
            num_vertices=graph.num_vertices,
            graph_name=graph.name,
            fingerprint=graph.fingerprint(),
            lengths=lengths,
        )
        self._shm = shm
        self._finalizer = weakref.finalize(self, _destroy_segment, shm)

    @property
    def name(self) -> str:
        return self.descriptor.segment_name

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unmap and unlink the block (idempotent, unlinks at most once)."""
        self._finalizer()

    def __enter__(self) -> "SharedGraphSegment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedGraphSegment(name={self.name!r}, "
            f"bytes={self.descriptor.total_bytes}, closed={self.closed})"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _attach_untracked(name: str):
    """Open an existing segment without registering it for auto-unlink.

    The creating process owns the block's lifetime; an attaching worker
    that lets ``resource_tracker`` adopt it would either warn about a
    "leak" at worker exit or — because parent and pool workers talk to the
    *same* tracker process — clobber the creator's registration.  Python
    3.13 exposes ``track=False`` for exactly this; earlier versions get the
    equivalent by suppressing the register call during attach (attaching
    after the fact and calling ``unregister`` is *not* equivalent: the
    tracker cache is a set shared with the creator, so unregistering here
    would erase the creator's entry and make its eventual unlink complain).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _register_except_shared_memory(resource_name, rtype):
        if rtype != "shared_memory":  # pragma: no cover - not hit in attach
            original_register(resource_name, rtype)

    resource_tracker.register = _register_except_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class AttachedGraphSegment:
    """A worker's handle on one attached segment: the view graph + cleanup.

    ``close()`` drops the graph (and with it every memoryview into the
    block), garbage-collects so no buffer exports remain, then unmaps.
    Workers register it via ``atexit`` so interpreter teardown never trips
    over exported buffers; the block itself is *not* unlinked here — that
    is the creator's job.
    """

    def __init__(self, shm, graph: "CSRGraphView") -> None:
        self._shm = shm
        self.graph: Optional["CSRGraphView"] = graph

    def close(self) -> None:
        self.graph = None
        gc.collect()
        try:
            self._shm.close()
        except BufferError:
            # A caller still holds views into the block (e.g. the attached
            # graph or its CSR buffers outliving the attachment).  Disarm the handle instead of
            # letting SharedMemory.__del__ retry and warn at GC time: the
            # mmap object stays alive exactly as long as the exported views
            # do, and its pages are reclaimed with them (or at exit).
            shm = self._shm
            shm._mmap = None
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                try:
                    import os

                    os.close(fd)
                finally:
                    shm._fd = -1

    def __repr__(self) -> str:
        return f"AttachedGraphSegment(name={self._shm.name!r}, open={self.graph is not None})"


def attach_shared_graph(descriptor: SharedGraphDescriptor) -> AttachedGraphSegment:
    """Attach to a segment and build the zero-copy graph view over it."""
    shm = _attach_untracked(descriptor.segment_name)
    words = memoryview(shm.buf)[:descriptor.total_bytes].cast("q")
    blocks: List[memoryview] = []
    cursor = 0
    for length in descriptor.lengths:
        blocks.append(words[cursor:cursor + length])
        cursor += length
    graph = CSRGraphView(
        descriptor.num_vertices,
        (blocks[0], blocks[1]),
        (blocks[2], blocks[3]),
        fingerprint=descriptor.fingerprint,
        name=descriptor.graph_name,
    )
    graph._keepalive = shm
    return AttachedGraphSegment(shm, graph)


# ----------------------------------------------------------------------
# The zero-copy graph view
# ----------------------------------------------------------------------
class CSRGraphView(DiGraph):
    """A :class:`DiGraph` served directly from flat CSR buffers.

    Unlike a regular ``DiGraph``, the adjacency lists and edge set are
    **never materialised**: every neighbourhood query slices the underlying
    ``(offsets, targets)`` buffers (typically memoryviews into a
    :class:`SharedGraphSegment`), so holding the view costs O(1) memory on
    top of the buffers.  The distance kernels and the EVE phases only read
    adjacency through :meth:`out_neighbors` / :meth:`in_neighbors` /
    :meth:`csr` / :meth:`csr_reverse`, all of which this class serves from
    the buffers — a view answers every query identically to the graph it
    mirrors (differential-tested in ``tests/test_shared_memory.py``).

    Set-like operations (``edge_set``, equality, hashing) still work but
    materialise edges on the fly; they are O(m) conveniences for tests and
    tooling, not serving-path operations.
    """

    #: keeps the attached SharedMemory mapping alive for as long as any
    #: consumer holds the view (the buffers alias its pages).
    __slots__ = ("_keepalive",)

    def __init__(
        self,
        num_vertices: int,
        csr: Tuple[Sequence[int], Sequence[Vertex]],
        csr_rev: Tuple[Sequence[int], Sequence[Vertex]],
        fingerprint: Optional[str] = None,
        name: str = "csr-view",
    ) -> None:
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
                "forward and reverse CSR views disagree on the edge count: "
                f"{len(targets)} vs {len(rev_targets)}"
            )
        self._n = int(num_vertices)
        self.name = name
        self._out = None  # never materialised; see class docstring
        self._in = None
        self._edge_set = None
        self._m = len(targets)
        self._fingerprint = fingerprint
        self._csr = (offsets, targets)
        self._csr_rev = (rev_offsets, rev_targets)
        self._max_degree = None
        self._keepalive = None

    # ------------------------------------------------------------------
    # Adjacency straight from the buffers
    # ------------------------------------------------------------------
    def out_neighbors(self, u: Vertex) -> Sequence[Vertex]:
        offsets, targets = self._csr
        return targets[offsets[u]:offsets[u + 1]]

    def in_neighbors(self, u: Vertex) -> Sequence[Vertex]:
        offsets, targets = self._csr_rev
        return targets[offsets[u]:offsets[u + 1]]

    def out_degree(self, u: Vertex) -> int:
        offsets = self._csr[0]
        return offsets[u + 1] - offsets[u]

    def in_degree(self, u: Vertex) -> int:
        offsets = self._csr_rev[0]
        return offsets[u + 1] - offsets[u]

    def degree(self, u: Vertex) -> int:
        return self.out_degree(u) + self.in_degree(u)

    def max_degree(self) -> int:
        if self._max_degree is None:
            best = 0
            for offsets in (self._csr[0], self._csr_rev[0]):
                previous = offsets[0]
                for index in range(1, len(offsets)):
                    current = offsets[index]
                    if current - previous > best:
                        best = current - previous
                    previous = current
            self._max_degree = best
        return self._max_degree

    # ------------------------------------------------------------------
    # Edge-set conveniences (materialise on the fly; O(m), test/tooling use)
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Edge]:
        offsets, targets = self._csr
        for u in range(self._n):
            for v in targets[offsets[u]:offsets[u + 1]]:
                yield (u, v)

    def edge_set(self) -> Set[Edge]:
        return set(self.edges())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        offsets, targets = self._csr
        for neighbor in targets[offsets[u]:offsets[u + 1]]:
            if neighbor == v:
                return True
        return False

    def to_edge_list(self) -> List[Edge]:
        return sorted(self.edges())

    def to_adjacency_dict(self) -> Dict[Vertex, List[Vertex]]:
        return {u: list(self.out_neighbors(u)) for u in range(self._n)}

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            # Same digest as DiGraph.fingerprint so views and graphs that
            # are equal as graphs share a fingerprint.
            import hashlib
            from struct import pack

            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(pack("<q", self._n))
            for edge in sorted(self.edges()):
                hasher.update(pack("<qq", *edge))
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            return self.has_edge(*item)
        if isinstance(item, int):
            return self.has_vertex(item)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._n == other.num_vertices and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:  # pragma: no cover - views rarely hashed
        return hash((self._n, frozenset(self.edges())))

    # ------------------------------------------------------------------
    # Derived graphs / pickling
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraphView":
        reversed_view = CSRGraphView(
            self._n,
            self._csr_rev,
            self._csr,
            fingerprint=None,
            name=f"{self.name}-reversed",
        )
        reversed_view._keepalive = self._keepalive
        reversed_view._max_degree = self._max_degree
        return reversed_view

    def copy(self, name: Optional[str] = None) -> "CSRGraphView":
        clone = CSRGraphView(
            self._n,
            self._csr,
            self._csr_rev,
            fingerprint=self._fingerprint,
            name=name or self.name,
        )
        clone._keepalive = self._keepalive
        clone._max_degree = self._max_degree
        return clone

    def materialize(self, name: Optional[str] = None) -> DiGraph:
        """Build a regular (self-contained) :class:`DiGraph` copy."""
        graph = DiGraph._from_trusted_edges(
            self._n, self.edges(), name=name or self.name
        )
        graph._fingerprint = self._fingerprint
        return graph

    def __reduce__(self) -> Tuple:
        # A pickled view must not drag memoryview/shared-memory semantics
        # along: ship self-contained arrays, rebuild an equivalent view.
        return (
            _rebuild_view,
            (
                self._n,
                array("q", self._csr[0]),
                array("q", self._csr[1]),
                array("q", self._csr_rev[0]),
                array("q", self._csr_rev[1]),
                self._fingerprint,
                self.name,
            ),
        )

    def __repr__(self) -> str:
        return (
            f"CSRGraphView(name={self.name!r}, vertices={self._n}, "
            f"edges={self._m})"
        )


def _rebuild_view(
    num_vertices: int,
    out_offsets: array,
    out_targets: array,
    in_offsets: array,
    in_targets: array,
    fingerprint: Optional[str],
    name: str,
) -> CSRGraphView:
    return CSRGraphView(
        num_vertices,
        (out_offsets, out_targets),
        (in_offsets, in_targets),
        fingerprint=fingerprint,
        name=name,
    )
