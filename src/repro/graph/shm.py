"""Shared-memory CSR graph segments: zero-copy graph state for process pools.

The ``process`` executor backend can ship the served graph to every worker
by pickling its CSR pairs: one full copy of the edge arrays *per worker*.
This module removes that copy for ``spawn``/``forkserver`` pools:

* :class:`SharedGraphSegment` (creator side) packs both CSR pairs —
  ``csr()`` and ``csr_reverse()`` — into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` block and hands out a
  tiny picklable :class:`SharedGraphDescriptor`;
* :func:`attach_shared_graph` (worker side) maps the block and returns a
  plain :class:`~repro.graph.digraph.DiGraph` whose CSR pairs are
  ``memoryview``s **directly into the shared buffers**.  Nothing is
  unpickled or copied: per-worker memory for the graph is O(1) however
  large the graph is.

Lifecycle rules (regression-tested):

* the segment is unlinked **exactly once**, on :meth:`SharedGraphSegment.close`
  or the GC finalizer of a dropped-without-close owner, whichever fires
  first (``weakref.finalize`` guarantees at-most-once);
* workers attach *untracked* — the creator owns the unlink, so worker
  processes must not register the block with their own
  ``resource_tracker`` (doing so produces bogus "leaked shared_memory"
  warnings at worker exit on Python < 3.13);
* :meth:`AttachedGraphSegment.close` drops the views before closing the
  mapping so interpreter teardown in workers stays silent; a graph that
  outlives its attachment keeps the mapping alive until its last view
  goes.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graph.digraph import DiGraph

__all__ = [
    "SharedGraphDescriptor",
    "SharedGraphSegment",
    "AttachedGraphSegment",
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
            raw = block.tobytes()
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


def _close_attachment(shm) -> None:
    """Unmap an attached block, or leave the mapping to views that outlive it."""
    try:
        shm.close()
    except BufferError:
        # A caller still holds views into the block (e.g. the attached
        # graph or its CSR buffers outliving the attachment).  Disarm the
        # handle instead of letting SharedMemory.__del__ retry and warn at
        # GC time: the mmap object stays alive exactly as long as the
        # exported views do, and its pages are reclaimed with them (or at
        # exit).
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                import os

                os.close(fd)
            finally:
                shm._fd = -1


class AttachedGraphSegment:
    """A worker's handle on one attached segment: the graph + cleanup.

    ``close()`` drops the graph (and with it every memoryview into the
    block), garbage-collects so no buffer exports remain, then unmaps.
    Workers register it via ``atexit`` so interpreter teardown never trips
    over exported buffers; a handle dropped without ``close()`` is closed
    by a GC finalizer.  The block itself is *not* unlinked here — that is
    the creator's job.
    """

    def __init__(self, shm, graph: DiGraph) -> None:
        self._shm = shm
        self.graph: Optional[DiGraph] = graph
        self._finalizer = weakref.finalize(self, _close_attachment, shm)

    def close(self) -> None:
        self.graph = None
        gc.collect()
        self._finalizer()

    def __repr__(self) -> str:
        return f"AttachedGraphSegment(name={self._shm.name!r}, open={self.graph is not None})"


def attach_shared_graph(descriptor: SharedGraphDescriptor) -> AttachedGraphSegment:
    """Attach to a segment and build the zero-copy graph over its buffers."""
    shm = _attach_untracked(descriptor.segment_name)
    words = memoryview(shm.buf)[:descriptor.total_bytes].cast("q")
    blocks: List[memoryview] = []
    cursor = 0
    for length in descriptor.lengths:
        blocks.append(words[cursor:cursor + length])
        cursor += length
    graph = DiGraph._from_csr(
        descriptor.num_vertices,
        (blocks[0], blocks[1]),
        (blocks[2], blocks[3]),
        descriptor.graph_name,
        fingerprint=descriptor.fingerprint,
    )
    return AttachedGraphSegment(shm, graph)
