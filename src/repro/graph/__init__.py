"""Directed-graph substrate used by every algorithm in the library.

The central class is :class:`~repro.graph.digraph.DiGraph`, a compact
directed graph with dense integer vertex ids, stored as CSR arrays.
Helper modules provide construction from raw edge lists
(:mod:`repro.graph.builder`), edge-list I/O (:mod:`repro.graph.io`),
synthetic generators (:mod:`repro.graph.generators`), structural statistics
(:mod:`repro.graph.properties`), edge-induced subgraphs
(:mod:`repro.graph.subgraph`), shared-memory CSR segments that
process-pool workers attach to zero-copy (:mod:`repro.graph.shm`)
and batched edge mutations applied as CSR overlays
(:mod:`repro.graph.delta`).
"""

from repro.graph.builder import GraphBuilder, build_graph
from repro.graph.delta import DeltaOverlayView, GraphDelta, apply_delta
from repro.graph.digraph import DiGraph
from repro.graph.shm import (
    AttachedGraphSegment,
    SharedGraphDescriptor,
    SharedGraphSegment,
    attach_shared_graph,
    shared_memory_available,
)
from repro.graph.subgraph import edge_induced_subgraph, vertex_induced_subgraph

__all__ = [
    "DiGraph",
    "DeltaOverlayView",
    "GraphBuilder",
    "GraphDelta",
    "apply_delta",
    "build_graph",
    "edge_induced_subgraph",
    "vertex_induced_subgraph",
    "SharedGraphSegment",
    "SharedGraphDescriptor",
    "AttachedGraphSegment",
    "attach_shared_graph",
    "shared_memory_available",
]
