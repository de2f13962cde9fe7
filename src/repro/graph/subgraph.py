"""Subgraph extraction helpers.

Simple path graphs, upper-bound graphs and ``G^k_st`` are all edge-induced
subgraphs of the input graph.  The helpers here keep the *original* vertex
ids (so results remain directly comparable to the input graph), which is
what the paper's definitions require: ``SPG_k(s, t)`` is a subgraph of ``G``.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro._types import Edge, Vertex
from repro.graph.digraph import DiGraph

__all__ = ["edge_induced_subgraph", "vertex_induced_subgraph"]


def edge_induced_subgraph(
    graph: DiGraph, edges: Iterable[Edge], name: str = "subgraph"
) -> DiGraph:
    """Return the subgraph of ``graph`` containing exactly ``edges``.

    Vertex ids are preserved; the result has the same ``num_vertices`` as the
    input graph so vertex ids remain valid, but only the selected edges.
    Edges missing from the parent graph are filtered silently to support
    label arrays computed over candidate spaces.
    """
    selected = (e for e in edges if graph.has_edge(*e))
    return DiGraph(graph.num_vertices, selected, name=name)


def vertex_induced_subgraph(
    graph: DiGraph, vertices: Iterable[Vertex], name: str = "subgraph"
) -> DiGraph:
    """Return the subgraph induced by ``vertices`` (ids preserved)."""
    keep: Set[Vertex] = set(vertices)
    edges = (
        (u, v)
        for u in sorted(keep)
        if graph.has_vertex(u)
        for v in graph.out_neighbors(u)
        if v in keep
    )
    return DiGraph(graph.num_vertices, edges, name=name)
