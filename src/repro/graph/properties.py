"""Structural statistics of directed graphs.

Mirrors the per-dataset statistics reported in Table 2 of the paper
(|V|, |E|, ``d_avg``, ``d_max``) plus a few quantities used by tests and
experiment reports (reachability sizes, strongly connected components).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro._types import Vertex
from repro.graph.digraph import DiGraph

__all__ = [
    "GraphSummary",
    "summarize",
    "strongly_connected_components",
    "largest_scc_size",
    "reachable_set",
    "degree_histogram",
]


@dataclass(frozen=True)
class GraphSummary:
    """Compact description of a graph, matching Table 2's columns."""

    name: str
    num_vertices: int
    num_edges: int
    average_degree: float
    max_degree: int
    max_out_degree: int
    max_in_degree: int

    def as_row(self) -> Dict[str, object]:
        """Return the summary as a plain dictionary (for table rendering)."""
        return {
            "name": self.name,
            "|V|": self.num_vertices,
            "|E|": self.num_edges,
            "d_avg": round(self.average_degree, 2),
            "d_max": self.max_degree,
        }


def summarize(graph: DiGraph) -> GraphSummary:
    """Compute the :class:`GraphSummary` of ``graph``."""
    max_out = 0
    max_in = 0
    for u in graph.vertices():
        max_out = max(max_out, graph.out_degree(u))
        max_in = max(max_in, graph.in_degree(u))
    return GraphSummary(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        average_degree=graph.average_degree(),
        max_degree=max(max_out, max_in),
        max_out_degree=max_out,
        max_in_degree=max_in,
    )


def strongly_connected_components(graph: DiGraph) -> List[List[Vertex]]:
    """Return the strongly connected components (iterative Tarjan).

    Implemented without recursion so it works on long path-like graphs
    without hitting CPython's recursion limit.
    """
    n = graph.num_vertices
    index_counter = 0
    indices: List[int] = [-1] * n
    lowlinks: List[int] = [0] * n
    on_stack: List[bool] = [False] * n
    stack: List[Vertex] = []
    components: List[List[Vertex]] = []

    # Read the CSR row in place: slicing a hub's row on every resume would
    # copy it once per child.
    offsets, targets = graph.csr()
    for root in range(n):
        if indices[root] != -1:
            continue
        # Each work item is (vertex, next position in the CSR targets).
        work: List[List[int]] = [[root, offsets[root]]]
        while work:
            v, position = work[-1]
            if indices[v] == -1:
                indices[v] = index_counter
                lowlinks[v] = index_counter
                index_counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            end = offsets[v + 1]
            while position < end:
                w = targets[position]
                position += 1
                if indices[w] == -1:
                    work[-1][1] = position
                    work.append([w, offsets[w]])
                    advanced = True
                    break
                if on_stack[w]:
                    lowlinks[v] = min(lowlinks[v], indices[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[v])
            if lowlinks[v] == indices[v]:
                component: List[Vertex] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def largest_scc_size(graph: DiGraph) -> int:
    """Return the size of the largest strongly connected component."""
    components = strongly_connected_components(graph)
    return max((len(c) for c in components), default=0)


def reachable_set(graph: DiGraph, source: Vertex, max_hops: int | None = None) -> List[Vertex]:
    """Return vertices reachable from ``source`` within ``max_hops`` hops.

    ``max_hops=None`` means unbounded reachability.
    """
    graph.check_vertex(source)
    visited = {source}
    frontier = deque([(source, 0)])
    order: List[Vertex] = [source]
    while frontier:
        vertex, depth = frontier.popleft()
        if max_hops is not None and depth >= max_hops:
            continue
        for neighbor in graph.out_neighbors(vertex):
            if neighbor not in visited:
                visited.add(neighbor)
                order.append(neighbor)
                frontier.append((neighbor, depth + 1))
    return order


def degree_histogram(graph: DiGraph, direction: str = "out") -> Dict[int, int]:
    """Return ``{degree: count}`` for the chosen direction (``out``/``in``)."""
    if direction not in ("out", "in"):
        raise ValueError("direction must be 'out' or 'in'")
    histogram: Dict[int, int] = {}
    for u in graph.vertices():
        degree = graph.out_degree(u) if direction == "out" else graph.in_degree(u)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram
