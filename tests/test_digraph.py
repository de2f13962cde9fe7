"""Unit tests for the DiGraph substrate."""

import gc
import tracemalloc

import pytest

from repro.exceptions import EdgeError, GraphError, VertexError
from repro.graph import GraphDelta, apply_delta
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi


class TestConstruction:
    def test_basic_counts(self):
        graph = DiGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_self_loops_are_dropped(self):
        graph = DiGraph(3, [(0, 0), (0, 1), (2, 2)])
        assert graph.num_edges == 1
        assert not graph.has_edge(0, 0)

    def test_duplicate_edges_collapse(self):
        graph = DiGraph(3, [(0, 1), (0, 1), (0, 1)])
        assert graph.num_edges == 1

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(-1)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(EdgeError):
            DiGraph(2, [(0, 5)])

    def test_from_edge_list_infers_size(self):
        graph = DiGraph.from_edge_list([(0, 4), (4, 2)])
        assert graph.num_vertices == 5
        assert graph.num_edges == 2

    def test_from_edge_list_rejects_negative_ids(self):
        with pytest.raises(EdgeError):
            DiGraph.from_edge_list([(-1, 0)])

    def test_empty_constructor(self):
        graph = DiGraph.empty(4)
        assert graph.num_vertices == 4
        assert graph.num_edges == 0


class TestNeighborhoods:
    def test_out_and_in_neighbors(self):
        graph = DiGraph(4, [(0, 1), (0, 2), (3, 1)])
        assert sorted(graph.out_neighbors(0)) == [1, 2]
        assert sorted(graph.in_neighbors(1)) == [0, 3]
        assert graph.out_degree(0) == 2
        assert graph.in_degree(1) == 2
        assert graph.degree(0) == 2

    def test_max_and_average_degree(self):
        graph = DiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert graph.max_degree() == 3
        assert graph.average_degree() == pytest.approx(1.0)

    def test_average_degree_empty_graph(self):
        assert DiGraph(0).average_degree() == 0.0


class TestMembership:
    def test_has_edge_and_contains(self):
        graph = DiGraph(3, [(0, 1)])
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)
        assert (0, 1) in graph
        assert 2 in graph
        assert 5 not in graph
        assert "x" not in graph

    def test_check_vertex_raises(self):
        graph = DiGraph(2)
        graph.check_vertex(1)
        with pytest.raises(VertexError):
            graph.check_vertex(2)


class TestDerivedGraphs:
    def test_reverse(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        reverse = graph.reverse()
        assert reverse.has_edge(1, 0)
        assert reverse.has_edge(2, 1)
        assert reverse.num_edges == graph.num_edges
        assert sorted(reverse.out_neighbors(2)) == [1]

    def test_reverse_twice_is_identity(self):
        graph = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert graph.reverse().reverse() == graph

    def test_copy_is_equal_but_distinct(self):
        graph = DiGraph(3, [(0, 1)])
        clone = graph.copy()
        assert clone == graph
        assert clone is not graph

    def test_equality_considers_vertex_count(self):
        assert DiGraph(3, [(0, 1)]) != DiGraph(4, [(0, 1)])


class TestIterationAndExport:
    def test_edges_iteration_matches_edge_set(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        graph = DiGraph(3, edges)
        assert set(graph.edges()) == set(edges)
        assert graph.edge_set() == set(edges)

    def test_to_edge_list_sorted(self):
        graph = DiGraph(3, [(2, 0), (0, 1)])
        assert graph.to_edge_list() == [(0, 1), (2, 0)]

    def test_to_adjacency_dict(self):
        graph = DiGraph(3, [(0, 1), (0, 2)])
        adjacency = graph.to_adjacency_dict()
        assert sorted(adjacency[0]) == [1, 2]
        assert adjacency[1] == []

    def test_len_and_repr(self):
        graph = DiGraph(3, [(0, 1)], name="tiny")
        assert len(graph) == 3
        assert "tiny" in repr(graph)


def held_bytes(build):
    """``(result, bytes)``: what ``build()`` returns and the memory it still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held


def csr_bytes(graph):
    """Bytes of one forward plus one reverse CSR pair of 8-byte ints."""
    return 16 * (graph.num_vertices + 1) + 16 * graph.num_edges


class TestStorage:
    """A graph holds its CSR arrays and no per-edge Python objects."""

    def test_graph_holds_only_its_csr(self):
        def build():
            graph = erdos_renyi(5000, 4.0, seed=11)
            graph.csr(), graph.csr_reverse(), graph.fingerprint()
            return graph

        graph, held = held_bytes(build)
        assert held <= 1.5 * csr_bytes(graph), held / csr_bytes(graph)

    def test_delta_view_holds_only_its_csr(self):
        graph = erdos_renyi(5000, 4.0, seed=11)
        delta = GraphDelta(inserts=[(0, 1), (2, 3)], deletes=[next(graph.edges())])
        view, held = held_bytes(lambda: apply_delta(graph, delta))
        assert view.num_edges == graph.num_edges + 1
        assert held <= 1.5 * csr_bytes(view), held / csr_bytes(view)
