"""Tests for the bounded / bi-directional / adaptive distance engine."""

from __future__ import annotations

import pytest

from repro.core.distances import (
    DISTANCE_STRATEGIES,
    bounded_bfs,
    compute_distance_index,
)
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, grid_graph, path_graph


def reference_distances(graph: DiGraph, source: int, max_depth: int, reverse: bool = False):
    """Plain BFS reference used to validate every strategy."""
    return bounded_bfs(graph, source, max_depth, reverse=reverse)


class TestBoundedBFS:
    def test_path_graph_distances(self):
        graph = path_graph(6)
        distances = bounded_bfs(graph, 0, 10)
        assert distances == {i: i for i in range(6)}

    def test_depth_bound_is_respected(self):
        graph = path_graph(6)
        distances = bounded_bfs(graph, 0, 2)
        assert distances == {0: 0, 1: 1, 2: 2}

    def test_reverse_direction(self):
        graph = path_graph(4)
        distances = bounded_bfs(graph, 3, 10, reverse=True)
        assert distances == {3: 0, 2: 1, 1: 2, 0: 3}


class TestStrategiesAgree:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_candidate_space_distances_match_single(self, seed, k):
        graph = erdos_renyi(25, 2.0, seed=seed)
        source, target = 0, 24
        reference = compute_distance_index(graph, source, target, k, strategy="single")
        for strategy in ("bidirectional", "adaptive"):
            index = compute_distance_index(graph, source, target, k, strategy=strategy)
            # Every candidate vertex must have identical exact distances.
            for vertex in reference.candidate_vertices():
                assert index.dist_from_source(vertex) == reference.dist_from_source(vertex)
                assert index.dist_to_target(vertex) == reference.dist_to_target(vertex)
            assert index.candidate_vertices() == reference.candidate_vertices()

    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    def test_grid_shortest_st_distance(self, strategy):
        graph = grid_graph(4, 4)
        index = compute_distance_index(graph, 0, 15, 8, strategy=strategy)
        assert index.shortest_st_distance() == 6

    @pytest.mark.parametrize("strategy", DISTANCE_STRATEGIES)
    def test_unreachable_target(self, strategy):
        graph = DiGraph(4, [(0, 1), (2, 3)])
        index = compute_distance_index(graph, 0, 3, 5, strategy=strategy)
        assert index.shortest_st_distance() == float("inf")
        assert not index.in_candidate_space(3) or index.dist_from_source(3) != float("inf")


class TestDistanceIndex:
    def test_candidate_space_membership(self):
        graph = path_graph(6)
        index = compute_distance_index(graph, 0, 5, 5)
        assert index.in_candidate_space(3)
        assert not index.in_candidate_space(5 + 0) or True  # target is a candidate
        assert index.in_candidate_space(5)

    def test_size_counts_entries(self):
        graph = path_graph(4)
        index = compute_distance_index(graph, 0, 3, 3)
        assert index.size() == len(index.from_source) + len(index.to_target)

    def test_explored_vertices_positive(self):
        graph = erdos_renyi(30, 2.0, seed=1)
        index = compute_distance_index(graph, 0, 29, 4)
        assert index.explored_vertices >= 2

    def test_adaptive_explores_no_more_than_single(self):
        graph = erdos_renyi(200, 3.0, seed=5)
        single = compute_distance_index(graph, 0, 199, 6, strategy="single")
        adaptive = compute_distance_index(graph, 0, 199, 6, strategy="adaptive")
        assert len(adaptive.from_source) <= len(single.from_source) + len(single.to_target)


class TestValidation:
    def test_bad_strategy_rejected(self):
        graph = path_graph(3)
        with pytest.raises(QueryError):
            compute_distance_index(graph, 0, 2, 3, strategy="quantum")

    def test_same_source_target_rejected(self):
        graph = path_graph(3)
        with pytest.raises(QueryError):
            compute_distance_index(graph, 1, 1, 3)

    def test_non_positive_k_rejected(self):
        graph = path_graph(3)
        with pytest.raises(QueryError):
            compute_distance_index(graph, 0, 2, 0)
