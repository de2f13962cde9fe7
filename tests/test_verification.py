"""Tests for the verification phase (Section 5)."""

from __future__ import annotations

import pytest

from repro.analysis.validate import brute_force_spg
from repro.core.distances import compute_distance_index
from repro.core.essential import propagate_backward, propagate_forward
from repro.core.labeling import compute_upper_bound
from repro.core.space import SpaceMeter
from repro.core.verification import verify_undetermined_edges
from repro.core.verification_reference import (
    multi_source_bfs_reference,
    order_adjacency_reference,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, power_law_cluster


def build_upper(graph, source, target, k):
    distances = compute_distance_index(graph, source, target, k)
    forward = propagate_forward(graph, source, target, k, distances=distances)
    backward = propagate_backward(graph, source, target, k, distances=distances)
    return compute_upper_bound(graph, source, target, k, distances, forward, backward)


class TestMultiSourceBFS:
    def test_distances_from_nearest_source(self):
        adjacency = {0: [1], 1: [2], 2: [3], 5: [3]}
        distances = multi_source_bfs_reference(adjacency, [0, 5])
        assert distances[0] == 0
        assert distances[5] == 0
        assert distances[1] == 1
        assert distances[3] == 1  # closer through 5

    def test_empty_sources(self):
        assert multi_source_bfs_reference({0: [1]}, []) == {}


class TestOrderAdjacency:
    def test_arrivals_come_first_in_out_lists(self, figure1):
        graph, builder = figure1
        s, t = builder.vertex_id("s"), builder.vertex_id("t")
        upper = build_upper(graph, s, t, 7)
        order_adjacency_reference(upper)
        to_arrival = multi_source_bfs_reference(upper.in_adjacency, upper.arrivals.keys())
        for vertex, neighbors in upper.out_adjacency.items():
            keys = [to_arrival.get(n, float("inf")) for n in neighbors]
            assert keys == sorted(keys)

    def test_departures_come_first_in_in_lists(self, figure1):
        graph, builder = figure1
        s, t = builder.vertex_id("s"), builder.vertex_id("t")
        upper = build_upper(graph, s, t, 7)
        order_adjacency_reference(upper)
        from_departure = multi_source_bfs_reference(upper.out_adjacency, upper.departures.keys())
        for vertex, neighbors in upper.in_adjacency.items():
            keys = [from_departure.get(n, float("inf")) for n in neighbors]
            assert keys == sorted(keys)


class TestVerification:
    def test_example_5_7_edge_ij_confirmed(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        s, t = vid("s"), vid("t")
        upper = build_upper(graph, s, t, 7)
        assert (vid("i"), vid("j")) in upper.undetermined_edges
        edges = verify_undetermined_edges(upper)
        assert (vid("i"), vid("j")) in edges
        assert (vid("j"), vid("h")) in edges

    def test_counterexample_edge_ba_rejected(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        s, t = vid("s"), vid("t")
        upper = build_upper(graph, s, t, 7)
        edges = verify_undetermined_edges(upper)
        assert (vid("b"), vid("a")) not in edges
        assert edges == brute_force_spg(graph, s, t, 7)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_matches_brute_force_on_random_graphs(self, seed, k):
        graph = erdos_renyi(11, 2.0, seed=seed)
        source, target = 0, 10
        upper = build_upper(graph, source, target, k)
        edges = verify_undetermined_edges(upper)
        assert edges == brute_force_spg(graph, source, target, k)

    @pytest.mark.parametrize("seed", range(5))
    def test_ordering_does_not_change_the_answer(self, seed):
        graph = power_law_cluster(14, 2, seed=seed)
        source, target = 0, 13
        for k in (5, 6, 7):
            plain = build_upper(graph, source, target, k)
            ordered = build_upper(graph, source, target, k)
            order_adjacency_reference(ordered)
            assert verify_undetermined_edges(plain) == verify_undetermined_edges(ordered)

    def test_small_k_returns_definite_edges_only(self):
        graph = erdos_renyi(10, 2.0, seed=1)
        upper = build_upper(graph, 0, 9, 4)
        assert verify_undetermined_edges(upper) == upper.definite_edges

    def test_space_meter_tracks_stack(self):
        graph = erdos_renyi(12, 2.5, seed=2)
        upper = build_upper(graph, 0, 11, 6)
        meter = SpaceMeter()
        verify_undetermined_edges(upper, space=meter)
        assert meter.current == 0  # everything released after the search
        if upper.undetermined_edges:
            assert meter.peak >= 5


class TestTheorem59SmallK:
    """For k = 5 the verification needs no expansion beyond the edge itself."""

    @pytest.mark.parametrize("seed", range(5))
    def test_k5_exactness(self, seed):
        graph = erdos_renyi(12, 2.5, seed=seed)
        upper = build_upper(graph, 0, 11, 5)
        assert verify_undetermined_edges(upper) == brute_force_spg(graph, 0, 11, 5)
