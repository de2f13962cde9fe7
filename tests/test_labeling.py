"""Tests for edge labelling and the upper-bound graph (Section 4)."""

from __future__ import annotations

import pytest

from repro.analysis.validate import brute_force_spg
from repro.core.distances import compute_distance_index
from repro.core.essential import propagate_backward, propagate_forward
from repro.core.labeling import compute_upper_bound
from repro.core.labeling_reference import label_edge
from repro.core.result import EdgeLabel
from repro.graph.generators import erdos_renyi


def build_upper(graph, source, target, k):
    distances = compute_distance_index(graph, source, target, k)
    forward = propagate_forward(graph, source, target, k, distances=distances)
    backward = propagate_backward(graph, source, target, k, distances=distances)
    return compute_upper_bound(graph, source, target, k, distances, forward, backward)


class TestFigure6Labels:
    """Edge labels for the Figure 1 graph at k = 7 (Figure 6(c) / examples)."""

    @pytest.fixture(autouse=True)
    def _setup(self, figure1):
        self.graph, builder = figure1
        self.id = builder.vertex_id
        self.s, self.t = self.id("s"), self.id("t")
        self.upper = build_upper(self.graph, self.s, self.t, 7)

    def edge(self, a, b):
        return (self.id(a), self.id(b))

    def test_example_4_2_edge_ij_is_in_upper_bound(self):
        assert self.edge("i", "j") in self.upper.edges

    def test_example_4_2_edge_bj_is_failing(self):
        assert self.upper.labels[self.edge("b", "j")] is EdgeLabel.FAILING
        assert self.edge("b", "j") not in self.upper.edges

    def test_counterexample_edge_ba_is_excluded(self):
        """Lemma 3.3's counterexample e(b, a) is not in SPG_7; here it is
        filtered at the latest by verification, but the label must not be
        definite."""
        label = self.upper.labels.get(self.edge("b", "a"), EdgeLabel.FAILING)
        assert label is not EdgeLabel.DEFINITE

    def test_example_4_5_first_hop_edge_definite(self):
        assert self.upper.labels[self.edge("s", "a")] is EdgeLabel.DEFINITE

    def test_example_4_7_second_hop_edge_definite(self):
        assert self.upper.labels[self.edge("a", "i")] is EdgeLabel.DEFINITE

    def test_last_hop_edges_definite(self):
        assert self.upper.labels[self.edge("c", "t")] is EdgeLabel.DEFINITE
        assert self.upper.labels[self.edge("b", "t")] is EdgeLabel.DEFINITE

    def test_departures_and_arrivals_match_figure7(self):
        departures = {self.id(x) for x in ("b", "c", "h", "i")}
        arrivals = {self.id(x) for x in ("a", "c", "h")}
        assert set(self.upper.departures) == departures
        assert set(self.upper.arrivals) == arrivals

    def test_example_5_5_valid_neighbours(self):
        c = self.id("c")
        assert self.upper.departures[c] == [self.id("a")]
        assert self.upper.arrivals[c] == [self.id("b")]


class TestUpperBoundProperties:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_upper_bound_contains_exact_answer(self, seed, k):
        graph = erdos_renyi(11, 2.0, seed=seed)
        source, target = 0, 10
        upper = build_upper(graph, source, target, k)
        exact = brute_force_spg(graph, source, target, k)
        assert exact <= upper.edges

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_theorem_4_8_exact_for_small_k(self, seed, k):
        graph = erdos_renyi(11, 2.0, seed=seed)
        source, target = 0, 10
        upper = build_upper(graph, source, target, k)
        exact = brute_force_spg(graph, source, target, k)
        assert upper.edges == exact

    @pytest.mark.parametrize("seed", range(6))
    def test_definite_edges_are_in_exact_answer(self, seed):
        graph = erdos_renyi(10, 2.2, seed=seed)
        source, target = 0, 9
        for k in (5, 6, 7):
            upper = build_upper(graph, source, target, k)
            exact = brute_force_spg(graph, source, target, k)
            assert upper.definite_edges <= exact

    def test_adjacency_matches_edges(self):
        graph = erdos_renyi(12, 2.0, seed=3)
        upper = build_upper(graph, 0, 11, 5)
        adjacency_edges = {
            (u, v) for u, nbrs in upper.out_adjacency.items() for v in nbrs
        }
        assert adjacency_edges == upper.edges

    def test_labels_partition_candidate_edges(self):
        graph = erdos_renyi(12, 2.0, seed=4)
        upper = build_upper(graph, 0, 11, 5)
        for edge, label in upper.labels.items():
            if label is EdgeLabel.FAILING:
                assert edge not in upper.edges
            elif label is EdgeLabel.DEFINITE:
                assert edge in upper.definite_edges
            else:
                assert edge in upper.undetermined_edges


class TestLabelEdgeUnit:
    def test_direct_edge_is_definite(self):
        graph = erdos_renyi(6, 1.0, seed=0)
        # Force a direct edge.
        from repro.graph.digraph import DiGraph

        graph = DiGraph(3, [(0, 2), (0, 1), (1, 2)])
        forward = propagate_forward(graph, 0, 2, 3, prune=False)
        backward = propagate_backward(graph, 0, 2, 3, prune=False)
        assert label_edge(0, 2, 0, 2, 3, forward, backward) is EdgeLabel.DEFINITE
        assert label_edge(0, 1, 0, 2, 3, forward, backward) is EdgeLabel.DEFINITE
        assert label_edge(1, 2, 0, 2, 3, forward, backward) is EdgeLabel.DEFINITE
