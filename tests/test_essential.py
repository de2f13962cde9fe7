"""Tests for essential-vertex propagation (Section 3).

The expected values come from the paper's Figure 5(a)/(b): essential vertex
sets ``EV*_l(s, .)`` and ``EV*_l(., t)`` for the Figure 1 graph.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.validate import brute_force_paths
from repro.core.distances import compute_distance_index
from repro.core.essential import propagate_backward, propagate_forward
from repro.core.space import SpaceMeter
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi


def definition_essential_vertices(graph, source, vertex, level, excluded):
    """EV*_l straight from Definition 3.1 (intersection over simple paths)."""
    sets = []
    for path in brute_force_paths(graph, source, vertex, level):
        if excluded in path:
            continue
        sets.append(set(path))
    if not sets:
        return None
    result = sets[0]
    for vertex_set in sets[1:]:
        result = result & vertex_set
    return result


class TestFigure5:
    """Exact values printed in Figure 5(a)/(b) of the paper (k = 7)."""

    @pytest.fixture(autouse=True)
    def _setup(self, figure1):
        self.graph, builder = figure1
        self.id = builder.vertex_id
        self.s = self.id("s")
        self.t = self.id("t")
        self.k = 7
        self.forward = propagate_forward(self.graph, self.s, self.t, self.k, prune=False)
        self.backward = propagate_backward(self.graph, self.s, self.t, self.k, prune=False)

    def expect_forward(self, vertex_label, level, expected_labels):
        actual = self.forward.get(self.id(vertex_label), level)
        expected = {self.id(x) for x in expected_labels}
        assert actual == expected, f"EV_{level}(s, {vertex_label})"

    def expect_backward(self, vertex_label, level, expected_labels):
        actual = self.backward.get(self.id(vertex_label), level)
        expected = {self.id(x) for x in expected_labels}
        assert actual == expected, f"EV_{level}({vertex_label}, t)"

    def test_forward_level_1(self):
        self.expect_forward("a", 1, {"s", "a"})
        self.expect_forward("c", 1, {"s", "c"})
        assert self.forward.get(self.id("b"), 1) is None
        assert self.forward.get(self.id("h"), 1) is None

    def test_forward_level_2(self):
        self.expect_forward("b", 2, {"s", "c", "b"})
        self.expect_forward("h", 2, {"s", "a", "h"})
        self.expect_forward("i", 2, {"s", "a", "i"})
        assert self.forward.get(self.id("j"), 2) is None

    def test_forward_level_3(self):
        self.expect_forward("b", 3, {"s", "b"})
        self.expect_forward("j", 3, {"s", "j"})
        self.expect_forward("a", 3, {"s", "a"})

    def test_forward_level_4_and_5(self):
        self.expect_forward("h", 4, {"s", "h"})
        self.expect_forward("c", 4, {"s", "c"})
        self.expect_forward("b", 5, {"s", "b"})

    def test_backward_level_1(self):
        self.expect_backward("b", 1, {"b", "t"})
        self.expect_backward("c", 1, {"c", "t"})
        assert self.backward.get(self.id("a"), 1) is None

    def test_backward_level_2(self):
        self.expect_backward("a", 2, {"a", "c", "t"})
        self.expect_backward("h", 2, {"h", "b", "t"})

    def test_backward_level_3(self):
        self.expect_backward("a", 3, {"a", "t"})
        self.expect_backward("j", 3, {"j", "h", "b", "t"})

    def test_backward_level_4(self):
        self.expect_backward("i", 4, {"i", "j", "h", "b", "t"})

    def test_example_3_2(self):
        """Example 3.2: EV*_2(s, b) = {s, c, b}, EV*_3(s, b) = {s, b}."""
        self.expect_forward("b", 2, {"s", "c", "b"})
        self.expect_forward("b", 3, {"s", "b"})


class TestAgainstDefinition:
    """Propagation must match Definition 3.1 on random graphs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_matches_definition(self, seed):
        graph = erdos_renyi(9, 1.8, seed=seed)
        source, target = 0, 8
        k = 6
        index = propagate_forward(graph, source, target, k, prune=False)
        for vertex in graph.vertices():
            if vertex in (source, target):
                continue
            for level in range(1, k):
                expected = definition_essential_vertices(graph, source, vertex, level, target)
                assert index.get(vertex, level) == (
                    frozenset(expected) if expected is not None else None
                ), (seed, vertex, level)

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_matches_definition(self, seed):
        graph = erdos_renyi(9, 1.8, seed=seed)
        source, target = 0, 8
        k = 6
        index = propagate_backward(graph, source, target, k, prune=False)
        for vertex in graph.vertices():
            if vertex in (source, target):
                continue
            for level in range(1, k):
                expected = definition_essential_vertices(graph, vertex, target, level, source)
                assert index.get(vertex, level) == (
                    frozenset(expected) if expected is not None else None
                ), (seed, vertex, level)


class TestInheritanceFix:
    """The scenario of DESIGN.md: a short and a long route into the same vertex."""

    def test_long_route_intersects_with_short_route(self):
        # s -> x1 -> y  (short)   and   s -> a -> b -> x2 -> y  (long);
        # the target 6 sits behind y so nothing is excluded on the way.
        graph = DiGraph.from_edge_list(
            [(0, 1), (1, 5), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        )
        index = propagate_forward(graph, 0, 6, 7, prune=False)
        # With only the short route known, x1 (=1) is essential.
        assert index.get(5, 2) == frozenset({0, 1, 5})
        # Once the long route arrives at level 4, only s and y remain common;
        # Algorithm 1 as printed would return {0, 2, 3, 4, 5} here.
        assert index.get(5, 4) == frozenset({0, 5})


class TestPruning:
    """Forward-looking pruning never affects the upper bound (Theorem 3.6)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_sets_are_consistent_where_needed(self, seed):
        graph = erdos_renyi(10, 2.0, seed=seed)
        source, target = 0, 9
        k = 5
        distances = compute_distance_index(graph, source, target, k)
        pruned = propagate_forward(graph, source, target, k, distances=distances, prune=True)
        full = propagate_forward(graph, source, target, k, prune=False)
        # Wherever a pruned entry exists at a level still relevant for some
        # edge (level + dist(u, t) <= k), it must agree with the unpruned run.
        for vertex in pruned.reached_vertices():
            to_target = distances.dist_to_target(vertex)
            for level in range(1, k):
                if level + to_target > k:
                    continue
                assert pruned.get(vertex, level) == full.get(vertex, level)

    def test_pruning_reduces_stored_entries(self):
        graph = erdos_renyi(60, 4.0, seed=3)
        source, target = 0, 59
        k = 5
        distances = compute_distance_index(graph, source, target, k)
        pruned = propagate_forward(graph, source, target, k, distances=distances, prune=True)
        full = propagate_forward(graph, source, target, k, prune=False)
        assert pruned.stored_entries() <= full.stored_entries()


class TestIndexBasics:
    def test_anchor_recorded_at_level_zero(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        index = propagate_forward(graph, 0, 2, 4, prune=False)
        assert index.get(0, 0) == frozenset({0})
        assert index.exists(0, 3)
        assert index.first_level(0) == 0

    def test_unreached_vertex_has_no_sets(self):
        graph = DiGraph(4, [(0, 1), (2, 3)])
        index = propagate_forward(graph, 0, 3, 4, prune=False)
        assert index.get(2, 3) is None
        assert not index.exists(2, 3)
        assert index.first_level(2) is None

    def test_excluded_vertex_is_never_reached(self):
        # All paths to 2 go through the excluded target 1.
        graph = DiGraph(3, [(0, 1), (1, 2)])
        index = propagate_forward(graph, 0, 1, 4, prune=False)
        assert index.get(2, 3) is None

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("prune", [True, False])
    def test_space_meter_records_allocations(self, k, prune):
        """The meter holds every item a direction stored, once per direction.

        The anchor's own entry ``(anchor,)`` is the query endpoint, not an
        essential-vertex set, and is not counted.
        """
        graph = erdos_renyi(20, 2.5, seed=1)
        distances = compute_distance_index(graph, 0, 19, k)
        meter = SpaceMeter()
        forward = propagate_forward(graph, 0, 19, k, distances, prune=prune, space=meter)
        backward = propagate_backward(graph, 0, 19, k, distances, prune=prune, space=meter)
        assert forward.stored_items() > 1 and backward.stored_items() > 1
        assert meter.breakdown() == {
            "ev-forward": forward.stored_items() - 1,
            "ev-backward": backward.stored_items() - 1,
        }
        assert meter.peak == meter.current == sum(meter.breakdown().values())

    def test_repr_mentions_direction(self):
        graph = DiGraph(3, [(0, 1), (1, 2)])
        index = propagate_forward(graph, 0, 2, 3, prune=False)
        assert "forward" in repr(index)
