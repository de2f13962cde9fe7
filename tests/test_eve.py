"""End-to-end tests of the EVE query driver."""

from __future__ import annotations

import pytest

from repro import EVE, EVEConfig, build_spg, build_upper_bound
from repro.analysis.validate import brute_force_spg
from repro.core.result import EdgeLabel
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, layered_dag, power_law_cluster


class TestFigure1:
    """The motivating example: Figure 1(a) with k = 4 (Figure 1(c))."""

    def test_spg4_matches_figure_1c(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), 4)
        expected = {
            (vid("s"), vid("c")),
            (vid("s"), vid("a")),
            (vid("a"), vid("c")),
            (vid("a"), vid("h")),
            (vid("h"), vid("b")),
            (vid("c"), vid("t")),
            (vid("c"), vid("b")),
            (vid("b"), vid("t")),
        }
        assert result.edges == expected
        assert result.exact

    def test_vertices_match_figure_1c(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), 4)
        expected_vertices = {vid(x) for x in ("s", "a", "c", "b", "h", "t")}
        assert set(result.vertices) == expected_vertices

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_k_match_brute_force(self, figure1, k):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), k)
        assert result.edges == brute_force_spg(graph, vid("s"), vid("t"), k)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dense_graphs(self, seed):
        graph = erdos_renyi(12, 2.2, seed=seed)
        for k in range(1, 8):
            result = build_spg(graph, 0, 11, k)
            assert result.edges == brute_force_spg(graph, 0, 11, k), (seed, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_power_law_graphs(self, seed):
        graph = power_law_cluster(14, 2, seed=seed)
        for k in (3, 5, 7):
            result = build_spg(graph, 0, 13, k)
            assert result.edges == brute_force_spg(graph, 0, 13, k), (seed, k)

    def test_layered_dag(self):
        graph = layered_dag(5, 3, forward_probability=0.7, seed=2)
        result = build_spg(graph, 0, graph.num_vertices - 1, 4)
        assert result.edges == brute_force_spg(graph, 0, graph.num_vertices - 1, 4)

    def test_unreachable_pair_gives_empty_result(self):
        graph = DiGraph(4, [(0, 1), (2, 3)])
        result = build_spg(graph, 0, 3, 5)
        assert result.is_empty
        assert result.num_edges == 0
        assert result.exact

    def test_target_too_far_for_k(self):
        graph = DiGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        result = build_spg(graph, 0, 3, 2)
        assert result.is_empty

    def test_direct_edge_only(self):
        graph = DiGraph(2, [(0, 1)])
        result = build_spg(graph, 0, 1, 1)
        assert result.edges == {(0, 1)}


class TestConfigurations:
    """All ablation variants must return the same exact answer."""

    CONFIGS = [
        EVEConfig(),
        EVEConfig.naive(),
        EVEConfig(distance_strategy="single"),
        EVEConfig(distance_strategy="bidirectional"),
        EVEConfig(forward_looking=False),
        EVEConfig(search_ordering=False),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.distance_strategy}-fl{c.forward_looking}-so{c.search_ordering}")
    @pytest.mark.parametrize("seed", range(4))
    def test_variants_agree(self, config, seed):
        graph = erdos_renyi(12, 2.0, seed=seed)
        expected = brute_force_spg(graph, 0, 11, 6)
        result = build_spg(graph, 0, 11, 6, config=config)
        assert result.edges == expected

    def test_invalid_strategy_rejected(self):
        with pytest.raises(QueryError):
            EVEConfig(distance_strategy="warp")

    def test_with_overrides(self):
        config = EVEConfig().with_overrides(forward_looking=False)
        assert not config.forward_looking
        assert config.distance_strategy == "adaptive"

    def test_no_verify_returns_upper_bound(self):
        graph = erdos_renyi(12, 2.5, seed=9)
        upper_only = build_upper_bound(graph, 0, 11, 6)
        exact = brute_force_spg(graph, 0, 11, 6)
        assert exact <= upper_only.edges
        assert upper_only.algorithm == "EVE-upper-bound"

    def test_no_verify_is_exact_for_small_k(self):
        graph = erdos_renyi(12, 2.5, seed=9)
        upper_only = build_upper_bound(graph, 0, 11, 4)
        assert upper_only.exact
        assert upper_only.edges == brute_force_spg(graph, 0, 11, 4)


class TestQueryValidation:
    def test_same_source_and_target(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(QueryError):
            build_spg(graph, 0, 0, 3)

    def test_bad_k(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(QueryError):
            build_spg(graph, 0, 1, 0)

    def test_bad_vertex(self):
        graph = DiGraph(3, [(0, 1)])
        from repro.exceptions import VertexError

        with pytest.raises(VertexError):
            build_spg(graph, 0, 7, 3)


class TestResultMetadata:
    def test_phase_stats_are_populated(self):
        graph = erdos_renyi(30, 3.0, seed=11)
        result = build_spg(graph, 0, 29, 6)
        assert result.phases.total_seconds > 0
        breakdown = result.phases.as_dict()
        assert set(breakdown) == {
            "distance",
            "propagation",
            "upper_bound",
            "ordering",
            "verification",
            "total",
        }

    def test_labels_cover_upper_bound(self):
        graph = erdos_renyi(15, 2.0, seed=8)
        result = build_spg(graph, 0, 14, 5)
        for edge in result.upper_bound_edges:
            assert result.labels[edge] in (EdgeLabel.DEFINITE, EdgeLabel.UNDETERMINED)

    def test_space_meter_positive_for_reachable_query(self):
        graph = erdos_renyi(15, 2.5, seed=8)
        result = build_spg(graph, 0, 14, 5)
        if not result.is_empty:
            assert result.space.peak > 0

    def test_engine_reuse_across_queries(self):
        graph = erdos_renyi(20, 2.0, seed=13)
        engine = EVE(graph)
        first = engine.query(0, 19, 4)
        second = engine.query(1, 18, 4)
        assert first.edges == brute_force_spg(graph, 0, 19, 4)
        assert second.edges == brute_force_spg(graph, 1, 18, 4)

    def test_to_graph_roundtrip(self):
        graph = erdos_renyi(12, 2.0, seed=3)
        result = build_spg(graph, 0, 11, 5)
        subgraph = result.to_graph(graph)
        assert set(subgraph.edges()) == result.edges
        upper_graph = result.upper_bound_graph(graph)
        assert set(upper_graph.edges()) == result.upper_bound_edges


#: Categories of EVE's space report, in the order its phases record them.
_SPACE_CATEGORIES = (
    "distances",
    "ev-forward",
    "ev-backward",
    "edge-labels",
    "upper-bound-graph",
    "boundaries",
)


def _breakdown(*counts, stack=None):
    """A ``SpaceMeter.breakdown()``: one count per category, in order.

    ``stack`` is the ``verification-stack`` entry, absent when no
    undetermined edge was searched.
    """
    breakdown = dict(zip(_SPACE_CATEGORIES, counts))
    if stack is not None:
        breakdown["verification-stack"] = stack
    return breakdown


#: ``(config, s, t, k) -> (space.peak, space.breakdown())`` of EVE on
#: ``erdos_renyi(60, 2.5, seed=5)``: the figures that recording every stored
#: entry and every stack push and pop one at a time gives.  The searches
#: reach stack depths 1 to 3, several below their cap of ``k - 4``.
_PINNED_SPACE = {
    ("default", 15, 24, 4): (62, _breakdown(19, 12, 12, 8, 7, 4)),
    ("default", 15, 24, 5): (77, _breakdown(24, 12, 14, 10, 8, 4, stack=0)),
    ("default", 15, 24, 6): (135, _breakdown(36, 26, 34, 16, 12, 5, stack=0)),
    ("default", 15, 24, 7): (178, _breakdown(45, 36, 50, 19, 16, 5, stack=0)),
    ("default", 15, 24, 8): (267, _breakdown(63, 77, 68, 31, 16, 5, stack=0)),
    ("default", 13, 26, 4): (72, _breakdown(23, 12, 16, 9, 8, 4)),
    ("default", 13, 26, 5): (90, _breakdown(31, 12, 23, 12, 8, 4)),
    ("default", 13, 26, 6): (133, _breakdown(44, 19, 32, 16, 11, 5, stack=0)),
    ("default", 13, 26, 7): (152, _breakdown(56, 26, 32, 16, 11, 5, stack=0)),
    ("default", 13, 26, 8): (291, _breakdown(79, 48, 99, 43, 11, 5, stack=0)),
    ("naive", 15, 24, 4): (167, _breakdown(56, 59, 33, 8, 7, 4)),
    ("naive", 15, 24, 5): (333, _breakdown(82, 133, 91, 10, 8, 4, stack=0)),
    ("naive", 15, 24, 6): (546, _breakdown(99, 221, 187, 16, 12, 5, stack=0)),
    ("naive", 15, 24, 7): (750, _breakdown(104, 301, 298, 19, 16, 5, stack=0)),
    ("naive", 15, 24, 8): (895, _breakdown(104, 330, 402, 31, 16, 5, stack=0)),
    ("naive", 13, 26, 4): (167, _breakdown(69, 46, 31, 9, 8, 4)),
    ("naive", 13, 26, 5): (275, _breakdown(91, 76, 84, 12, 8, 4)),
    ("naive", 13, 26, 6): (451, _breakdown(101, 134, 178, 16, 11, 5, stack=0)),
    ("naive", 13, 26, 7): (625, _breakdown(104, 202, 281, 16, 11, 5, stack=0)),
    ("naive", 13, 26, 8): (817, _breakdown(104, 280, 368, 43, 11, 5, stack=0)),
}


class TestReportedSpace:
    """EVE's space report (the paper's Figures 9 and 10(a)) is pinned.

    Propagation and verification record their space once per phase, from
    counts the kernels keep, and must report what per-item records give.
    """

    @pytest.mark.parametrize("key", sorted(_PINNED_SPACE))
    def test_peak_and_breakdown_match_pinned_values(self, key):
        name, source, target, k = key
        config = EVEConfig() if name == "default" else EVEConfig.naive()
        result = build_spg(erdos_renyi(60, 2.5, seed=5), source, target, k, config)
        assert (result.space.peak, result.space.breakdown()) == _PINNED_SPACE[key]
