"""repro — hop-constrained s-t simple path graphs (EVE), reproduced in Python.

This library reproduces the SIGMOD 2023 paper *"Towards Generating
Hop-constrained s-t Simple Path Graphs"* (Cai, Liu, Zheng, Lin): given a
directed graph, a source ``s``, a target ``t`` and a hop constraint ``k``,
it computes the subgraph formed by *all* simple paths from ``s`` to ``t``
of length at most ``k`` — without enumerating those paths.

Most users only need three entry points:

* :class:`repro.graph.DiGraph` / :class:`repro.graph.GraphBuilder` — build a
  graph from edges (arbitrary labels supported through the builder);
* :func:`repro.core.build_spg` — answer a ``<s, t, k>`` query with EVE;
* :class:`repro.service.SPGEngine` — serve single queries, batches and
  streams with result caching, shared-work batch planning and a concurrent
  executor (also a CLI: ``python -m repro.service``);
* :mod:`repro.enumeration` — hop-constrained simple path enumerators
  (PathEnum, JOIN, BC-DFS ...), which the computed simple path graph can
  accelerate by restricting their search space.

The experiment harness that regenerates every table and figure of the paper
lives in :mod:`repro.bench` (``python -m repro.bench --help``).
"""

from repro.core.eve import EVE, EVEConfig, build_spg, build_upper_bound
from repro.core.result import EdgeLabel, SimplePathGraphResult
from repro.exceptions import (
    DatasetError,
    EdgeError,
    ExperimentError,
    GraphError,
    QueryError,
    ReproError,
    VertexError,
)
from repro.graph.builder import GraphBuilder, build_graph
from repro.graph.digraph import DiGraph
from repro.khsq.khsq import k_hop_subgraph
from repro.service.engine import BatchReport, QueryOutcome, SPGAnswer, SPGEngine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph construction
    "DiGraph",
    "GraphBuilder",
    "build_graph",
    # the paper's algorithm
    "EVE",
    "EVEConfig",
    "build_spg",
    "build_upper_bound",
    "SimplePathGraphResult",
    "EdgeLabel",
    "k_hop_subgraph",
    # the serving layer
    "SPGEngine",
    "SPGAnswer",
    "QueryOutcome",
    "BatchReport",
    # errors
    "ReproError",
    "GraphError",
    "VertexError",
    "EdgeError",
    "QueryError",
    "DatasetError",
    "ExperimentError",
]
