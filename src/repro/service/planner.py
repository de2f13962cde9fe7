"""Shared-work planning for batches of ``<s, t, k>`` queries.

EVE's backward distance pass depends only on ``(t, k)``, never on the
source (see :func:`repro.core.distances.backward_distance_map`).  The
planner therefore buckets a batch by ``(t, k)``: every group of two or more
queries computes that pass once and shares it, turning ``n`` backward
searches into one.  Since the CSR refactor the shared pass runs on the
graph's cached flat-array adjacency and returns an owned
:class:`~repro.core.distances.ArrayDistanceMap` — safe to share across the
group's queries and threads, while each member's forward search runs on
pooled scratch buffers.  Groups and the queries inside them keep the order
of first appearance in the batch, so planning is deterministic and results
can be slotted back by index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro._types import Vertex

__all__ = ["PlannedQuery", "QueryGroup", "BatchPlan", "plan_batch"]


@dataclass(frozen=True)
class PlannedQuery:
    """One query plus its position in the batch it was planned from."""

    index: int
    source: Vertex
    target: Vertex
    k: int


@dataclass
class QueryGroup:
    """Queries sharing one ``(target, k)`` pair.

    ``shared`` marks groups of two or more queries, which precompute the
    backward pass once; singleton groups run the normal per-query
    strategy (a full backward BFS could cost *more* than the adaptive
    bi-directional search for a single query).
    """

    target: Vertex
    k: int
    shared: bool
    queries: List[PlannedQuery] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.queries)


@dataclass
class BatchPlan:
    """The grouped execution plan for one batch."""

    groups: List[QueryGroup] = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return sum(group.size for group in self.groups)

    @property
    def num_shared_groups(self) -> int:
        return sum(1 for group in self.groups if group.shared)

    @property
    def reused_backward_passes(self) -> int:
        """Backward passes saved versus running every query cold."""
        return sum(group.size - 1 for group in self.groups if group.shared)


def plan_batch(queries: Sequence[Tuple[Vertex, Vertex, int]]) -> BatchPlan:
    """Group ``(source, target, k)`` tuples by shared ``(target, k)``.

    Every group of two or more queries shares one backward pass.
    """
    buckets: Dict[Tuple[Vertex, int], List[PlannedQuery]] = {}
    for index, (source, target, k) in enumerate(queries):
        buckets.setdefault((target, k), []).append(
            PlannedQuery(index=index, source=source, target=target, k=k)
        )
    plan = BatchPlan()
    for (target, k), planned in buckets.items():
        plan.groups.append(
            QueryGroup(
                target=target,
                k=k,
                shared=len(planned) > 1,
                queries=planned,
            )
        )
    return plan
