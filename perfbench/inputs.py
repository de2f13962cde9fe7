"""Seeded input generation for the benchmark workloads.

Everything the program receives -- graphs, queries, edge deltas -- is made
here from the ``--seed`` argument with the benchmark's own random streams,
so the inputs do not change when the program's generators change.  Each
workload draws from independent streams (``stream(seed, "name")``): the
graph stream and the query stream of one seed never coincide.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterator, List, Set, Tuple

Edge = Tuple[int, int]


def stream(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible random stream for one purpose."""
    return random.Random(f"{seed}:{purpose}")


def erdos_renyi_edges(n: int, average_degree: float, rng: random.Random) -> List[Edge]:
    """Directed G(n, m) with ``m = n * average_degree`` distinct non-loop edges."""
    target = int(round(n * average_degree))
    seen: Set[Edge] = set()
    edges: List[Edge] = []
    while len(edges) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return edges


def power_law_edges(
    n: int, out_edges: int, rng: random.Random, mirrored: float = 0.3
) -> List[Edge]:
    """Preferential attachment with ``out_edges`` per vertex, some mirrored.

    Every vertex after a small seed clique links to ``out_edges`` earlier
    vertices chosen proportionally to degree; a ``mirrored`` share of those
    edges also gets its reverse edge, which creates the short cycles and
    hubs of a transaction graph.  Every vertex has an out-edge, so an edge
    list names all ``n`` vertices.
    """
    core = out_edges + 1
    seen: Set[Edge] = set()
    edges: List[Edge] = []
    pool: List[int] = []

    def add(u: int, v: int) -> None:
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))

    for u in range(core):
        for v in range(core):
            if u != v:
                add(u, v)
                pool.append(v)
    for u in range(core, n):
        chosen: List[int] = []
        while len(chosen) < out_edges:
            v = pool[rng.randrange(len(pool))]
            if v not in chosen:
                chosen.append(v)
        for v in chosen:
            add(u, v)
            pool.append(v)
            pool.append(u)
            if rng.random() < mirrored:
                add(v, u)
    return edges


def lib_sparse_queries(n: int, rng: random.Random) -> Iterator[Tuple[int, int, int]]:
    """Endless distinct ``(s, t, k)``: uniform pairs, k uniform in 4..8.

    k comes in shuffled blocks holding each of 4..8 once, so every run
    sees the same k mix however many queries it reaches.
    """
    seen: Set[Tuple[int, int]] = set()
    while True:
        ks = [4, 5, 6, 7, 8]
        rng.shuffle(ks)
        for k in ks:
            while True:
                s = rng.randrange(n)
                t = rng.randrange(n)
                if s != t and (s, t) not in seen:
                    seen.add((s, t))
                    break
            yield s, t, k


def dense_batches(
    n: int,
    edges: List[Edge],
    rng: random.Random,
    groups_per_k: Dict[int, int],
    sources: int,
) -> Iterator[List[Tuple[int, int, int]]]:
    """Endless fraud-screening batches of ``(t, k)`` groups x ``sources``.

    Every batch holds ``groups_per_k[k]`` groups of each k, interleaved.
    The targets of one k are drawn one from each of that many in-degree
    strata: the mix of target degrees is that of uniform sampling, without
    the run-to-run swing a handful of uniform draws gives to the k = 8
    cost.  No ``(s, t, k)`` repeats within one stream.
    """
    in_degree = [0] * n
    for _, v in edges:
        in_degree[v] += 1
    by_degree = sorted(range(n), key=lambda v: (in_degree[v], v))
    plan: List[Tuple[int, int, List[int]]] = []  # (stratum index, k, stratum)
    for k, count in groups_per_k.items():
        size = n // count
        for index in range(count):
            plan.append((index, k, by_degree[index * size:(index + 1) * size]))
    # Interleave the ks so that the heavy groups spread over the batch.
    plan.sort(key=lambda group: group[:2])
    seen: Set[Tuple[int, int, int]] = set()
    while True:
        batch: List[Tuple[int, int, int]] = []
        for _, k, stratum in plan:
            t = rng.choice(stratum)
            members = 0
            while members < sources:
                s = rng.randrange(n)
                if s != t and (s, t, k) not in seen:
                    seen.add((s, t, k))
                    batch.append((s, t, k))
                    members += 1
        yield batch


def uniform_pairs(n: int, rng: random.Random) -> Iterator[Edge]:
    """Endless ``(u, v)`` with distinct endpoints drawn uniformly from ``0..n-1``."""
    while True:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            yield u, v


def distinct_keys(
    edges: List[Edge], rng: random.Random, count: int, ks: Tuple[int, ...]
) -> List[Tuple[int, int, int]]:
    """``count`` distinct ``(s, t, k)``, k cycling through ``ks``.

    s is the tail of a random edge and t the head of another, so queries
    favour active accounts and hubs the way screening queries do.
    """
    keys: List[Tuple[int, int, int]] = []
    seen: Set[Tuple[int, int, int]] = set()
    while len(keys) < count:
        s = edges[rng.randrange(len(edges))][0]
        t = edges[rng.randrange(len(edges))][1]
        key = (s, t, ks[len(keys) % len(ks)])
        if s != t and key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


class Zipf:
    """Draw ranks ``0..size-1`` with probability proportional to ``1/(rank+1)^a``."""

    def __init__(self, size: int, exponent: float = 1.0) -> None:
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(size):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)


def fresh_edges(
    present: Set[Edge], pairs: Iterator[Edge], count: int, used: Set[Edge]
) -> List[Edge]:
    """``count`` edges absent from ``present`` and never handed out before."""
    chosen: List[Edge] = []
    while len(chosen) < count:
        edge = next(pairs)
        if edge not in present and edge not in used:
            used.add(edge)
            chosen.append(edge)
    return chosen
