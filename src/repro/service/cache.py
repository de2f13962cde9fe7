"""LRU result cache keyed on query, config and graph fingerprint.

Results are immutable-by-convention (:class:`SimplePathGraphResult` objects
are shared between hits), so the cache hands out the stored object directly
— callers must not mutate it.  Including the graph fingerprint in the key
(:func:`repro.graph.digraph.DiGraph.fingerprint`) makes invalidation
automatic: after a graph swap or rebuild, old entries can never match and
simply age out of the LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro._types import Vertex
from repro.core.eve import EVEConfig
from repro.core.result import SimplePathGraphResult

__all__ = ["CacheKey", "make_cache_key", "ResultCache"]

#: ``(source, target, k, config, graph_fingerprint)``
CacheKey = Tuple[Vertex, Vertex, int, EVEConfig, str]


def make_cache_key(
    source: Vertex,
    target: Vertex,
    k: int,
    config: EVEConfig,
    graph_fingerprint: str,
) -> CacheKey:
    """Build the cache key for one query against one graph + config.

    :class:`EVEConfig` is a frozen dataclass, so it participates directly;
    two engines with different ablation switches never share entries (their
    results can legitimately differ when ``verify=False``).
    """
    return (source, target, k, config, graph_fingerprint)


class ResultCache:
    """A thread-safe LRU cache of :class:`SimplePathGraphResult` objects."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, SimplePathGraphResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[SimplePathGraphResult]:
        """Return the cached result for ``key`` or ``None`` (counts hit/miss)."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: CacheKey, result: SimplePathGraphResult) -> None:
        """Insert (or refresh) ``key``, evicting the least recently used."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Scoped invalidation (dynamic graphs)
    # ------------------------------------------------------------------
    def rekey_fingerprint(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        keep: Optional[Callable[[CacheKey], bool]] = None,
    ) -> Tuple[int, int]:
        """Migrate entries from one graph fingerprint to its successor.

        For every entry keyed on ``old_fingerprint``: if ``keep(key)`` is
        true the entry is re-inserted under ``new_fingerprint`` (its result
        is still exact on the successor graph — the caller proved its
        k-ball misses the touched region); otherwise it is dropped and
        counted in ``invalidations``.  ``keep=None`` drops everything, the
        conservative whole-flush.  Returns ``(invalidated, retained)``.

        Runs atomically under the lock, so a concurrent ``get`` sees either
        the old key or the new one, never a half-migrated table.  ``keep``
        runs with the lock held, so it must be pure and must not call back
        into the cache.  Hit/miss counters are untouched: invalidation is
        not a lookup.  Retained entries keep their stored result
        object and are refreshed to most-recently-used (they just survived
        a mutation — demonstrably still hot).
        """
        invalidated = 0
        retained = 0
        with self._lock:
            matching = [key for key in self._entries if key[4] == old_fingerprint]
            for key in matching:
                result = self._entries.pop(key)
                if keep is not None and keep(key):
                    new_key = (key[0], key[1], key[2], key[3], new_fingerprint)
                    self._entries[new_key] = result
                    retained += 1
                else:
                    invalidated += 1
            self.invalidations += invalidated
        return invalidated, retained

    def keys(self) -> List[CacheKey]:
        """Return a point-in-time list of the cached keys."""
        with self._lock:
            return list(self._entries.keys())

    def items(self) -> List[Tuple[CacheKey, SimplePathGraphResult]]:
        """Return a point-in-time list of ``(key, result)`` pairs.

        Unlike :meth:`get` this does not touch hit/miss counters or LRU
        order; it exists for invariant checks (the dynamic-graph harness
        audits every retained entry against a from-scratch oracle).
        """
        with self._lock:
            return list(self._entries.items())

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any lookup).

        Reads both counters under the lock, like :meth:`stats` — two
        unsynchronised reads could see a hit counted by a concurrent
        ``get`` whose miss sibling it misses (torn ratio) when batches
        overlap.
        """
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Return a point-in-time dictionary view of the counters."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        # One consistent snapshot under the lock (``len(self)`` re-acquires
        # it, so the values are read directly here).
        with self._lock:
            entries = len(self._entries)
            hits = self.hits
            misses = self.misses
        return (
            f"ResultCache(entries={entries}/{self.max_entries}, "
            f"hits={hits}, misses={misses})"
        )
