"""LRU result cache keyed on query, config and graph fingerprint.

Results are immutable-by-convention (:class:`SimplePathGraphResult` objects
are shared between hits), so the cache hands out the stored object directly
— callers must not mutate it.  Including the graph fingerprint in the key
(:func:`repro.graph.digraph.DiGraph.fingerprint`) makes invalidation
automatic: after a graph swap or rebuild, old entries can never match and
simply age out of the LRU.

The cache counts only its own size and evictions: hits and misses are
counted once, per served query, by :class:`repro.service.stats.EngineStats`.
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
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[SimplePathGraphResult]:
        """Return the cached result for ``key`` or ``None``."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
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
        """Drop every entry (the eviction count is kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Scoped invalidation (dynamic graphs)
    # ------------------------------------------------------------------
    def rekey_fingerprint(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        keep: Callable[[CacheKey], bool],
    ) -> Tuple[int, int]:
        """Migrate entries from one graph fingerprint to its successor.

        For every entry keyed on ``old_fingerprint``: if ``keep(key)`` is
        true the entry is re-inserted under ``new_fingerprint`` (its result
        is still exact on the successor graph — the caller proved its
        k-ball misses the touched region); otherwise it is dropped.
        Returns ``(invalidated, retained)``.

        Runs atomically under the lock, so a concurrent ``get`` sees either
        the old key or the new one, never a half-migrated table.  ``keep``
        runs with the lock held, so it must be pure and must not call back
        into the cache.  Retained entries keep their stored result
        object and are refreshed to most-recently-used (they just survived
        a mutation — demonstrably still hot).
        """
        invalidated = 0
        retained = 0
        with self._lock:
            matching = [key for key in self._entries if key[4] == old_fingerprint]
            for key in matching:
                result = self._entries.pop(key)
                if keep(key):
                    new_key = (key[0], key[1], key[2], key[3], new_fingerprint)
                    self._entries[new_key] = result
                    retained += 1
                else:
                    invalidated += 1
        return invalidated, retained

    def keys(self) -> List[CacheKey]:
        """Return a point-in-time list of the cached keys."""
        with self._lock:
            return list(self._entries.keys())

    def items(self) -> List[Tuple[CacheKey, SimplePathGraphResult]]:
        """Return a point-in-time list of ``(key, result)`` pairs.

        Unlike :meth:`get` this does not touch the LRU order; it exists for
        invariant checks (the dynamic-graph harness
        audits every retained entry against a from-scratch oracle).
        """
        with self._lock:
            return list(self._entries.items())

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Return a point-in-time dictionary of the size and evictions."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        # ``len(self)`` takes the lock.
        return (
            f"ResultCache(entries={len(self)}/{self.max_entries}, "
            f"evictions={self.evictions})"
        )
