"""LRU query-result cache with stamp-based invalidation.

Serving workloads repeat queries (hot entities, retried clients); a
probe is pure given the index contents, so its result can be reused.
:class:`QueryCache` keys each entry with a stamp of the index state it
was computed from, and the first lookup that sees a newer stamp empties
the cache wholesale — entries can never outlive that state.

What the stamp covers is the caller's choice. ``IndexServer`` stamps
with :attr:`SimilarityIndex.binding`, which moves on ``rebind`` only:
an ``add`` merely appends, so the server keeps its entries and extends
a hit that predates appends with a probe of the appended records (see
``SimilarityIndex.query(since=)``); ``lookup``'s ``reusable`` test
turns an entry that cannot be extended into a miss, and ``store``'s
``patched`` flag counts the extensions. The sharded tier stamps with
each shard's ``(epoch, generation)``, which every ``add`` moves.

Thread-safety: all operations take the cache's own lock, never the
index's, so cache hits don't touch the read lock at all (that is the
point). A mutation racing a ``store`` can only cause the stale entry to
be dropped (the store is a no-op for non-current stamps) — never a
stale hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["QueryCache"]


class QueryCache:
    """Bounded LRU mapping ``query key -> list[MatchPair]``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._generation: int | None = None
        self._hits = 0
        self._misses = 0
        self._patched = 0
        self._invalidations = 0

    @staticmethod
    def key_for(item) -> tuple | None:
        """A hashable cache key for a query item, or None (uncacheable).

        Mirrors ``SimilarityIndex._tokens_of``: strings are tokenized
        by the index, so they key as themselves; token iterables key by
        their ``str()`` forms. Exotic items that fail either road are
        simply not cached — correctness never depends on a hit.
        """
        if isinstance(item, str):
            return ("text", item)
        try:
            return ("tokens", tuple(str(token) for token in item))
        except TypeError:
            return None

    def lookup(self, key: tuple, generation, reusable=None):
        """Return ``(hit, result)``; a stamp change flushes first.

        ``reusable(result)``, when given, vets a found entry: False
        counts the lookup as a miss (the entry stays until replaced).
        """
        with self._lock:
            if self._generation != generation:
                if self._entries:
                    self._invalidations += 1
                    self._entries.clear()
                self._generation = generation
            result = self._entries.get(key)
            if result is None or (reusable is not None and not reusable(result)):
                self._misses += 1
                return False, None
            self._entries.move_to_end(key)
            self._hits += 1
            return True, result

    def store(self, key: tuple, generation, result, patched: bool = False) -> None:
        """Insert a computed result; dropped when the index moved on.

        ``patched`` marks a result that extends a hit (counted in the
        ``patched`` share of ``hits`` even when dropped).
        """
        with self._lock:
            if patched:
                self._patched += 1
            if self._generation != generation:
                return
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/size snapshot for the health endpoint."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "patched": self._patched,
                "hit_rate": self._hits / total if total else 0.0,
                "invalidations": self._invalidations,
            }
