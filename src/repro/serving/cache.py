"""LRU query-answer cache, and the one rule every served index keeps.

Serving workloads repeat queries (hot entities, retried clients); a
probe is pure given the index contents, so its answer can be reused.
``IndexServer``'s index and every local or remote shard of
``ShardedIndexServer`` serve through the same step:
:meth:`QueryCache.lookup` looks the query up and vets the entry,
:func:`query` probes (extending that entry with ``since=`` when there
is one), and :meth:`QueryCache.store` keeps the answer.

Entries are stamped with the index's ``binding`` (on a shard, paired
with its flip epoch), and the first lookup that sees a new stamp
empties the cache. The stamp moves on a rebind or a flip, never on an
``add``: appends change no indexed record, so an entry stays exact for
the records it answers and a probe of the appended records extends it.
An entry that cannot be extended (its query had a token the index
lacked) scores that token by an id past the end of the vocabulary, so
it is a miss once the index has more records or the vocabulary has
grown — shards sharing one vocabulary grow it on each other's adds.

Thread-safety: all operations take the cache's own lock, never the
index's, so cache hits don't touch the read lock at all (that is the
point). A mutation racing a ``store`` can only cause the stale entry to
be dropped (the store is a no-op for non-current stamps) — never a
stale hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["QueryCache", "query"]


def query(index, item, context, since=None):
    """``index.query(item, context=context)``, passing ``since=`` only
    when there is an answer to extend — a plain probe stays a call any
    ``(item, context)`` stand-in for an index can serve."""
    if since is None:
        return index.query(item, context=context)
    return index.query(item, context=context, since=since)


class QueryCache:
    """Bounded LRU mapping ``query key -> QueryAnswer``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._stamp = None
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

    def lookup(self, key: tuple, stamp, records: int, vocabulary: int = 0):
        """Look up and vet: ``(answer, since)``; a new stamp flushes first.

        ``answer`` is an entry answering all the index's ``records``,
        to serve as is. An entry answering fewer is ``since``, to
        extend — a hit, counted in ``patched`` — or, when it cannot be
        extended, a miss (it stays until replaced). An entry that
        cannot be extended is also a miss when ``vocabulary`` (the
        size of the token-id space) differs from the one it was stored
        with.
        """
        with self._lock:
            if self._stamp != stamp:
                if self._entries:
                    self._invalidations += 1
                    self._entries.clear()
                self._stamp = stamp
            entry, seen = self._entries.get(key, (None, None))
            if entry is None or (
                not entry.extendable
                and (entry.records < records or seen != vocabulary)
            ):
                self._misses += 1
                return None, None
            self._entries.move_to_end(key)
            self._hits += 1
            if entry.records >= records:
                return entry, None
            self._patched += 1
            return None, entry

    def store(self, key: tuple, stamp, answer, vocabulary: int = 0) -> None:
        """Insert a computed answer; dropped when the index moved on.

        ``vocabulary`` is the token-id space's size read *before* the
        probe: a vocabulary grown during it makes the entry look older
        than it is, which only costs a miss.
        """
        with self._lock:
            if self._stamp != stamp:
                return
            self._entries[key] = (answer, vocabulary)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/size snapshot for the health endpoint; ``patched``
        counts the hits extended past appends."""
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
