"""QueryCache semantics + IndexServer cache integration."""

import threading

import pytest

from repro import OverlapPredicate
from repro.core.service import QueryAnswer, SimilarityIndex
from repro.serving import IndexServer, QueryCache, ShardedIndexServer
from repro.text.tokenizers import tokenize_words

WAIT = 10.0

TEXTS = [
    "efficient set joins on similarity predicates",
    "set joins with similarity predicates made efficient",
    "completely different words entirely",
    "probe count optimized merge joins",
]

#: Extra records so the sharded tier holds matches on both shards.
SHARD_TEXTS = [
    "efficient set joins revisited",
    "joins over set data made efficient",
]


def _index(**kwargs) -> SimilarityIndex:
    index = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words, **kwargs)
    for text in TEXTS:
        index.add(text)
    return index


def _answer(records: int) -> QueryAnswer:
    """A cached answer over ``records`` records (its pairs don't matter)."""
    return QueryAnswer((), records=records, binding=7)


class TestQueryCache:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryCache(0)

    def test_key_for(self):
        assert QueryCache.key_for("a b") == ("text", "a b")
        assert QueryCache.key_for(["a", "b"]) == ("tokens", ("a", "b"))
        assert QueryCache.key_for(7) is None  # not iterable: uncacheable

    def test_hit_after_store(self):
        cache = QueryCache(4)
        key = QueryCache.key_for("q")
        assert cache.lookup(key, 1, 3) == (None, None)
        result = _answer(3)
        cache.store(key, 1, result)
        answer, since = cache.lookup(key, 1, 3)
        assert answer is result and since is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_lru_eviction_order(self):
        cache = QueryCache(2)
        cache.lookup(QueryCache.key_for("a"), 0, 0)  # pin stamp 0
        answers = {name: _answer(0) for name in "abc"}
        for name in ("a", "b"):
            cache.store(QueryCache.key_for(name), 0, answers[name])
        # Touch "a" so "b" becomes least recently used, then overflow.
        assert cache.lookup(QueryCache.key_for("a"), 0, 0)[0] is answers["a"]
        cache.store(QueryCache.key_for("c"), 0, answers["c"])
        assert cache.lookup(QueryCache.key_for("b"), 0, 0) == (None, None)
        assert cache.lookup(QueryCache.key_for("a"), 0, 0)[0] is answers["a"]
        assert cache.stats()["size"] == 2

    def test_stamp_change_flushes(self):
        cache = QueryCache(4)
        cache.lookup(QueryCache.key_for("q"), 1, 0)  # pin stamp 1
        cache.store(QueryCache.key_for("q"), 1, _answer(0))
        assert cache.lookup(QueryCache.key_for("q"), 2, 0) == (None, None)
        assert cache.stats()["invalidations"] == 1
        # The flushed entry must not resurface at the old stamp either:
        # the cache now tracks stamp 2.
        assert cache.lookup(QueryCache.key_for("q"), 2, 0) == (None, None)

    def test_record_count_vets_found_entries(self):
        cache = QueryCache(4)
        open_key, closed_key = QueryCache.key_for("open"), QueryCache.key_for("shut")
        cache.lookup(open_key, 0, 2)  # pin stamp 0
        extendable = _answer(2)
        closed = QueryAnswer((), records=2, binding=7, extendable=False)
        cache.store(open_key, 0, extendable)
        cache.store(closed_key, 0, closed)
        # Answers every record: served as is, extendable or not.
        for key, entry in ((open_key, extendable), (closed_key, closed)):
            answer, since = cache.lookup(key, 0, 2)
            assert answer is entry and since is None
        # Records appended since: extend it, or miss when it cannot be.
        answer, since = cache.lookup(open_key, 0, 3)
        assert answer is None and since is extendable
        assert cache.lookup(closed_key, 0, 3) == (None, None)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["patched"]) == (3, 2, 1)
        assert stats["size"] == 2  # the unextendable entry stays

    def test_stale_store_dropped(self):
        cache = QueryCache(4)
        cache.lookup(QueryCache.key_for("x"), 5, 0)  # pin stamp 5
        cache.store(QueryCache.key_for("q"), 4, _answer(0))
        assert cache.lookup(QueryCache.key_for("q"), 5, 0) == (None, None)


class TestIndexBinding:
    def test_rebind_moves_the_stamp_and_add_keeps_it(self):
        index = _index()
        before = index.binding
        index.add("one more record here")
        assert index.binding == before
        index.rebind()
        assert index.binding not in (0, before)

    def test_no_two_indexes_share_a_stamp(self):
        # Built alike, two indexes still bind to different stamps, so
        # neither takes the other's answer for its own to extend.
        assert _index().binding != _index().binding
        first = _index()
        second = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
        for text in reversed(TEXTS):
            second.add(text)
        old, fresh = first.query(TEXTS[0]), second.query(TEXTS[0])
        assert old.records == fresh.records and old != fresh
        assert second.query(TEXTS[0], since=old) == fresh


class TestServerCache:
    def _serve(self, **kwargs):
        return IndexServer(_index(), workers=2, **kwargs).start()

    def test_repeat_query_hits_cache(self):
        server = self._serve(query_cache=8)
        try:
            first = server.query(TEXTS[0], timeout=WAIT)
            second = server.query(TEXTS[0], timeout=WAIT)
            assert [p.rid_b for p in second] == [p.rid_b for p in first]
            stats = server.health()["cache"]
            assert stats["hits"] == 1 and stats["misses"] == 1
        finally:
            server.drain()

    def test_answers_match_index(self):
        server = self._serve(query_cache=8)
        try:
            for _ in range(2):  # cold, then from the cache
                assert [
                    [(p.rid_b, p.similarity) for p in server.query(t, timeout=WAIT)]
                    for t in TEXTS
                ] == [
                    [(p.rid_b, p.similarity) for p in server.index.query(t)]
                    for t in TEXTS
                ]
            assert server.health()["cache"]["hits"] == len(TEXTS)
        finally:
            server.drain()

    def test_distinct_queries_cached_separately(self):
        server = self._serve(query_cache=8)
        try:
            first = [server.query(t, timeout=WAIT) for t in (TEXTS[0], TEXTS[2])]
            again = [server.query(t, timeout=WAIT) for t in (TEXTS[0], TEXTS[2])]
            assert [[p.rid_b for p in row] for row in again] == [
                [p.rid_b for p in row] for row in first
            ]
            stats = server.health()["cache"]
            assert (stats["hits"], stats["misses"]) == (2, 2)
        finally:
            server.drain()

    def test_text_and_token_list_keys_differ(self):
        server = self._serve(query_cache=8)
        try:
            text = server.query("efficient set joins", timeout=WAIT)
            tokens = server.query(["efficient", "set", "joins"], timeout=WAIT)
            assert [p.rid_b for p in tokens] == [p.rid_b for p in text]
            stats = server.health()["cache"]
            assert (stats["hits"], stats["misses"]) == (0, 2)
        finally:
            server.drain()

    def test_repeat_iterator_query_hits_cache(self):
        tokens = ["probe", "count", "merge"]
        server = self._serve(query_cache=8)
        try:
            first = server.query(iter(tokens), timeout=WAIT)
            second = server.query(iter(tokens), timeout=WAIT)
            assert first and second == first
            assert second == server.index.query(tokens)
            assert server.health()["cache"]["hits"] == 1
        finally:
            server.drain()

    def test_mutation_invalidates(self):
        server = self._serve(query_cache=8)
        try:
            before = server.query(TEXTS[0], timeout=WAIT)
            server.index.add("efficient set joins appended later")
            after = server.query(TEXTS[0], timeout=WAIT)
            # The cached pre-add result must not be served back as is:
            # the hit is extended with a probe of the appended record.
            assert len(after) == len(before) + 1
            assert after == server.index.query(TEXTS[0])
            stats = server.health()["cache"]
            assert (stats["hits"], stats["patched"]) == (1, 1)
        finally:
            server.drain()

    def test_cache_off_health_is_none(self):
        server = self._serve()
        try:
            server.query(TEXTS[0], timeout=WAIT)
            assert server.health()["cache"] is None
        finally:
            server.drain()


class TestConcurrentInvalidation:
    """Cache freshness under racing add()/query() traffic.

    The corpus only ever *gains* matching records, so a cache that
    extends its hits correctly must serve each reader a non-decreasing
    match count — a stale hit after an add would show up as a decrease.
    """

    N_READERS = 4
    N_ADDS = 30
    PROBE = "efficient set joins on similarity predicates"

    def test_readers_never_observe_stale_hits(self):
        server = IndexServer(_index(), workers=4, query_cache=16).start()
        baseline = len(server.query(self.PROBE, timeout=WAIT))
        stop = threading.Event()
        errors: list[Exception] = []
        observed: list[list[int]] = [[] for _ in range(self.N_READERS)]

        def reader(slot: int) -> None:
            try:
                while not stop.is_set():
                    observed[slot].append(
                        len(server.query(self.PROBE, timeout=WAIT))
                    )
            except Exception as exc:  # noqa: BLE001 — fail the test
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(self.N_READERS)
        ]
        try:
            for thread in threads:
                thread.start()
            for i in range(self.N_ADDS):
                server.index.add(f"efficient set joins batch {i}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(WAIT)
                assert not thread.is_alive(), "reader deadlocked"
        try:
            assert errors == []
            for lengths in observed:
                assert lengths == sorted(lengths), "match count went backwards"
            # After the writer is done, the cache must not pin the past.
            final = len(server.query(self.PROBE, timeout=WAIT))
            assert final == baseline + self.N_ADDS
            assert server.health()["cache"]["patched"] > 0
        finally:
            server.drain(timeout=WAIT)


class TestBitmapFilteredIndex:
    def test_bitmap_filtered_index_same_answers(self):
        plain = _index()
        filtered = _index(bitmap_filter=True)
        assert [[p.rid_b for p in filtered.query(t)] for t in TEXTS] == [
            [p.rid_b for p in plain.query(t)] for t in TEXTS
        ]
        snapshot = filtered.counters_snapshot()
        assert snapshot["bitmap_checks"] > 0


class TestIteratorItems:
    """A one-shot iterator item answers like its list, cache on or off.

    The cache key and every shard probe read the item, so a server that
    let the key use the iterator up would probe an empty record and
    cache ``[]`` under the tokens' key.
    """

    TOKENS = ["efficient", "set", "joins"]

    def _serve(self, tier: str, cache: int):
        if tier == "single":
            return IndexServer(_index(), workers=2, query_cache=cache).start()
        server = ShardedIndexServer(
            OverlapPredicate(2),
            shards=2,
            tokenizer=tokenize_words,
            workers=2,
            query_cache=cache,
        )
        for text in TEXTS + SHARD_TEXTS:
            server.add(text)
        return server.start()

    @staticmethod
    def _pairs(answer) -> list[tuple]:
        return [(p.rid_a, p.rid_b, p.similarity) for p in answer]

    @pytest.mark.parametrize("cache", [0, 8])
    @pytest.mark.parametrize("tier", ["single", "sharded"])
    def test_iterator_equals_list(self, tier, cache):
        server = self._serve(tier, cache)
        try:
            expected = self._pairs(server.query(list(self.TOKENS), timeout=WAIT))
            assert len(expected) >= 2
            if tier == "sharded":
                # The matches sit on both shards, so both probes must
                # see the tokens.
                sids = {server.router.shard_of(p[0]) for p in expected}
                assert sids == {0, 1}
            if cache:
                server.drain()
                server = self._serve(tier, cache)  # cold caches
            fresh = server.query(iter(self.TOKENS), timeout=WAIT)
            assert self._pairs(fresh) == expected
            # No bad entry was left under the tokens' key.
            again = server.query(list(self.TOKENS), timeout=WAIT)
            assert self._pairs(again) == expected
        finally:
            server.drain()

    def test_container_item_reaches_execute_as_given(self):
        # Only iterators are copied: a list keeps its identity, which
        # per-request tracing uses to follow a query across threads.
        seen = []

        class _Spy(IndexServer):
            def _execute(self, request):
                seen.append(request.item)
                return super()._execute(request)

        tokens = list(self.TOKENS)
        server = _Spy(_index(), workers=1).start()
        try:
            server.query(tokens, timeout=WAIT)
        finally:
            server.drain()
        assert seen == [tokens] and seen[0] is tokens

    def test_uniterable_item_fails_through_its_future(self):
        server = self._serve("single", 8)
        try:
            future = server.submit(7)  # admitted, not refused at submit
            with pytest.raises(TypeError):
                future.result(timeout=WAIT)
        finally:
            server.drain()

    def test_uniterable_item_fails_every_shard(self):
        server = self._serve("sharded", 8)
        try:
            answer = server.submit(7).result(timeout=WAIT)
            assert answer.shards_failed == (0, 1)
            assert not answer.matches
        finally:
            server.drain()
