"""Hypothesis property: a cached server answers like a fresh probe.

Every served index keeps its cached answers across ``add``: a hit that
predates appends is extended with a probe of the appended records only
(``SimilarityIndex.query(since=)``, across the wire for a remote
shard), a query that had an unknown token is probed afresh, and a
rebind or a shard flip flushes. Random interleavings of ``add`` /
cached query / ``rebind`` must therefore return, for every query,
exactly what an uncached ``SimilarityIndex.query`` returns on the same
records: the same pairs, ``rid_b``, similarities and order. The sweep
runs ``IndexServer``, ``ShardedIndexServer`` over one and two local
shards, and one over a loopback ``ShardServer`` node; on the sharded
tiers ``rebind`` is a ``reindex`` flip.

The predicates cover what an extension could get wrong: corpus
statistics frozen at bind (default cosine, IDF weighted overlap),
statistics keyed by token id past the current vocabulary (cosine
``stats=``, a weighted-overlap mapping — where an unknown token's
ephemeral id changes its score once the vocabulary grows), and a band
filter with payload verification (edit distance). The query pool
includes words no record holds yet; adds draw them later. Predicates
whose statistics are bound per index (default cosine, IDF weighted
overlap) score per shard, so the sharded tiers sweep the others.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CosinePredicate,
    EditDistancePredicate,
    JaccardPredicate,
    SimilarityIndex,
    WeightedOverlapPredicate,
)
from repro.predicates.edit_distance import numbered_qgrams
from repro.serving import IndexServer, ShardedIndexServer
from repro.serving.transport import ShardServer
from repro.text.tfidf import CorpusStats

WAIT = 10.0

WORDS = ["join", "set", "index", "probe", "cluster", "merge", "count", "word"]
#: Held out of the first records; queries use them before adds do.
LATE = ["novel", "unseen", "later"]

QUERIES = [
    ["join", "set", "index"],
    ["probe", "merge", "count", "word"],
    ["join", "novel", "set"],
    ["unseen", "later", "cluster", "merge"],
    ["set", "index", "probe", "cluster", "novel"],
    ["word"],
]

#: Token-id statistics for ids well past any vocabulary these tests
#: build: id ``i`` occurs ``i % 5 + 1`` times, so two ephemeral ids of
#: one unknown token score differently.
_STATS = CorpusStats(
    [[token] for token in range(40) for _ in range(token % 5 + 1)]
)

SET_PREDICATES = {
    "jaccard": JaccardPredicate(0.5),
    "cosine": CosinePredicate(0.5),
    "cosine-stats": CosinePredicate(0.4, stats=_STATS),
    "weighted-overlap-idf": WeightedOverlapPredicate(2.0, "idf"),
    "weighted-overlap-mapping": WeightedOverlapPredicate(
        2.0, {token: 0.5 + token % 4 for token in range(40)}
    ),
}

#: Statistics bound per index: exact only on a single index.
PER_INDEX_STATS = {"cosine", "weighted-overlap-idf"}

TIERS = ["index", "sharded-1", "sharded-2", "remote"]

EDIT = EditDistancePredicate(1)
STRINGS = ["abcabc", "abcabca", "abcbca", "bcabca", "cabcab", "aabbcc", "abccba"]


def _triples(answer) -> list[tuple]:
    return [(m.rid_a, m.rid_b, m.similarity) for m in answer]


def _ops(record, n_queries: int):
    """Op lists long enough to repeat queries across adds. A rebind
    flushes the cache, so it is one op in nineteen (about two per
    list), leaving repeats across adds an entry to extend."""
    add = st.tuples(st.just("add"), record)
    query = st.tuples(st.just("query"), st.integers(0, n_queries - 1))
    rebind = st.tuples(st.just("rebind"), st.none())
    return st.lists(
        st.one_of(*[add] * 6, *[query] * 12, rebind), min_size=30, max_size=60
    )


def _cache_stats(server) -> list[dict]:
    health = server.health()
    if "shards" in health:
        return [row["cache"] for row in health["shards"]]
    return [health["cache"]]


@contextmanager
def _served(tier: str, predicate, tokenizer=None, next_predicate=None):
    """``(server, add, rebind, oracle)`` for one tier over ``predicate``.

    ``oracle`` is an uncached index holding the same records in the
    same order — on the ``index`` tier, the served index itself. With
    ``next_predicate``, a sharded tier's flips build under it.
    """
    oracle = SimilarityIndex(predicate, tokenizer=tokenizer)
    node = None
    if tier == "index":
        server = IndexServer(oracle, workers=1, query_cache=8)
        add, rebind = oracle.add, oracle.rebind
    else:
        endpoints = None
        if tier == "remote":
            hosted = SimilarityIndex(predicate, tokenizer=tokenizer)
            vocabulary = hosted._vocabulary
            node = ShardServer(hosted)
            endpoints = [f"127.0.0.1:{node.start().port}"]
        server = ShardedIndexServer(
            predicate,
            shards=2 if tier == "sharded-2" else 1,
            tokenizer=tokenizer,
            workers=1,
            query_cache=8,
            shard_endpoints=endpoints,
        )
        if next_predicate is not None:
            if node is None:
                vocabulary = server._vocabulary

            def factory():
                return SimilarityIndex(
                    next_predicate, tokenizer=tokenizer, vocabulary=vocabulary
                )

            if node is None:
                server._make_index = factory
            else:
                node.index_factory = factory

        def add(record):
            server.add(record)
            oracle.add(record)

        rebind = server.reindex
    server.start()
    try:
        yield server, add, rebind, oracle
    finally:
        server.drain(timeout=WAIT)
        if node is not None:
            node.stop()


def _run(tier: str, predicate, seed, queries, ops, tokenizer=None) -> None:
    """Replay ``ops``; check each query through the server, and the
    oracle's own extension of the previous answer to the same item
    (whatever its binding or unknown tokens), against a full probe."""
    with _served(tier, predicate, tokenizer) as (server, add, rebind, oracle):
        add(seed)
        previous = {}
        for op, value in ops:
            if op == "add":
                add(value)
            elif op == "rebind":
                rebind()
            else:
                item = queries[value]
                cached = server.query(item, timeout=WAIT)
                fresh = oracle.query(item)
                assert _triples(cached) == _triples(fresh)
                if tier == "index":
                    assert cached.records == len(oracle)
                if value in previous:
                    extended = oracle.query(item, since=previous[value])
                    assert _triples(extended) == _triples(fresh)
                previous[value] = fresh
        for stats in _cache_stats(server):
            assert stats["patched"] <= stats["hits"]


_RECORDS = st.lists(st.sampled_from(WORDS + LATE), min_size=1, max_size=5, unique=True)


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    seed=st.lists(st.sampled_from(WORDS), min_size=1, max_size=5, unique=True),
    ops=_ops(_RECORDS, len(QUERIES)),
)
def test_cached_answers_equal_fresh_probes(tier, data, seed, ops):
    names = sorted(SET_PREDICATES)
    if tier != "index":
        names = [name for name in names if name not in PER_INDEX_STATS]
    name = data.draw(st.sampled_from(names), label="predicate")
    _run(tier, SET_PREDICATES[name], seed, QUERIES, ops)


@pytest.mark.parametrize(
    "tier,name",
    [
        (tier, name)
        for tier in TIERS
        for name in sorted(SET_PREDICATES)
        if tier == "index" or name not in PER_INDEX_STATS
    ],
)
def test_repeated_queries_across_adds_are_extended_exactly(tier, name):
    """Every query asked again after every add: each repeat after an
    add is an extension (``patched``), so this walks the extension path
    on every tier, late words and a mid-run rebind or flip included."""
    rng = random.Random(5)
    with _served(tier, SET_PREDICATES[name]) as (server, add, rebind, oracle):
        add(["join", "set", "index", "probe"])
        for round_no in range(8):
            if round_no == 4:
                rebind()
            for _ in range(round_no % 3 + 1):
                add(rng.sample(WORDS + LATE, rng.randint(1, 5)))
            for _ in range(2):
                for item in QUERIES:
                    cached = server.query(item, timeout=WAIT)
                    assert _triples(cached) == _triples(oracle.query(item))
        stats = _cache_stats(server)
        assert sum(cache["patched"] for cache in stats) > 0
        for cache in stats:
            assert cache["patched"] <= cache["hits"]


@pytest.mark.parametrize("tier", TIERS)
@settings(max_examples=30, deadline=None)
@given(
    ops=_ops(
        st.text(alphabet="abc", min_size=EDIT.short_string_cutoff() + 1, max_size=9),
        len(STRINGS),
    ),
)
def test_cached_edit_distance_answers_equal_fresh_probes(tier, ops):
    _run(tier, EDIT, STRINGS[0], STRINGS, ops, tokenizer=numbered_qgrams)


def test_unknown_token_answer_goes_stale_on_another_shards_add():
    """Two local shards share one vocabulary: an add routed to one grows
    it for both, moving the ephemeral ids of the other shard's cached
    unknown-token answer, though that shard gained no record."""
    item = ["probe", "merge", "count", "word"]
    with _served("sharded-2", SET_PREDICATES["cosine-stats"]) as (
        server, add, _rebind, oracle,
    ):
        add(["join", "set", "probe", "merge"])
        assert _triples(server.query(item, timeout=WAIT)) == _triples(oracle.query(item))
        add(["join", "index"])  # the other shard; "index" is new
        assert _triples(server.query(item, timeout=WAIT)) == _triples(oracle.query(item))


@pytest.mark.parametrize("tier", ["sharded-1", "remote"])
def test_flip_between_lookup_and_probe_is_not_spliced(tier):
    """A shard flipped after the cache lookup and before the probe is
    answered by a fresh probe of the new generation: the cached answer
    of the replaced one is not extended. The new generation binds a
    lower threshold, so a splice would miss the old record it admits."""
    item = ["join", "set", "index"]
    with _served(
        tier, JaccardPredicate(0.6), next_predicate=JaccardPredicate(0.3)
    ) as (server, add, _rebind, _oracle):
        for record in (item, ["join", "set"], ["join", "set", "merge", "count"]):
            add(record)
        first = server.query(item, timeout=WAIT)  # cached
        add(["join", "word"])  # so the next lookup extends the entry
        probe_shard = server._probe_shard
        flips = []

        def flip_then_probe(*args):
            if not flips:
                flips.append(server.reindex())
            return probe_shard(*args)

        server._probe_shard = flip_then_probe
        answer = server.query(item, timeout=WAIT)
        shard = server._shards[0]
        fresh = shard.index.query(item)  # the new generation, uncached
        assert flips and shard.cache.stats()["patched"] == 1
        assert len(fresh) > len(first)
        assert _triples(answer) == [(m.rid_a, 4, m.similarity) for m in fresh]


class TestPatchAccounting:
    """Each branch of a reuse, one case at a time."""

    @staticmethod
    def _index(predicate=None) -> SimilarityIndex:
        index = SimilarityIndex(predicate or JaccardPredicate(0.5))
        for record in (["join", "set", "index"], ["join", "set", "probe"]):
            index.add(record)
        return index

    def _serve(self, predicate=None):
        index = self._index(predicate)
        return index, IndexServer(index, workers=1, query_cache=8).start()

    def test_hit_after_adds_is_patched(self):
        index, server = self._serve()
        try:
            item = ["join", "set", "index"]
            first = server.query(item, timeout=WAIT)
            index.add(["join", "set", "index", "merge"])
            index.add(["count", "word"])
            patched = server.query(item, timeout=WAIT)
            assert _triples(patched) == _triples(index.query(item))
            assert len(patched) == len(first) + 1
            again = server.query(item, timeout=WAIT)
            assert again is patched  # the extension was stored
            stats = server.health()["cache"]
            assert (stats["hits"], stats["misses"], stats["patched"]) == (2, 1, 1)
            assert stats["invalidations"] == 0
        finally:
            server.drain(timeout=WAIT)

    def test_unknown_token_query_is_reprobed(self):
        index, server = self._serve(CosinePredicate(0.4, stats=_STATS))
        try:
            item = ["join", "novel", "set"]
            assert not server.query(item, timeout=WAIT).extendable
            index.add(["novel", "join"])
            fresh = server.query(item, timeout=WAIT)
            assert _triples(fresh) == _triples(index.query(item))
            assert fresh.extendable  # every token is indexed now
            stats = server.health()["cache"]
            assert (stats["hits"], stats["misses"], stats["patched"]) == (0, 2, 0)
        finally:
            server.drain(timeout=WAIT)

    def test_rebind_flushes(self):
        index, server = self._serve(CosinePredicate(0.4))
        try:
            item = ["join", "set"]
            server.query(item, timeout=WAIT)
            index.add(["join", "merge"])
            index.rebind()
            fresh = server.query(item, timeout=WAIT)
            assert _triples(fresh) == _triples(index.query(item))
            stats = server.health()["cache"]
            assert (stats["hits"], stats["patched"], stats["invalidations"]) == (0, 0, 1)
        finally:
            server.drain(timeout=WAIT)

    def test_stale_binding_is_not_extended(self):
        index = self._index(CosinePredicate(0.4))
        item = ["join", "set"]
        old = index.query(item)
        index.add(["join", "set", "merge"])
        index.rebind()  # IDF over three records, not the first one alone
        fresh = index.query(item)
        assert old and old.binding != index.binding
        assert [m.similarity for m in fresh[: len(old)]] != [m.similarity for m in old]
        assert _triples(index.query(item, since=old)) == _triples(fresh)

    def test_unknown_token_answer_is_not_extended(self):
        # "novel" probes as ephemeral id 4; the add below gives it id 5,
        # which ``_STATS`` weighs differently, so every similarity of
        # the old answer moves.
        index = self._index(CosinePredicate(0.4, stats=_STATS))
        item = ["join", "set", "novel"]
        old = index.query(item)
        index.add(["merge", "novel"])
        fresh = index.query(item)
        assert old and not old.extendable
        assert [m.similarity for m in fresh[: len(old)]] != [m.similarity for m in old]
        assert _triples(index.query(item, since=old)) == _triples(fresh)

