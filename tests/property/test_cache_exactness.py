"""Hypothesis property: a cached IndexServer answers like a fresh probe.

``IndexServer``'s query cache keeps its entries across ``add``: a hit
that predates appends is extended with a probe of the appended records
only (``SimilarityIndex.query(since=)``), a query that had an unknown
token is probed afresh, and a ``rebind`` flushes. Random interleavings
of ``add`` / cached query / ``rebind`` must therefore return, for every
query, exactly what an uncached ``SimilarityIndex.query`` returns on
the same index state: the same pairs, ``rid_b``, similarities and
order.

The predicates cover what an extension could get wrong: corpus
statistics frozen at bind (default cosine, IDF weighted overlap),
statistics keyed by token id past the current vocabulary (cosine
``stats=``, a weighted-overlap mapping — where an unknown token's
ephemeral id changes its score once the vocabulary grows), and a band
filter with payload verification (edit distance). The query pool
includes words no record holds yet; adds draw them later.
"""

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
from repro.serving import IndexServer
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

EDIT = EditDistancePredicate(1)
STRINGS = ["abcabc", "abcabca", "abcbca", "bcabca", "cabcab", "aabbcc", "abccba"]


def _triples(answer) -> list[tuple]:
    return [(m.rid_a, m.rid_b, m.similarity) for m in answer]


def _ops(record, n_queries: int):
    add = st.tuples(st.just("add"), record)
    query = st.tuples(st.just("query"), st.integers(0, n_queries - 1))
    rebind = st.tuples(st.just("rebind"), st.none())
    return st.lists(
        st.one_of(add, add, query, query, query, rebind), min_size=1, max_size=30
    )


def _run(index: SimilarityIndex, queries, ops) -> None:
    """Replay ``ops``; check each query through the server, and the
    index's own extension of the previous answer to the same item
    (whatever its binding or unknown tokens), against a full probe."""
    server = IndexServer(index, workers=1, query_cache=8).start()
    previous = {}
    try:
        for op, value in ops:
            if op == "add":
                index.add(value)
            elif op == "rebind":
                index.rebind()
            else:
                item = queries[value]
                cached = server.query(item, timeout=WAIT)
                fresh = index.query(item)
                assert _triples(cached) == _triples(fresh)
                assert cached.records == len(index)
                if value in previous:
                    extended = index.query(item, since=previous[value])
                    assert _triples(extended) == _triples(fresh)
                previous[value] = fresh
        stats = server.health()["cache"]
        assert stats["patched"] <= stats["hits"]
    finally:
        server.drain(timeout=WAIT)


_RECORDS = st.lists(st.sampled_from(WORDS + LATE), min_size=1, max_size=5, unique=True)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SET_PREDICATES)),
    seed=st.lists(st.sampled_from(WORDS), min_size=1, max_size=5, unique=True),
    ops=_ops(_RECORDS, len(QUERIES)),
)
def test_cached_answers_equal_fresh_probes(name, seed, ops):
    index = SimilarityIndex(SET_PREDICATES[name])
    index.add(seed)
    _run(index, QUERIES, ops)


@settings(max_examples=30, deadline=None)
@given(
    ops=_ops(
        st.text(alphabet="abc", min_size=EDIT.short_string_cutoff() + 1, max_size=9),
        len(STRINGS),
    ),
)
def test_cached_edit_distance_answers_equal_fresh_probes(ops):
    index = SimilarityIndex(EDIT, tokenizer=numbered_qgrams)
    index.add(STRINGS[0])
    _run(index, STRINGS, ops)


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

