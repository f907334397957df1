"""Hypothesis property: the service is exact under every band predicate.

Random interleavings of ``add`` and ``query`` against a
:class:`SimilarityIndex` must answer exactly what the naive join finds
for the probe over the records added so far — same matched rids, same
similarities.
The band filter's key cache grows with every ``add`` while probes
overlay their own key, so these interleavings are what would expose a
stale or misaligned key.

Exactness domain: Hamming and edit distance need a shared token for an
index to see a pair, so records are longer than ``k`` and strings longer
than ``short_string_cutoff()`` (see ``hamming_join`` /
``edit_distance_join`` for the wrappers that cover the short corner).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    DicePredicate,
    EditDistancePredicate,
    HammingPredicate,
    JaccardPredicate,
    NaiveJoin,
    SimilarityIndex,
)
from repro.predicates.edit_distance import numbered_qgrams, qgram_dataset

WORDS = ["join", "set", "index", "probe", "cluster", "merge", "count", "word"]
UNSEEN = ["unseen", "novel"]


def _weight(token_id: int) -> float:
    # Both the service and the naive dataset number tokens by first
    # appearance, so one id-keyed weight function means the same thing
    # to each.
    return 1.0 + 0.5 * (token_id % 3)


SET_PREDICATES = {
    "jaccard": (JaccardPredicate(0.5), 1),
    "weighted-jaccard": (JaccardPredicate(0.4, weights=_weight), 1),
    "dice": (DicePredicate(0.5), 1),
    "hamming-1": (HammingPredicate(1), 2),
    "hamming-2": (HammingPredicate(2), 3),
}

EDIT_PREDICATES = [EditDistancePredicate(1), EditDistancePredicate(2)]


def _ops(item):
    add = st.tuples(st.just("add"), item)
    query = st.tuples(st.just("query"), item)
    return st.lists(st.one_of(add, add, query), min_size=1, max_size=20)


def _token_sets(min_size: int):
    return st.lists(
        st.sampled_from(WORDS + UNSEEN), min_size=min_size, max_size=6, unique=True
    )


def _strings(predicate: EditDistancePredicate):
    cutoff = predicate.short_string_cutoff()
    return st.text(alphabet="abc", min_size=cutoff + 1, max_size=cutoff + 5)


def _answer(matches):
    return sorted((m.rid_a, m.rid_b, m.similarity) for m in matches)


def _run(service, predicate, ops, dataset_of):
    added = []
    for op, value in ops:
        if op == "add":
            assert service.add(value) == len(added)
            added.append(value)
            continue
        probe = len(added)
        truth = NaiveJoin().join(dataset_of(added + [value]), predicate)
        expected = [pair for pair in truth.pairs if pair.rid_b == probe]
        assert _answer(service.query(value)) == _answer(expected)


class TestServiceMatchesNaive:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(sorted(SET_PREDICATES)))
    def test_set_predicates(self, data, name):
        predicate, min_size = SET_PREDICATES[name]
        ops = data.draw(_ops(_token_sets(min_size)))
        _run(
            SimilarityIndex(predicate),
            predicate,
            ops,
            Dataset.from_token_lists,
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(EDIT_PREDICATES))
    def test_edit_distance(self, data, predicate):
        ops = data.draw(_ops(_strings(predicate)))
        _run(
            SimilarityIndex(predicate, tokenizer=numbered_qgrams),
            predicate,
            ops,
            lambda strings: qgram_dataset(strings, q=predicate.q),
        )
