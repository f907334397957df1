"""Unit tests for the top-k similar-pairs join (extension)."""

import pytest

from repro import (
    CosinePredicate,
    Dataset,
    JaccardPredicate,
    NaiveJoin,
    OverlapPredicate,
    TopKJoin,
)
from tests.conftest import random_dataset


def brute_force_topk(data, predicate_factory, floor, k):
    """All pairs above the floor, best first."""
    result = NaiveJoin().join(data, predicate_factory(floor))
    ranked = sorted(
        ((p.similarity, p.rid_a, p.rid_b) for p in result.pairs), reverse=True
    )
    return ranked[:k]


class TestTopKJoin:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKJoin(0, JaccardPredicate, floor=0.1)

    def test_lower_is_better_unsupported(self):
        with pytest.raises(NotImplementedError):
            TopKJoin(3, JaccardPredicate, floor=0.1, higher_is_better=False)

    def test_small_fixture(self):
        data = Dataset([(0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 9), (7, 8)])
        result = TopKJoin(2, JaccardPredicate, floor=0.1).join(data)
        assert len(result.pairs) == 2
        best = result.pairs[0]
        assert (best.rid_a, best.rid_b) == (0, 1)
        assert best.similarity == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_matches_brute_force_jaccard(self, k):
        data = random_dataset(seed=41)
        expected = brute_force_topk(data, JaccardPredicate, 0.2, k)
        result = TopKJoin(k, JaccardPredicate, floor=0.2).join(data)
        got = [(p.similarity, p.rid_a, p.rid_b) for p in result.pairs]
        assert got == expected

    def test_matches_brute_force_cosine(self):
        data = random_dataset(seed=42)
        expected = brute_force_topk(data, CosinePredicate, 0.3, 5)
        result = TopKJoin(5, CosinePredicate, floor=0.3).join(data)
        got = [(p.similarity, p.rid_a, p.rid_b) for p in result.pairs]
        # similarity values may differ in float dust; compare pairwise
        assert [(a, b) for _s, a, b in got] == [(a, b) for _s, a, b in expected]

    def test_overlap_measure(self):
        data = random_dataset(seed=43)

        result = TopKJoin(4, OverlapPredicate, floor=1.0).join(data)
        expected = brute_force_topk(data, OverlapPredicate, 1.0, 4)
        got = [(p.similarity, p.rid_a, p.rid_b) for p in result.pairs]
        assert got == expected

    def test_fewer_pairs_than_k(self):
        data = Dataset([(0, 1), (0, 1), (5, 6)])
        result = TopKJoin(10, JaccardPredicate, floor=0.5).join(data)
        assert len(result.pairs) == 1

    def test_results_sorted_best_first(self):
        data = random_dataset(seed=44)
        result = TopKJoin(8, JaccardPredicate, floor=0.2).join(data)
        sims = [p.similarity for p in result.pairs]
        assert sims == sorted(sims, reverse=True)

    def test_ratcheting_saves_work(self):
        data = random_dataset(seed=45, n_base=120)
        lazy = TopKJoin(3, JaccardPredicate, floor=0.05).join(data)
        # Compare with a static full join at the floor threshold.
        from repro import similarity_join

        static = similarity_join(data, JaccardPredicate(0.05), algorithm="probe-count-sort")
        assert lazy.counters.pairs_verified <= static.counters.pairs_verified

    def test_ratchets_reuse_band_keys(self, monkeypatch):
        """Band keys do not depend on the threshold, so a ratchet shares
        them with the tighter bound: one ``band_key`` call per record
        over the whole run, not one per record per ratchet."""
        from repro.predicates.jaccard import _BoundJaccard

        data = random_dataset(seed=41, n_base=150)
        expected = brute_force_topk(data, JaccardPredicate, 0.3, 50)
        calls = []
        band_key = _BoundJaccard.band_key

        def counting(bound, rid):
            calls.append(rid)
            return band_key(bound, rid)

        monkeypatch.setattr(_BoundJaccard, "band_key", counting)
        result = TopKJoin(50, JaccardPredicate, floor=0.3).join(data)
        assert [(p.similarity, p.rid_a, p.rid_b) for p in result.pairs] == expected
        assert len(calls) <= len(data)
