"""Unit tests for the prefix-filter join (successor-technique baseline)."""

import pytest

from repro import (
    Dataset,
    DicePredicate,
    JaccardPredicate,
    NaiveJoin,
    OverlapPredicate,
    WeightedOverlapPredicate,
)
from repro.core.prefix_filter import PrefixFilterJoin
from repro.core.token_order import TokenOrder
from repro.predicates.hamming import HammingPredicate
from tests.conftest import random_dataset


class TestPrefixFilterJoin:
    def test_basic(self, small_dataset):
        result = PrefixFilterJoin().join(small_dataset, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_overlap_equivalence(self, seed, t):
        data = random_dataset(seed=seed)
        predicate = OverlapPredicate(t)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PrefixFilterJoin().join(data, predicate).pair_set() == truth

    @pytest.mark.parametrize("f", [0.5, 0.7, 0.9])
    def test_jaccard_equivalence(self, f):
        data = random_dataset(seed=12)
        predicate = JaccardPredicate(f)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PrefixFilterJoin().join(data, predicate).pair_set() == truth

    def test_dice_equivalence(self):
        data = random_dataset(seed=13)
        predicate = DicePredicate(0.7)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PrefixFilterJoin().join(data, predicate).pair_set() == truth

    def test_hamming_equivalence_small_k(self):
        data = random_dataset(seed=14, min_size=3)
        predicate = HammingPredicate(1)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PrefixFilterJoin().join(data, predicate).pair_set() == truth

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            PrefixFilterJoin().join(random_dataset(seed=15), WeightedOverlapPredicate(2.0))

    def test_empty_dataset(self):
        assert PrefixFilterJoin().join(Dataset([]), OverlapPredicate(1)).pairs == []

    def test_unmatchable_records_skipped(self):
        # Threshold larger than some record sizes: those records can
        # never match and must not break anything.
        data = Dataset([(0,), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5)])
        result = PrefixFilterJoin().join(data, OverlapPredicate(4))
        assert result.pair_set() == {(1, 2)}

    def test_prefix_index_smaller_than_full(self):
        data = random_dataset(seed=16, n_base=100)
        prefix = PrefixFilterJoin().join(data, OverlapPredicate(6))
        from repro import similarity_join

        full = similarity_join(data, OverlapPredicate(6), algorithm="probe-count-online")
        assert prefix.pair_set() == full.pair_set()
        assert prefix.counters.index_entries < full.counters.index_entries


class TestTokenOrder:
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_canonicalize_all_equals_per_record(self, seed):
        data = random_dataset(seed=seed, universe=200)
        order = TokenOrder.for_dataset(data)
        canon = order.canonicalize_all(data)
        assert canon == [order.canonicalize(record) for record in data.records]
        assert all(list(record) == sorted(set(record)) for record in canon)
