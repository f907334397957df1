"""Unit tests for the PPJoin+ positional/suffix filter stack."""

import pytest

from repro import (
    Dataset,
    DicePredicate,
    JaccardPredicate,
    NaiveJoin,
    OverlapCoefficientPredicate,
    OverlapPredicate,
    WeightedOverlapPredicate,
    make_algorithm,
)
from repro.core.positional_filter import PositionalFilterJoin, _suffix_hamming_lb
from repro.core.prefix_filter import PrefixFilterJoin
from repro.filters import BitmapFilterConfig
from repro.predicates.hamming import HammingPredicate
from tests.conftest import random_dataset


class TestPositionalFilterJoin:
    def test_basic(self, small_dataset):
        result = PositionalFilterJoin().join(small_dataset, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    def test_registry(self):
        assert isinstance(make_algorithm("positional-filter"), PositionalFilterJoin)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_overlap_equivalence(self, seed, t):
        data = random_dataset(seed=seed)
        predicate = OverlapPredicate(t)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    @pytest.mark.parametrize("f", [0.5, 0.7, 0.9])
    def test_jaccard_equivalence(self, f):
        data = random_dataset(seed=12)
        predicate = JaccardPredicate(f)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_dice_equivalence(self):
        data = random_dataset(seed=13)
        predicate = DicePredicate(0.7)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_overlap_coefficient_equivalence(self):
        data = random_dataset(seed=21)
        predicate = OverlapCoefficientPredicate(0.8)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_hamming_equivalence_small_k(self):
        data = random_dataset(seed=14, min_size=3)
        predicate = HammingPredicate(1)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            PositionalFilterJoin().join(
                random_dataset(seed=15), WeightedOverlapPredicate(2.0)
            )

    def test_rejects_negative_suffix_depth(self):
        with pytest.raises(ValueError):
            PositionalFilterJoin(suffix_max_depth=-1)

    def test_empty_dataset(self):
        assert (
            PositionalFilterJoin().join(Dataset([]), OverlapPredicate(1)).pairs == []
        )

    def test_stack_prunes_candidates_below_prefix_filter(self):
        # The whole point: same pairs, strictly fewer candidates reach
        # verification than the basic prefix filter lets through.
        data = random_dataset(seed=16, n_base=150)
        predicate = JaccardPredicate(0.6)
        basic = PrefixFilterJoin().join(data, predicate)
        stacked = PositionalFilterJoin().join(data, predicate)
        assert stacked.pair_set() == basic.pair_set()
        assert (
            stacked.counters.candidates_checked < basic.counters.candidates_checked
        )
        rejected = (
            stacked.counters.candidate_rejections_position
            + stacked.counters.candidate_rejections_suffix
        )
        assert rejected > 0

    def test_rejection_counters_excluded_from_total_work(self):
        data = random_dataset(seed=17)
        counters = (
            PositionalFilterJoin().join(data, JaccardPredicate(0.6)).counters
        )
        work = (
            counters.heap_pops
            + counters.list_items_touched
            + counters.binary_searches
            + counters.pairs_generated
            + counters.pairs_verified
        )
        assert counters.total_work() == work

    def test_suffix_filter_off_is_exact_and_counts_nothing(self):
        data = random_dataset(seed=18, n_base=120)
        predicate = JaccardPredicate(0.6)
        on = PositionalFilterJoin(suffix_filter=True).join(data, predicate)
        off = PositionalFilterJoin(suffix_filter=False).join(data, predicate)
        assert off.pair_set() == on.pair_set()
        assert off.counters.candidate_rejections_suffix == 0
        assert "suffix_recursions" not in off.counters.extra
        # candidates_checked is counted *before* the suffix probe, so
        # the knob must not move it.
        assert off.counters.candidates_checked == on.counters.candidates_checked
        # What the suffix filter rejects, the plain variant must verify.
        assert off.counters.pairs_verified >= on.counters.pairs_verified

    def test_suffix_recursions_recorded(self):
        data = random_dataset(seed=19, n_base=120)
        result = PositionalFilterJoin().join(data, JaccardPredicate(0.6))
        if result.counters.candidate_rejections_suffix:
            assert result.counters.extra["suffix_recursions"] > 0

    def test_bitmap_filter_composes(self):
        data = random_dataset(seed=20, n_base=100)
        predicate = OverlapPredicate(4)
        plain = PositionalFilterJoin().join(data, predicate)
        filtered_join = PositionalFilterJoin()
        filtered_join.bitmap_filter = BitmapFilterConfig(width=64, adaptive=False)
        filtered = filtered_join.join(data, predicate)
        assert filtered.pair_set() == plain.pair_set()
        assert filtered.counters.bitmap_checks > 0

    @pytest.mark.parametrize("predicate", [JaccardPredicate(0.6), OverlapPredicate(4)])
    def test_bitmap_runs_before_suffix_filter(self, predicate):
        # Cascade order band -> bitmap -> suffix -> verify: every bitmap
        # survivor is either a suffix reject or an exact verification.
        data = random_dataset(seed=22, n_base=150)
        plain = PositionalFilterJoin().join(data, predicate)
        filtered_join = PositionalFilterJoin()
        filtered_join.bitmap_filter = BitmapFilterConfig(width=64, adaptive=False)
        filtered = filtered_join.join(data, predicate)
        counters = filtered.counters
        assert filtered.pair_set() == plain.pair_set()
        assert counters.bitmap_checks == counters.candidates_checked
        assert (
            counters.bitmap_checks - counters.bitmap_rejects
            == counters.candidate_rejections_suffix + counters.pairs_verified
        )
        assert counters.extra.get("suffix_recursions", 0) <= (
            plain.counters.extra.get("suffix_recursions", 0)
        )

    def test_unmatchable_records_skipped(self):
        data = Dataset([(0,), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5)])
        result = PositionalFilterJoin().join(data, OverlapPredicate(4))
        assert result.pair_set() == {(1, 2)}


class TestSuffixHammingBound:
    """The divide-and-conquer bound never exceeds the true distance."""

    @staticmethod
    def _true_hamming(x, y):
        return len(set(x) ^ set(y))

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_lower_bounds_true_distance(self, depth):
        import random

        rng = random.Random(depth)
        for _ in range(200):
            x = tuple(sorted(rng.sample(range(30), rng.randint(0, 10))))
            y = tuple(sorted(rng.sample(range(30), rng.randint(0, 10))))
            calls = [0]
            bound = _suffix_hamming_lb(
                x, 0, len(x), y, 0, len(y), depth, calls
            )
            assert bound <= self._true_hamming(x, y)
            assert calls[0] >= 1

    def test_exact_on_disjoint_and_identical(self):
        x = (1, 3, 5, 7)
        assert _suffix_hamming_lb(x, 0, 4, x, 0, 4, 8, [0]) == 0
        y = (2, 4, 6, 8)
        assert _suffix_hamming_lb(x, 0, 4, y, 0, 4, 8, [0]) == 8


class TestUnitScoreContract:
    """The unit-score gate scans every record, not a sampled head.

    Regression: the old check sampled only the first five records, so a
    predicate whose non-unit weights first appear at rid >= 5 slipped
    through and produced silently wrong joins.
    """

    @staticmethod
    def _late_weighted_setup():
        # Token 99 appears only from rid 6 on; its weight is not 1.0.
        records = [(i, i + 1, i + 2) for i in range(6)] + [
            (99, 100 + i, 101 + i) for i in range(4)
        ]
        predicate = WeightedOverlapPredicate(
            2.0, weights=lambda token: 2.0 if token == 99 else 1.0
        )
        return Dataset(records), predicate

    @pytest.mark.parametrize(
        "factory", [PrefixFilterJoin, PositionalFilterJoin]
    )
    def test_late_non_unit_scores_rejected(self, factory):
        data, predicate = self._late_weighted_setup()
        with pytest.raises(ValueError, match="unit-score"):
            factory().join(data, predicate)

    def test_all_unit_weights_accepted(self):
        # The full scan is a gate, not a ban: explicitly unit weights
        # pass even without the static unit_scores declaration.
        data = random_dataset(seed=22)
        predicate = WeightedOverlapPredicate(3.0, weights=lambda token: 1.0)
        truth = NaiveJoin().join(data, OverlapPredicate(3)).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth


class TestDeterministicEmission:
    """Emission order is a pure function of the input (no per-probe sort)."""

    @pytest.mark.parametrize(
        "factory", [PrefixFilterJoin, PositionalFilterJoin]
    )
    def test_repeat_runs_identical(self, factory):
        data = random_dataset(seed=23, n_base=90)
        predicate = JaccardPredicate(0.5)
        first = factory().join(data, predicate)
        second = factory().join(data, predicate)
        assert [
            (p.rid_a, p.rid_b, p.similarity) for p in first.pairs
        ] == [(p.rid_a, p.rid_b, p.similarity) for p in second.pairs]
        assert first.counters == second.counters
