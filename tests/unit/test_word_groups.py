"""Unit tests for the Word-Groups join (§2.3)."""

import pytest

from repro import (
    CosinePredicate,
    Dataset,
    JaccardPredicate,
    JoinContext,
    MemoryBudgetExceeded,
    NaiveJoin,
    OverlapPredicate,
    WordGroupsJoin,
)
from repro.datagen import citation_all_3grams
from tests.conftest import random_dataset


class TestWordGroups:
    def test_basic_result(self, small_dataset):
        result = WordGroupsJoin().join(small_dataset, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WordGroupsJoin(early_output_support=1)

    def test_rejects_record_dependent_scores(self, small_dataset):
        with pytest.raises(ValueError):
            WordGroupsJoin().join(small_dataset, CosinePredicate(0.5))

    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize("compaction", [False, True])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_equivalence_with_naive(self, optimized, compaction, seed):
        data = random_dataset(seed=seed, n_base=50)
        predicate = OverlapPredicate(4)
        truth = NaiveJoin().join(data, predicate).pair_set()
        algorithm = WordGroupsJoin(optimized=optimized, compaction=compaction)
        assert algorithm.join(data, predicate).pair_set() == truth

    def test_jaccard_equivalence(self):
        data = random_dataset(seed=6, n_base=50)
        predicate = JaccardPredicate(0.6)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert WordGroupsJoin().join(data, predicate).pair_set() == truth

    def test_high_overlap_pairs_found_once(self):
        # A pair sharing 2T words appears in C(2T, T) groups; the output
        # must still be a single pair.
        data = Dataset([tuple(range(10)), tuple(range(10)), (99,)])
        result = WordGroupsJoin(early_output_support=2).join(data, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    def test_early_output_reduces_itemsets(self):
        data = random_dataset(seed=4, n_base=60)
        eager = WordGroupsJoin(early_output_support=8, compaction=False).join(
            data, OverlapPredicate(4)
        )
        lazy = WordGroupsJoin(early_output_support=2, compaction=False).join(
            data, OverlapPredicate(4)
        )
        assert eager.pair_set() == lazy.pair_set()
        assert eager.counters.itemsets_generated <= lazy.counters.itemsets_generated

    def test_optimized_skips_large_word_groups(self):
        data = random_dataset(seed=7, n_base=80, universe=25)
        plain = WordGroupsJoin(optimized=False, compaction=False).join(
            data, OverlapPredicate(5)
        )
        opt = WordGroupsJoin(optimized=True, compaction=False).join(
            data, OverlapPredicate(5)
        )
        assert opt.pair_set() == plain.pair_set()
        assert opt.counters.extra["large_words"] > 0

    def test_mixed_large_small_groups_not_lost(self):
        """Regression: groups mixing large-list and other words must be
        reachable even though all-large groups are skipped.

        Tokens 0 and 1 are the most frequent (land in L); the qualifying
        pair shares {0, 1, 2} and only reaches T = 3 with all three.
        """
        filler = [(0,), (1,), (0, 1)] * 6
        data = Dataset([(0, 1, 2), (0, 1, 2)] + filler)
        predicate = OverlapPredicate(3)
        truth = NaiveJoin().join(data, predicate).pair_set()
        got = WordGroupsJoin(optimized=True, compaction=False).join(data, predicate)
        assert got.pair_set() == truth
        assert (0, 1) in got.pair_set()

    def test_max_level_flush_is_exact(self):
        data = random_dataset(seed=8, n_base=40)
        predicate = OverlapPredicate(4)
        truth = NaiveJoin().join(data, predicate).pair_set()
        capped = WordGroupsJoin(max_level=2).join(data, predicate)
        assert capped.pair_set() == truth

    def test_empty_dataset(self):
        result = WordGroupsJoin().join(Dataset([]), OverlapPredicate(1))
        assert result.pairs == []

    def test_level_loop_walks_the_lattice(self):
        """With early output and the §3.1 skip off, a pair sharing three
        words at T = 3 climbs the whole lattice: 3 singletons, 3 pairs,
        and the qualifying triple."""
        data = Dataset([(0, 1, 2), (0, 1, 2), (7,)])
        result = WordGroupsJoin(
            early_output_support=2, optimized=False, compaction=False
        ).join(data, OverlapPredicate(3))
        assert result.pair_set() == {(0, 1)}
        assert result.counters.itemsets_generated == 3 + 3 + 1

    @pytest.mark.parametrize("support", [2, 3, 8])
    def test_early_output_support_is_exact(self, support):
        data = random_dataset(seed=9, n_base=50)
        predicate = JaccardPredicate(0.5)
        truth = NaiveJoin().join(data, predicate).pair_set()
        algorithm = WordGroupsJoin(early_output_support=support, compaction=False)
        assert algorithm.join(data, predicate).pair_set() == truth

    @pytest.mark.parametrize("max_level", [1, 3])
    def test_every_max_level_is_exact(self, max_level):
        data = random_dataset(seed=10, n_base=40)
        predicate = OverlapPredicate(4)
        truth = NaiveJoin().join(data, predicate).pair_set()
        capped = WordGroupsJoin(max_level=max_level).join(data, predicate)
        assert capped.pair_set() == truth

    def test_compaction_merges_identical_groups(self):
        # Six copies of one record: every word group has the same
        # tid-list, so compaction merges them and emits the union once.
        data = Dataset([tuple(range(6))] * 6 + [(50, 51)])
        predicate = OverlapPredicate(6)
        result = WordGroupsJoin(early_output_support=2).join(data, predicate)
        assert result.pair_set() == NaiveJoin().join(data, predicate).pair_set()
        assert len(result.pair_set()) == 15
        assert result.counters.extra["groups_compacted"] > 0


class TestMemoryBudget:
    """Word-Groups charges its tid-lists to the memory budget.

    Long records give the lattice far more tid-list entries than the
    corpus has tokens; the budget is checked while a level is
    generated, and a trip degrades the join to ClusterMem.
    """

    BUDGET = 10_000

    @staticmethod
    def _corpus():
        data = citation_all_3grams(60, seed=5)
        assert sum(map(len, data.records)) < TestMemoryBudget.BUDGET
        return data

    @pytest.mark.parametrize("optimized", [False, True])
    def test_small_budget_degrades_and_stays_exact(self, optimized):
        data = self._corpus()
        predicate = JaccardPredicate(0.6)
        context = JoinContext(memory_budget_entries=self.BUDGET)
        result = WordGroupsJoin(optimized=optimized).join(data, predicate, context)
        assert result.degraded_from == WordGroupsJoin(optimized=optimized).name
        assert "budget" in result.degradation_reason
        assert result.counters.extra["degradations"] == 1
        assert result.pair_set() == NaiveJoin().join(data, predicate).pair_set()

    def test_trips_while_a_later_level_is_generated(self):
        # Level 1 holds at most one entry per corpus token, under the
        # budget: the trip comes from a generated level's tid-lists.
        data = self._corpus()
        context = JoinContext(
            memory_budget_entries=self.BUDGET, on_memory_exceeded="raise"
        )
        with pytest.raises(MemoryBudgetExceeded) as err:
            WordGroupsJoin().join(data, JaccardPredicate(0.6), context)
        assert err.value.entries > err.value.budget == self.BUDGET
