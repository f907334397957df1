"""Unit tests for MergeOpt (Algorithm 1/3)."""

import random

from repro.core.heap_merge import heap_merge
from repro.core.merge_opt import merge_opt, split_lists
from repro.utils.counters import CostCounters
from tests.conftest import posting_list


def unit_lists(id_lists):
    return [(posting_list([(i, 1.0) for i in ids]), 1.0) for ids in id_lists]


class TestSplitLists:
    def test_orders_by_decreasing_length(self):
        lists = unit_lists([[0], [0, 1, 2], [0, 1]])
        ordered, cumulative, _k = split_lists(lists, 0.5)
        assert [len(p) for p, _s in ordered] == [3, 2, 1]
        assert cumulative == [1.0, 2.0, 3.0]

    def test_k_is_maximal_prefix_below_threshold(self):
        lists = unit_lists([[0, 1, 2], [0, 1], [0]])
        _ordered, _cum, k = split_lists(lists, 2.5)
        assert k == 2  # lists of cumulative weight 1, 2 < 2.5; third hits 3

    def test_k_zero_when_threshold_tiny(self):
        lists = unit_lists([[0, 1, 2]])
        assert split_lists(lists, 0.5)[2] == 0

    def test_k_all_when_threshold_unreachable(self):
        lists = unit_lists([[0], [1]])
        assert split_lists(lists, 10.0)[2] == 2


class TestMergeOpt:
    def test_matches_heap_merge_simple(self):
        lists = unit_lists([[0, 1, 2, 3], [1, 3], [3]])
        expected = heap_merge(lists, lambda _s: 2.0, CostCounters())
        got = merge_opt(lists, 2.0, lambda _s: 2.0, CostCounters())
        assert got == expected

    def test_skips_long_list_work(self):
        # One huge list + two tiny ones; threshold 2 puts the huge list in L.
        huge = [(i, 1.0) for i in range(1000)]
        lists = [
            (posting_list(huge), 1.0),
            (posting_list([(5, 1.0), (999, 1.0)]), 1.0),
            (posting_list([(5, 1.0)]), 1.0),
        ]
        counters = CostCounters()
        out = merge_opt(lists, 2.0, lambda _s: 2.0, counters)
        assert (5, 3.0) in out
        assert (999, 2.0) in out
        # The 1000-entry list was never heap-merged.
        assert counters.heap_pops <= 6
        assert counters.binary_searches >= 1

    def test_early_termination_bound_is_respected(self):
        # Candidate weight 1 from S; two L lists of weight 1 each;
        # threshold 3.5 unreachable -> candidate dropped.
        lists = [
            (posting_list([(7, 1.0), (8, 1.0)]), 1.0),
            (posting_list([(7, 1.0), (9, 1.0)]), 1.0),
            (posting_list([(7, 1.0)]), 1.0),
        ]
        out = merge_opt(lists, 3.5, lambda _s: 3.5, CostCounters())
        assert out == []

    def test_weights_of_accepted_candidates_are_complete(self):
        # Even when a candidate qualifies from S alone, L contributions
        # must still be added for the reported weight.
        long = [(i, 1.0) for i in range(50)]
        lists = [
            (posting_list(long), 1.0),
            (posting_list([(10, 1.0)]), 1.0),
            (posting_list([(10, 1.0)]), 1.0),
        ]
        out = merge_opt(lists, 2.0, lambda _s: 2.0, CostCounters())
        assert out == [(10, 3.0)]

    def test_accept_filter(self):
        lists = unit_lists([[0, 1], [0, 1]])
        out = merge_opt(lists, 2.0, lambda _s: 2.0, CostCounters(), accept=lambda s: s == 1)
        assert out == [(1, 2.0)]

    def test_empty_input(self):
        assert merge_opt([], 1.0, lambda _s: 1.0, CostCounters()) == []

    def test_equivalence_with_heap_merge_randomized(self):
        rng = random.Random(11)
        for trial in range(30):
            n_lists = rng.randint(1, 8)
            lists = []
            for _ in range(n_lists):
                ids = sorted(rng.sample(range(40), rng.randint(1, 25)))
                lists.append((posting_list([(i, 1.0) for i in ids]), 1.0))
            threshold = rng.uniform(1.0, 5.0)
            expected = heap_merge(lists, lambda _s: threshold, CostCounters())
            got = merge_opt(lists, threshold, lambda _s: threshold, CostCounters())
            assert got == expected, f"trial {trial}"

    def test_equivalence_with_weighted_scores_randomized(self):
        rng = random.Random(12)
        for trial in range(30):
            n_lists = rng.randint(1, 6)
            lists = []
            for _ in range(n_lists):
                ids = sorted(rng.sample(range(30), rng.randint(1, 20)))
                entries = [(i, rng.uniform(0.1, 2.0)) for i in ids]
                lists.append((posting_list(entries), rng.uniform(0.1, 2.0)))
            threshold = rng.uniform(0.5, 4.0)
            expected = {
                e: w for e, w in heap_merge(lists, lambda _s: threshold, CostCounters())
            }
            got = {
                e: w for e, w in merge_opt(lists, threshold, lambda _s: threshold, CostCounters())
            }
            assert set(got) == set(expected), f"trial {trial}"
            for entity, weight in got.items():
                assert abs(weight - expected[entity]) < 1e-9
