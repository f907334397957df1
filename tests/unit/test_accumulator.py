"""Unit tests for the score-accumulator merge backend."""

import pytest

from repro.core.accumulator import (
    AUTO_MIN_ENTRIES,
    accumulate_merge,
    accumulate_merge_opt,
    resolve_merge_backend,
    use_accumulator,
)
from repro.core.heap_merge import heap_merge
from repro.core.merge_opt import merge_opt
from repro.utils.counters import CostCounters
from tests.conftest import posting_list


class TestBackendSelection:
    def test_resolve(self):
        assert resolve_merge_backend(None) == "auto"
        assert resolve_merge_backend("heap") == "heap"
        assert resolve_merge_backend("accumulator") == "accumulator"
        with pytest.raises(ValueError):
            resolve_merge_backend("quantum")

    def test_use_accumulator_forced_modes(self):
        lists = [(posting_list([(0, 1.0)]), 1.0)]
        assert not use_accumulator("heap", lists)
        assert use_accumulator("accumulator", lists)

    def test_auto_switches_on_total_entries(self):
        small = [(posting_list([(i, 1.0) for i in range(AUTO_MIN_ENTRIES - 1)]), 1.0)]
        large = [(posting_list([(i, 1.0) for i in range(AUTO_MIN_ENTRIES)]), 1.0)]
        assert not use_accumulator("auto", small)
        assert use_accumulator("auto", large)


class TestAccumulateMerge:
    def test_matches_heap_merge(self):
        lists = [
            (posting_list([(0, 1.0), (2, 1.5)]), 2.0),
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (2, 0.5)]), 1.0),
        ]
        threshold_of = lambda _s: 2.0  # noqa: E731
        expected = heap_merge(lists, threshold_of, CostCounters())
        assert accumulate_merge(lists, threshold_of, CostCounters()) == expected

    def test_empty_lists(self):
        assert accumulate_merge([], lambda _s: 1.0, CostCounters()) == []

    def test_accept_filter(self):
        lists = [(posting_list([(0, 1.0), (1, 1.0), (2, 1.0)]), 1.0)]
        got = accumulate_merge(
            lists, lambda _s: 1.0, CostCounters(), accept=lambda e: e != 1
        )
        assert got == [(0, 1.0), (2, 1.0)]

    def test_unit_probe_counts_into_float_weights(self):
        lists = [
            (posting_list([(0, 1.0), (2, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (1, 1.0), (2, 1.0)]), 1.0),
        ]
        got = accumulate_merge(lists, lambda _s: 1.0, CostCounters())
        assert got == [(0, 2.0), (1, 1.0), (2, 2.0)]
        assert all(type(weight) is float for _entity, weight in got)

    def test_max_score_one_is_not_unit(self):
        # max_score == 1.0 but one entry is below it: the counting scan
        # would report 2.0 for entity 4, the true weight is 1.25.
        trap = posting_list([(4, 0.25), (7, 1.0)])
        assert trap.max_score == 1.0
        lists = [(posting_list([(4, 1.0)]), 1.0), (trap, 1.0)]
        expected = heap_merge(lists, lambda _s: 1.0, CostCounters())
        got = accumulate_merge(lists, lambda _s: 1.0, CostCounters())
        assert got == expected == [(4, 1.25), (7, 1.0)]

    def test_non_unit_probe_score_is_not_unit(self):
        lists = [(posting_list([(1, 1.0), (3, 1.0)]), 0.5)] * 2
        got = accumulate_merge(lists, lambda _s: 0.5, CostCounters())
        assert got == [(1, 1.0), (3, 1.0)]
        assert got == heap_merge(lists, lambda _s: 0.5, CostCounters())

    @pytest.mark.parametrize("score", [1.0, 0.5])
    def test_accept_runs_once_per_distinct_entity(self, score):
        lists = [
            (posting_list([(0, score), (1, score), (2, score)]), 1.0),
            (posting_list([(0, score), (1, score)]), 1.0),
            (posting_list([(1, score), (2, score)]), 1.0),
        ]
        seen = []

        def accept(entity):
            seen.append(entity)
            return entity != 1

        counters = CostCounters()
        got = accumulate_merge(lists, lambda _s: 0.0, counters, accept)
        assert [entity for entity, _weight in got] == [0, 2]
        assert sorted(seen) == [0, 1, 2]
        # Touched = postings of accepted entities (what the heap counts).
        assert counters.list_items_touched == 4
        assert counters.accum_scans == 7
        assert counters.accum_writes == counters.candidates_checked == 2

    def test_counters_mirror_heap_semantics(self):
        lists = [
            (posting_list([(0, 1.0), (2, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
        ]
        heap_counters = CostCounters()
        heap_merge(lists, lambda _s: 2.0, heap_counters)
        acc_counters = CostCounters()
        accumulate_merge(lists, lambda _s: 2.0, acc_counters)
        assert acc_counters.list_items_touched == heap_counters.list_items_touched
        assert acc_counters.candidates_checked == heap_counters.candidates_checked
        assert acc_counters.heap_pops == 0
        assert acc_counters.heap_pushes == 0
        assert acc_counters.accum_scans == 4
        assert acc_counters.accum_writes == 3
        # The new counters are observability-only: excluded from the
        # comparable work metric.
        assert acc_counters.total_work() <= heap_counters.total_work()


class TestAccumulateMergeOpt:
    def test_matches_merge_opt_with_large_lists(self):
        # One long list (skipped from the merge) plus short ones.
        long_list = posting_list([(i, 1.0) for i in range(20)])
        lists = [
            (long_list, 1.0),
            (posting_list([(3, 1.0), (7, 1.0)]), 1.0),
            (posting_list([(3, 1.0), (9, 1.0)]), 1.0),
        ]
        threshold_of = lambda _s: 2.0  # noqa: E731
        expected = merge_opt(lists, 2.0, threshold_of, CostCounters())
        got = accumulate_merge_opt(lists, 2.0, threshold_of, CostCounters())
        assert got == expected

    def test_all_large_returns_empty(self):
        lists = [(posting_list([(i, 1.0) for i in range(10)]), 1.0)]
        counters = CostCounters()
        # index_threshold above the single list's max contribution means
        # every list is "large": entities seen only there cannot qualify.
        got = accumulate_merge_opt(lists, 5.0, lambda _s: 5.0, counters)
        assert got == []

    def test_gallop_steps_counted(self):
        long_list = posting_list([(i, 1.0) for i in range(64)])
        lists = [
            (long_list, 1.0),
            (posting_list([(60, 1.0)]), 1.0),
        ]
        counters = CostCounters()
        got = accumulate_merge_opt(lists, 2.0, lambda _s: 2.0, counters)
        assert got == [(60, 2.0)]
        assert counters.binary_searches == 1
        # A gallop from 0 to position 60 doubles its bracket 1, 2, ...,
        # 32, 64: six steps, i.e. (60 - 1).bit_length().
        assert counters.gallop_steps == 6
