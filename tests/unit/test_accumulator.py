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
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_opt import merge_opt
from repro.storage.mmap_index import map_index
from repro.utils.counters import CostCounters
from tests.conftest import posting_list
from tests.property.test_merge_backends import reference_counters


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


def _unit_probe(survivors, s_score=1.0, l_probe=(1.0, 1.0, 1.0, 1.0)):
    """Four long L lists over ids ``< 200`` and two short S lists, as
    ``(ids, scores, probe score)`` specs.

    ``survivors`` maps an entity to ``(S lists holding it, L lists
    missing it)``; the L lists are given longest first, so completion
    visits L3, L2, L1, L0. ``index_threshold=4.5`` puts all four in L
    when their probe scores are 1.0.
    """
    large = [
        [e for e in range(200 - 10 * i) if i not in survivors.get(e, ((), ()))[1]]
        for i in range(4)
    ]
    small = [[e for e, (s_lists, _misses) in survivors.items() if j in s_lists] for j in range(2)]
    specs = [(ids, [1.0] * len(ids), probe) for ids, probe in zip(large, l_probe)]
    specs += [(sorted(ids), [s_score] * len(ids), 1.0) for ids in small]
    return specs


def _memory_lists(specs):
    return [(posting_list(zip(ids, scores)), probe) for ids, scores, probe in specs]


def _assert_matches_heap(lists, threshold, index_threshold=4.5):
    """Run both MergeOpt backends on ``lists`` and check the accumulator
    against the heap merge (candidates, shared counters) and against the
    per-posting reference (every counter field)."""
    threshold_of = lambda _s: threshold  # noqa: E731
    heap_counters = CostCounters()
    expected = merge_opt(lists, index_threshold, threshold_of, heap_counters)
    counters = CostCounters()
    got = accumulate_merge_opt(lists, index_threshold, threshold_of, counters)
    assert got == expected
    for field in ("list_items_touched", "candidates_checked", "binary_searches"):
        assert getattr(counters, field) == getattr(heap_counters, field)
    assert counters == reference_counters(lists, index_threshold, threshold_of, None)
    return got, counters


class TestUnitCompletion:
    """All-unit probes complete with a loop that tests Algorithm 1's
    bound only after a miss; it must search exactly the lists the
    general loop searches."""

    def test_stops_on_a_miss_in_the_middle(self):
        # Weight 2 + hit in L3 = 3; misses in L2 (3 + 2 still reaches
        # 5) and L1 (3 + 1 does not): L0 is never searched.
        lists = _memory_lists(_unit_probe({20: ((0, 1), (2, 1))}))
        got, counters = _assert_matches_heap(lists, 5.0)
        assert got == []
        assert counters.binary_searches == 3

    def test_misses_in_the_last_list(self):
        lists = _memory_lists(_unit_probe({40: ((0, 1), (0,)), 41: ((0, 1), (0,))}))
        got, counters = _assert_matches_heap(lists, 5.0)
        assert got == [(40, 5.0), (41, 5.0)]
        assert counters.binary_searches == 8
        got, counters = _assert_matches_heap(lists, 6.0)
        assert got == []
        assert counters.binary_searches == 8

    def test_hits_every_list(self):
        lists = _memory_lists(_unit_probe({60: ((0, 1), ()), 61: ((0,), ())}))
        got, counters = _assert_matches_heap(lists, 5.0)
        assert got == [(60, 6.0), (61, 5.0)]
        assert all(type(weight) is float for _entity, weight in got)
        assert counters.binary_searches == 8

    def test_first_miss_stops_a_single_list_survivor(self):
        # Weight 1 + 4 reaches 5 only with every L list: the first miss
        # (in L3) ends the completion.
        lists = _memory_lists(_unit_probe({80: ((0,), (3,)), 81: ((0,), (1,))}))
        got, counters = _assert_matches_heap(lists, 5.0)
        assert got == []
        assert counters.binary_searches == 1 + 3

    def test_mixed_survivors_share_frontiers(self):
        survivors = {
            5: ((0, 1), ()),
            20: ((0, 1), (2, 1)),
            40: ((0, 1), (0,)),
            60: ((0,), (3,)),
            90: ((1,), ()),
            150: ((0, 1), (3, 2, 1, 0)),
        }
        lists = _memory_lists(_unit_probe(survivors))
        for threshold in (3.0, 4.0, 5.0, 5.5, 6.0):
            _assert_matches_heap(lists, threshold)
        _got, counters = _assert_matches_heap(lists, 5.0)
        assert counters.gallop_steps > 0

    def test_weighted_small_lists_over_unit_large_lists(self):
        # S scores 0.7: float weights (1.4 for two S hits).
        survivors = {20: ((0, 1), (2, 1)), 40: ((0, 1), (0,)), 60: ((0, 1), ())}
        lists = _memory_lists(_unit_probe(survivors, s_score=0.7))
        for threshold in (4.4, 5.0, 5.4, 5.5):
            _assert_matches_heap(lists, threshold)
        got, _counters = _assert_matches_heap(lists, 5.0)
        assert got == [(60, 5.4)]

    def test_non_unit_probe_score_takes_the_weighted_loop(self):
        # L2 contributes 0.5 per hit: counting it as 1.0 would report
        # 6.0 for entity 60 and keep entity 40.
        survivors = {40: ((0, 1), (0,)), 60: ((0, 1), ())}
        lists = _memory_lists(_unit_probe(survivors, l_probe=(1.0, 1.0, 0.5, 1.0)))
        got, _counters = _assert_matches_heap(lists, 5.0)
        assert got == [(60, 5.5)]

    def test_mapped_varbyte_columns(self):
        survivors = {
            5: ((0, 1), ()),
            20: ((0, 1), (2, 1)),
            40: ((0, 1), (0,)),
            70: ((0,), (3,)),
            130: ((0, 1), (1,)),
        }
        specs = _unit_probe(survivors)
        index = ScoredInvertedIndex()
        for entity in range(200):
            tokens = [t for t, (ids, _scores, _probe) in enumerate(specs) if entity in ids]
            index.insert(entity, tokens, [1.0] * len(tokens), 1.0)
        mapped = map_index(index, compressed=True)
        try:
            lists = [(mapped.get(t), 1.0) for t in range(len(specs))]
            assert all(hasattr(plist.ids, "bisect_from") for plist, _ in lists[:4])
            memory = _memory_lists(specs)
            for threshold in (4.0, 5.0, 6.0):
                got, counters = _assert_matches_heap(lists, threshold)
                assert (got, counters) == _assert_matches_heap(memory, threshold)
        finally:
            mapped.dispose()
