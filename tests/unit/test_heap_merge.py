"""Unit tests for the basic heap merge (§2.1)."""

from repro.core.heap_merge import heap_merge
from repro.utils.counters import CostCounters
from tests.conftest import posting_list


class TestHeapMerge:
    def test_accumulates_across_lists(self):
        lists = [
            (posting_list([(0, 1.0), (2, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
            (posting_list([(0, 1.0)]), 1.0),
        ]
        counters = CostCounters()
        out = heap_merge(lists, lambda _s: 2.0, counters)
        assert out == [(0, 3.0)]

    def test_threshold_of_is_per_entity(self):
        lists = [
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
        ]
        # Entity 0 needs 3 (fails), entity 1 needs 2 (passes).
        out = heap_merge(lists, lambda s: 3.0 if s == 0 else 2.0, CostCounters())
        assert out == [(1, 2.0)]

    def test_scores_multiply(self):
        lists = [(posting_list([(0, 2.0)]), 3.0)]
        out = heap_merge(lists, lambda _s: 6.0, CostCounters())
        assert out == [(0, 6.0)]

    def test_accept_filter_skips_entities(self):
        lists = [
            (posting_list([(0, 1.0), (1, 1.0), (2, 1.0)]), 1.0),
            (posting_list([(0, 1.0), (1, 1.0), (2, 1.0)]), 1.0),
        ]
        out = heap_merge(lists, lambda _s: 2.0, CostCounters(), accept=lambda s: s != 1)
        assert out == [(0, 2.0), (2, 2.0)]

    def test_results_in_increasing_id_order(self):
        lists = [
            (posting_list([(3, 1.0), (7, 1.0)]), 1.0),
            (posting_list([(1, 1.0), (3, 1.0), (7, 1.0)]), 1.0),
            (posting_list([(3, 1.0), (7, 1.0)]), 1.0),
        ]
        out = heap_merge(lists, lambda _s: 2.0, CostCounters())
        assert [entity for entity, _w in out] == [3, 7]

    def test_empty_lists(self):
        assert heap_merge([], lambda _s: 1.0, CostCounters()) == []

    def test_counters_track_pops(self):
        lists = [
            (posting_list([(0, 1.0), (1, 1.0)]), 1.0),
            (posting_list([(0, 1.0)]), 1.0),
        ]
        counters = CostCounters()
        heap_merge(lists, lambda _s: 1.0, counters)
        assert counters.heap_pops == 3
        assert counters.heap_pushes == 3
        assert counters.candidates_checked == 2

    def test_single_list_every_entry_is_candidate(self):
        lists = [(posting_list([(0, 1.0), (5, 1.0), (9, 1.0)]), 1.0)]
        out = heap_merge(lists, lambda _s: 1.0, CostCounters())
        assert out == [(0, 1.0), (5, 1.0), (9, 1.0)]


def _reference_heap_merge(lists, threshold_of, counters, accept=None):
    """The straightforward (unrolled first-pop / follow-up-pop) form of
    the merge, kept verbatim as the counter-identity oracle for the
    shared-inner-step formulation in ``heap_merge``."""
    import heapq

    from repro.predicates.base import WEIGHT_EPS

    n_lists = len(lists)
    frontiers = [0] * n_lists
    heap = []
    for list_idx, (plist, _probe_score) in enumerate(lists):
        ids = plist.ids
        position = 0
        if accept is not None:
            while position < len(ids) and not accept(ids[position]):
                position += 1
        if position < len(ids):
            heap.append((ids[position], list_idx))
            frontiers[list_idx] = position + 1
            counters.heap_pushes += 1
        else:
            frontiers[list_idx] = position
    heapq.heapify(heap)

    def advance(list_idx):
        plist, probe_score = lists[list_idx]
        position = frontiers[list_idx]
        contribution = probe_score * plist.scores[position - 1]
        counters.list_items_touched += 1
        ids = plist.ids
        if accept is not None:
            while position < len(ids) and not accept(ids[position]):
                position += 1
        if position < len(ids):
            heapq.heappush(heap, (ids[position], list_idx))
            counters.heap_pushes += 1
            frontiers[list_idx] = position + 1
        else:
            frontiers[list_idx] = position
        return contribution

    candidates = []
    while heap:
        current, list_idx = heapq.heappop(heap)
        counters.heap_pops += 1
        weight = advance(list_idx)
        while heap and heap[0][0] == current:
            _, list_idx = heapq.heappop(heap)
            counters.heap_pops += 1
            weight += advance(list_idx)
        counters.candidates_checked += 1
        if weight >= threshold_of(current) - WEIGHT_EPS:
            candidates.append((current, weight))
    return candidates


class TestCounterIdentity:
    """The deduplicated inner loop must be counter- and result-identical
    to the unrolled formulation it replaced."""

    def _random_lists(self, rng):
        lists = []
        for _ in range(rng.randint(1, 8)):
            ids = sorted(rng.sample(range(40), rng.randint(1, 15)))
            entries = [(entity, rng.uniform(0.2, 2.0)) for entity in ids]
            lists.append((posting_list(entries), rng.uniform(0.2, 2.0)))
        return lists

    def test_counters_and_results_identical_to_reference(self):
        import random

        rng = random.Random(20260806)
        for trial in range(50):
            lists = self._random_lists(rng)
            threshold = rng.uniform(0.5, 4.0)
            accept = (lambda e: e % 3 != 0) if trial % 2 else None
            got_counters = CostCounters()
            ref_counters = CostCounters()
            got = heap_merge(lists, lambda _s: threshold, got_counters, accept)
            ref = _reference_heap_merge(
                lists, lambda _s: threshold, ref_counters, accept
            )
            assert got == ref
            assert got_counters.as_dict() == ref_counters.as_dict()
