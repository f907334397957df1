"""MergeOpt: threshold-sensitive list merge (paper §3.1 Algorithm 1,
generalized form §5.1.1 Algorithm 3).

Given the posting lists matching a probe record, sorted by decreasing
length, the algorithm picks the largest prefix ``L`` whose cumulative
maximum contribution stays below the index-level threshold bound
``T(r, I)``. Records appearing *only* in ``L`` lists cannot reach the
threshold, so only the remaining (short) lists ``S`` are heap-merged.
Each candidate popped from the heap is then completed by doubling binary
searches into the ``L`` lists in increasing size order, terminating early
once even full membership in the remaining ``L`` lists cannot reach the
candidate-specific threshold ``T(r, m)`` (Algorithm 3 step 9 uses this
tighter bound).

On skewed real-life data the few longest lists carry most of the merge
cost, so skipping them yields the paper's 5–100x speedups.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.core.inverted_index import PostingList
from repro.predicates.base import WEIGHT_EPS
from repro.utils.counters import CostCounters
from repro.utils.search import gallop_search_from

__all__ = ["merge_opt", "split_lists"]


def split_lists(
    lists: list[tuple[PostingList, float]], index_threshold: float
) -> tuple[list[tuple[PostingList, float]], list[float], int]:
    """Order lists by decreasing length and find the L/S split point.

    Returns ``(ordered_lists, cumulative_weights, k)`` where
    ``ordered_lists[:k]`` is ``L`` (skipped from the heap merge) and
    ``cumulative_weights[i]`` is the §3.1 ``cumulativeWt`` — the maximum
    total contribution of lists ``0..i``.
    """
    ordered = sorted(lists, key=lambda item: -len(item[0].ids))
    cumulative: list[float] = []
    running = 0.0
    for plist, probe_score in ordered:
        running += probe_score * plist.max_score
        cumulative.append(running)
    k = 0
    while k < len(ordered) and cumulative[k] < index_threshold - WEIGHT_EPS:
        k += 1
    return ordered, cumulative, k


def merge_opt(
    lists: list[tuple[PostingList, float]],
    index_threshold: float,
    threshold_of: Callable[[int], float],
    counters: CostCounters,
    accept: Callable[[int], bool] | None = None,
) -> list[tuple[int, float]]:
    """Threshold-optimized merge; same contract as ``heap_merge``.

    Args:
        lists: ``(posting_list, probe_score)`` probe matches.
        index_threshold: ``T(r, I)``, the smallest possible pair threshold
            against any indexed entity (§5.1.1).
        threshold_of: entity id -> exact pair threshold ``T(r, s)``.
        counters: work counters to update.
        accept: optional id-level filter applied before heap insertion
            (the §5 "apply filter(r, n) before pushing" step) and to the
            final candidates.

    Returns ``(entity_id, weight)`` candidates in increasing id order.
    """
    if not lists:
        return []
    ordered, cumulative, k = split_lists(lists, index_threshold)
    large = ordered[:k]
    small = ordered[k:]
    # Per-L-list search frontiers: candidates arrive in increasing id
    # order, so each binary search can resume where the last one ended.
    search_from = [0] * k

    heap: list[tuple[int, int]] = []
    frontiers = [0] * len(small)
    for list_idx, (plist, _probe_score) in enumerate(small):
        position = _first_accepted(plist, 0, accept)
        if position < len(plist.ids):
            heap.append((plist.ids[position], list_idx))
            frontiers[list_idx] = position + 1
            counters.heap_pushes += 1
        else:
            frontiers[list_idx] = position
    heapq.heapify(heap)

    candidates: list[tuple[int, float]] = []
    while heap:
        current, list_idx = heapq.heappop(heap)
        counters.heap_pops += 1
        counters.list_items_touched += 1
        plist, probe_score = small[list_idx]
        weight = probe_score * plist.scores[frontiers[list_idx] - 1]
        _push_next(heap, small, list_idx, frontiers, accept, counters)
        while heap and heap[0][0] == current:
            _, list_idx = heapq.heappop(heap)
            counters.heap_pops += 1
            counters.list_items_touched += 1
            plist, probe_score = small[list_idx]
            weight += probe_score * plist.scores[frontiers[list_idx] - 1]
            _push_next(heap, small, list_idx, frontiers, accept, counters)

        counters.candidates_checked += 1
        pair_threshold = threshold_of(current)
        # Algorithm 1 steps 8-11: search L lists smallest-first, bailing
        # out when even full membership in the rest cannot reach T(r, m).
        for i in range(k - 1, -1, -1):
            if weight + cumulative[i] < pair_threshold - WEIGHT_EPS:
                break
            plist, probe_score = large[i]
            counters.binary_searches += 1
            position = gallop_search_from(plist.ids, current, search_from[i])
            search_from[i] = position
            if position < len(plist.ids) and plist.ids[position] == current:
                weight += probe_score * plist.scores[position]
        if weight >= pair_threshold - WEIGHT_EPS:
            candidates.append((current, weight))
    return candidates


def _first_accepted(
    plist: PostingList, position: int, accept: Callable[[int], bool] | None
) -> int:
    if accept is None:
        return position
    ids = plist.ids
    n = len(ids)
    while position < n and not accept(ids[position]):
        position += 1
    return position


def _push_next(
    heap: list[tuple[int, int]],
    small: list[tuple[PostingList, float]],
    list_idx: int,
    frontiers: list[int],
    accept: Callable[[int], bool] | None,
    counters: CostCounters,
) -> None:
    plist, _probe_score = small[list_idx]
    position = _first_accepted(plist, frontiers[list_idx], accept)
    if position < len(plist.ids):
        heapq.heappush(heap, (plist.ids[position], list_idx))
        counters.heap_pushes += 1
        frontiers[list_idx] = position + 1
    else:
        frontiers[list_idx] = position
