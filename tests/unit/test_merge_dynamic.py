"""Unit tests for the dynamic-threshold merge (§4.1.1)."""

import random

from repro.core.heap_merge import heap_merge
from repro.core.merge_dynamic import merge_dynamic
from repro.utils.counters import CostCounters
from tests.conftest import posting_list


def unit_lists(id_lists):
    return [(posting_list([(i, 1.0) for i in ids]), 1.0) for ids in id_lists]


def collect_all(lists, initial, cap):
    """Run merge_dynamic without raising the threshold."""
    got = []

    def on_candidate(entity, weight):
        got.append((entity, weight))
        return initial

    merge_dynamic(lists, initial, cap, on_candidate, CostCounters())
    return got


class TestMergeDynamicStatic:
    """With a constant threshold it must equal the plain heap merge."""

    def test_matches_heap_merge(self):
        lists = unit_lists([[0, 1, 2], [1, 2], [2, 3]])
        expected = heap_merge(lists, lambda _s: 2.0, CostCounters())
        got = collect_all(lists, 2.0, 2.0)
        assert got == expected

    def test_randomized_equivalence(self):
        rng = random.Random(3)
        for trial in range(30):
            lists = []
            for _ in range(rng.randint(1, 7)):
                ids = sorted(rng.sample(range(30), rng.randint(1, 20)))
                lists.append((posting_list([(i, 1.0) for i in ids]), 1.0))
            threshold = rng.uniform(1.0, 4.0)
            expected = heap_merge(lists, lambda _s: threshold, CostCounters())
            got = collect_all(lists, threshold, threshold)
            assert got == expected, f"trial {trial}"


class TestMergeDynamicRaising:
    def test_all_join_candidates_survive_raises(self):
        """Raising toward the cap never loses entities at/above the cap."""
        rng = random.Random(4)
        for trial in range(30):
            lists = []
            for _ in range(rng.randint(2, 7)):
                ids = sorted(rng.sample(range(30), rng.randint(2, 20)))
                lists.append((posting_list([(i, 1.0) for i in ids]), 1.0))
            cap = rng.uniform(1.5, 4.0)
            initial = cap * 0.2
            truth = {
                entity: weight
                for entity, weight in heap_merge(lists, lambda _s: 0.5, CostCounters())
                if weight >= cap - 1e-9
            }
            reported = {}

            def on_candidate(entity, weight, _state={"threshold": initial}):
                reported[entity] = weight
                # aggressive raise: average toward the cap
                _state["threshold"] = (_state["threshold"] + weight) / 2
                return _state["threshold"]

            merge_dynamic(lists, initial, cap, on_candidate, CostCounters())
            for entity, weight in truth.items():
                assert entity in reported, f"trial {trial}: lost join candidate {entity}"
                assert abs(reported[entity] - weight) < 1e-9, (
                    f"trial {trial}: wrong weight for {entity}"
                )

    def test_reported_weights_are_exact_for_candidates(self):
        # Demoted lists must still contribute via binary search.
        lists = unit_lists([
            list(range(20)),          # long list -> demotion target
            [5, 10, 15],
            [5, 10],
            [10],
        ])
        reported = {}

        def on_candidate(entity, weight):
            reported[entity] = weight
            return 2.0  # raise immediately so the long list demotes

        merge_dynamic(lists, 1.0, 3.0, on_candidate, CostCounters())
        # Entity 10 appears in all four lists.
        assert reported.get(10) == 4.0

    def test_threshold_never_lowered(self):
        lists = unit_lists([[0, 1], [1, 2], [2, 3]])
        seen_weights = []

        def on_candidate(entity, weight):
            seen_weights.append(weight)
            return 0.0  # attempt to lower; must be clamped

        merge_dynamic(lists, 1.5, 2.0, on_candidate, CostCounters())
        # Candidates below 1.5 never reported despite the lower return.
        assert all(w >= 1.5 - 1e-9 for w in seen_weights)

    def test_empty_lists(self):
        merge_dynamic([], 1.0, 2.0, lambda e, w: 1.0, CostCounters())
