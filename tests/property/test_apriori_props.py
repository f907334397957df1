"""Hypothesis properties of the Apriori candidate join and tid-list
intersection: the level loop they drive finds exactly the frequent
itemsets, each with the tid-list of its containing transactions."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.apriori import generate_candidates, intersect_sorted
from tests.unit.test_apriori import mine

transactions = st.lists(
    st.lists(st.integers(0, 10), min_size=1, max_size=6, unique=True).map(tuple),
    max_size=18,
)
sorted_ids = st.lists(st.integers(0, 60), unique=True).map(sorted)


def brute_force(txns, min_support):
    items = sorted({item for txn in txns for item in txn})
    found = {}
    for size in range(1, len(items) + 1):
        level = {}
        for itemset in combinations(items, size):
            tids = [t for t, txn in enumerate(txns) if set(itemset) <= set(txn)]
            if len(tids) >= min_support:
                level[itemset] = tids
        if not level:
            break
        found.update(level)
    return found


class TestAprioriProperties:
    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, sorted_ids)
    def test_intersection_matches_sets(self, a, b):
        assert intersect_sorted(a, b) == sorted(set(a) & set(b))

    @settings(max_examples=120, deadline=None)
    @given(transactions, st.integers(min_value=1, max_value=5))
    def test_level_loop_finds_exactly_the_frequent_itemsets(self, txns, min_support):
        assert mine(txns, min_support) == brute_force(txns, min_support)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 8), min_size=3, max_size=3, unique=True)))
    def test_candidates_extend_both_parents_by_one_item(self, level):
        level = sorted({tuple(sorted(itemset)) for itemset in level})
        for candidate, parent_a, parent_b in generate_candidates(level):
            assert list(candidate) == sorted(set(candidate))
            assert len(candidate) == 4
            assert set(parent_a) | set(parent_b) == set(candidate)
            assert parent_a[:-1] == parent_b[:-1] == candidate[:-2]
