"""Unit tests for the Apriori candidate join and tid-list intersection."""

from itertools import combinations

from repro.mining.apriori import generate_candidates, intersect_sorted


class TestIntersectSorted:
    def test_basic(self):
        assert intersect_sorted([1, 3, 5], [3, 4, 5]) == [3, 5]

    def test_disjoint(self):
        assert intersect_sorted([1, 2], [3, 4]) == []

    def test_empty(self):
        assert intersect_sorted([], [1]) == []
        assert intersect_sorted([1], []) == []

    def test_identical(self):
        assert intersect_sorted([1, 2, 3], [1, 2, 3]) == [1, 2, 3]


class TestGenerateCandidates:
    def test_joins_shared_prefix(self):
        level = [(1, 2), (1, 3), (2, 3)]
        candidates = {c for c, _a, _b in generate_candidates(level)}
        assert candidates == {(1, 2, 3)}

    def test_no_join_without_shared_prefix(self):
        level = [(1, 2), (3, 4)]
        assert list(generate_candidates(level)) == []

    def test_singletons_pair_up(self):
        level = [(1,), (2,), (3,)]
        candidates = {c for c, _a, _b in generate_candidates(level)}
        assert candidates == {(1, 2), (1, 3), (2, 3)}

    def test_parents_reported(self):
        level = [(1, 2), (1, 3)]
        [(candidate, parent_a, parent_b)] = list(generate_candidates(level))
        assert candidate == (1, 2, 3)
        assert {parent_a, parent_b} == {(1, 2), (1, 3)}

    def test_empty_level(self):
        assert list(generate_candidates([])) == []

    def test_each_superset_produced_once(self):
        # All 2-subsets of five items join into all 3-subsets, each
        # exactly once (from its two parents sharing the first item).
        level = list(combinations(range(5), 2))
        candidates = [c for c, _a, _b in generate_candidates(level)]
        assert sorted(candidates) == list(combinations(range(5), 3))

    def test_level_order_does_not_matter(self):
        level = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        forward = sorted(generate_candidates(level))
        backward = sorted(generate_candidates(level[::-1]))
        assert forward == backward
        assert {c for c, _a, _b in forward} == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}


def mine(transactions, min_support):
    """Frequent itemsets with their tid-lists, by the level loop that
    Word-Groups runs over the two building blocks."""
    tidlists: dict[tuple[int, ...], list[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in sorted(set(transaction)):
            tidlists.setdefault((item,), []).append(tid)
    level = {k: v for k, v in tidlists.items() if len(v) >= min_support}
    found = dict(level)
    while level:
        nxt = {}
        for candidate, parent_a, parent_b in generate_candidates(list(level)):
            tids = intersect_sorted(level[parent_a], level[parent_b])
            if len(tids) >= min_support:
                nxt[candidate] = tids
        found.update(nxt)
        level = nxt
    return found


class TestLevelwiseMining:
    TRANSACTIONS = [
        (1, 2, 3),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]

    def test_mine_with_support_three(self):
        result = mine(self.TRANSACTIONS, 3)
        assert set(result) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}
        assert result[(1,)] == [0, 1, 2, 4]
        assert result[(1, 2)] == [0, 1, 4]

    def test_mine_with_support_two_reaches_triple(self):
        result = mine(self.TRANSACTIONS, 2)
        assert result[(1, 2, 3)] == [0, 4]

    def test_tidlists_sorted(self):
        for tids in mine(self.TRANSACTIONS, 2).values():
            assert tids == sorted(tids)

    def test_empty_transactions(self):
        assert mine([], 2) == {}
