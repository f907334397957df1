"""Integration tests for non-self joins (R join S)."""

import pytest

from repro import (
    Dataset,
    DicePredicate,
    JaccardPredicate,
    OverlapPredicate,
    ProbeClusterJoin,
    ProbeCountJoin,
    SimilarityIndex,
    make_algorithm,
)


@pytest.fixture
def sides():
    vocab: dict = {}
    left = Dataset.from_token_lists(
        [["a", "b", "c"], ["x", "y"], ["a", "b", "q"]], vocabulary=vocab
    )
    right = Dataset.from_token_lists(
        [["a", "b", "c", "d"], ["x", "y", "z"], ["m", "n"]], vocabulary=vocab
    )
    return left, right


class TestJoinBetween:
    def test_overlap(self, sides):
        left, right = sides
        result = ProbeCountJoin().join_between(left, right, OverlapPredicate(2))
        assert result.pair_set() == {(0, 0), (1, 1), (2, 0)}

    def test_jaccard(self, sides):
        left, right = sides
        result = ProbeCountJoin().join_between(left, right, JaccardPredicate(0.6))
        assert result.pair_set() == {(0, 0), (1, 1)}

    def test_pairs_reference_each_side(self, sides):
        left, right = sides
        result = ProbeCountJoin().join_between(left, right, OverlapPredicate(2))
        for pair in result.pairs:
            assert 0 <= pair.rid_a < len(left)
            assert 0 <= pair.rid_b < len(right)

    def test_mismatched_vocabulary_rejected(self):
        left = Dataset.from_token_lists([["a"]])
        right = Dataset.from_token_lists([["a"]])
        with pytest.raises(ValueError):
            ProbeCountJoin().join_between(left, right, OverlapPredicate(1))

    def test_matches_brute_force(self):
        import random

        rng = random.Random(55)
        vocab: dict = {}
        left_tokens = [
            [f"w{t}" for t in rng.sample(range(30), rng.randint(2, 8))] for _ in range(40)
        ]
        right_tokens = [
            [f"w{t}" for t in rng.sample(range(30), rng.randint(2, 8))] for _ in range(40)
        ]
        left = Dataset.from_token_lists(left_tokens, vocabulary=vocab)
        right = Dataset.from_token_lists(right_tokens, vocabulary=vocab)
        predicate = OverlapPredicate(3)
        expected = set()
        for i, lrec in enumerate(left.records):
            for j, rrec in enumerate(right.records):
                if len(set(lrec) & set(rrec)) >= 3:
                    expected.add((i, j))
        result = ProbeClusterJoin().join_between(left, right, predicate)
        assert result.pair_set() == expected

    def test_empty_sides(self):
        vocab: dict = {}
        left = Dataset.from_token_lists([], vocabulary=vocab)
        right = Dataset.from_token_lists([["a"]], vocabulary=vocab)
        result = ProbeCountJoin().join_between(left, right, OverlapPredicate(1))
        assert result.pairs == []

    def test_algorithm_name_tagged(self, sides):
        left, right = sides
        result = ProbeCountJoin().join_between(left, right, OverlapPredicate(2))
        assert result.algorithm.endswith("/between")


def _random_sides(seed, n_left=30, n_right=60, universe=25):
    """Left (S) and right (R) token lists over one vocabulary; every left
    token also occurs on the right, so served queries see no unknown
    tokens."""
    import random

    rng = random.Random(seed)
    right = [
        [f"w{t}" for t in rng.sample(range(universe), rng.randint(2, 8))]
        for _ in range(n_right)
    ]
    seen = sorted({token for tokens in right for token in tokens})
    left = [rng.sample(seen, rng.randint(2, 8)) for _ in range(n_left)]
    return left, right


class TestJoinBetweenBitmapFilter:
    def test_filter_runs_and_keeps_pairs(self):
        left_tokens, right_tokens = _random_sides(seed=57)
        vocab: dict = {}
        left = Dataset.from_token_lists(left_tokens, vocabulary=vocab)
        right = Dataset.from_token_lists(right_tokens, vocabulary=vocab)
        predicate = JaccardPredicate(0.3)
        plain = make_algorithm("probe-count-optmerge").join_between(
            left, right, predicate
        )
        filtered = make_algorithm(
            "probe-count-optmerge", bitmap_filter=True
        ).join_between(left, right, predicate)
        assert filtered.counters.bitmap_checks > 0
        assert sorted(filtered.pairs) == sorted(plain.pairs)


class TestQueryMatchesJoinBetween:
    """A served query runs the same probe as one ``join_between`` probe:
    querying every S record against an index over R gives the join's
    pairs and, summed, its work counters."""

    @pytest.mark.parametrize("backend", ["heap", "accumulator", "auto"])
    @pytest.mark.parametrize(
        "predicate",
        [JaccardPredicate(0.3), OverlapPredicate(3), DicePredicate(0.4)],
        ids=["jaccard-0.3", "overlap-3", "dice-0.4"],
    )
    def test_pairs_and_counters_equal(self, predicate, backend):
        left_tokens, right_tokens = _random_sides(seed=58)
        index = SimilarityIndex(predicate, merge_backend=backend)
        for tokens in right_tokens:
            index.add(tokens)
        before = index.counters.as_dict()
        served = set()
        for s, tokens in enumerate(left_tokens):
            for pair in index.query(tokens):
                served.add((s, pair.rid_a, pair.similarity))
        after = index.counters.as_dict()

        vocab: dict = {}
        right = Dataset.from_token_lists(right_tokens, vocabulary=vocab)
        left = Dataset.from_token_lists(left_tokens, vocabulary=vocab)
        joined = make_algorithm(
            "probe-count-optmerge", merge_backend=backend
        ).join_between(left, right, predicate)

        assert served
        assert served == {(p.rid_a, p.rid_b, p.similarity) for p in joined.pairs}
        skip = {"index_entries", "pairs_output"}
        join_counters = joined.counters.as_dict()
        for name in sorted((set(after) | set(join_counters)) - skip):
            per_query = after.get(name, 0) - before.get(name, 0)
            assert per_query == join_counters.get(name, 0), name
