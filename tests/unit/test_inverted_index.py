"""Unit tests for the scored inverted index."""

import math

import pytest

from repro.core.inverted_index import PostingList, ScoredInvertedIndex
from repro.utils.counters import CostCounters


class TestPostingList:
    def test_min_score_bounds_every_score(self):
        plist = PostingList()
        assert plist.min_score == math.inf
        plist.insert_sorted(2, 1.0)
        assert plist.min_score == plist.max_score == 1.0
        plist.insert_sorted(1, 0.75)
        assert plist.min_score == 0.75
        # An in-place raise keeps the old (still sound) lower bound.
        plist.insert_sorted(1, 1.0)
        assert list(plist.scores) == [1.0, 1.0]
        assert plist.min_score == 0.75

    def test_insert_sorted_middle(self):
        plist = PostingList()
        plist.insert_sorted(1, 1.0)
        plist.insert_sorted(9, 1.0)
        plist.insert_sorted(5, 3.0)
        assert list(plist.ids) == [1, 5, 9]
        assert list(plist.scores) == [1.0, 3.0, 1.0]
        assert plist.max_score == 3.0

    def test_insert_sorted_existing_raises_score(self):
        plist = PostingList()
        plist.insert_sorted(5, 1.0)
        plist.insert_sorted(5, 2.0)
        assert list(plist.ids) == [5]
        assert list(plist.scores) == [2.0]

    def test_insert_sorted_existing_never_lowers_score(self):
        plist = PostingList()
        plist.insert_sorted(5, 2.0)
        plist.insert_sorted(5, 1.0)
        assert list(plist.scores) == [2.0]


class TestScoredInvertedIndex:
    def test_insert_builds_sorted_lists(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        index.insert(1, (2, 3), (1.0, 1.0), norm=2.0)
        assert list(index.get(2).ids) == [0, 1]
        assert list(index.get(1).ids) == [0]
        assert list(index.get(3).ids) == [1]

    def test_older_entity_grows_through_insert_sorted(self):
        # The cluster-level index's growth path: an old entity gains a
        # word a younger one already holds, and raises a shared word's
        # score; only genuinely new entries count toward n_entries.
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        index.insert(1, (2, 3), (1.0, 1.0), norm=2.0)
        assert index.get_or_create(3).insert_sorted(0, 0.5) is True
        assert index.get_or_create(2).insert_sorted(0, 2.0) is False
        index.n_entries += 1
        assert list(index.get(3).ids) == [0, 1]
        assert list(index.get(3).scores) == [0.5, 1.0]
        assert list(index.get(2).scores) == [2.0, 1.0]
        assert index.get(2).max_score == 2.0
        assert index.audit_n_entries() == 5

    def test_min_norm_tracks_minimum(self):
        index = ScoredInvertedIndex()
        assert index.min_norm == math.inf
        index.insert(0, (1,), (1.0,), norm=5.0)
        index.insert(1, (1,), (1.0,), norm=3.0)
        index.insert(2, (1,), (1.0,), norm=9.0)
        assert index.min_norm == 3.0

    def test_entry_counting(self):
        index = ScoredInvertedIndex()
        counters = CostCounters()
        index.insert(0, (1, 2, 3), (1.0,) * 3, norm=3.0, counters=counters)
        assert index.n_entries == 3
        assert index.n_entities == 1
        assert counters.index_entries == 3

    def test_probe_lists_skips_missing_and_zero_scores(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        lists = index.probe_lists((1, 5, 2), (1.0, 1.0, 0.0))
        assert len(lists) == 1
        assert list(lists[0][0].ids) == [0]

    def test_get_or_create(self):
        index = ScoredInvertedIndex()
        plist = index.get_or_create(7)
        assert len(plist) == 0
        assert index.get_or_create(7) is plist

    def test_len_counts_distinct_words(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        index.insert(1, (2,), (1.0,), norm=1.0)
        assert len(index) == 2
        assert 1 in index
        assert 9 not in index


class TestSealedPostings:
    def test_seal_rejects_insert_sorted(self):
        plist = PostingList()
        plist.insert_sorted(1, 1.0)
        assert plist.seal() is plist
        assert plist.sealed
        with pytest.raises(ValueError):
            plist.insert_sorted(0, 1.0)

    def test_index_seal_freezes_every_list(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        assert index.seal() is index
        with pytest.raises(ValueError):
            index.get(1).insert_sorted(5, 1.0)

    def test_index_insert_rejects_after_seal(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        index.seal()
        with pytest.raises(ValueError, match="posting list is sealed"):
            index.insert(1, (2,), (1.0,), norm=1.0)
        # A word with no list yet gets a fresh, unsealed one.
        index.insert(1, (7,), (1.0,), norm=1.0)
        assert list(index.get(7).ids) == [1]

    def test_index_insert_rejects_out_of_order_entity(self):
        index = ScoredInvertedIndex()
        index.insert(3, (1, 2), (1.0, 1.0), norm=2.0)
        with pytest.raises(ValueError, match=r"increasing id order \(got 3 after 3\)"):
            index.insert(3, (2,), (1.0,), norm=1.0)
        with pytest.raises(ValueError, match=r"increasing id order \(got 2 after 3\)"):
            index.insert(2, (1,), (1.0,), norm=1.0)
        assert list(index.get(1).ids) == [3]
        assert list(index.get(2).ids) == [3]

    def test_index_insert_tracks_score_range(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1,), (0.5,), norm=1.0)
        index.insert(1, (1,), (2.0,), norm=1.0)
        plist = index.get(1)
        assert list(plist.scores) == [0.5, 2.0]
        assert (plist.min_score, plist.max_score) == (0.5, 2.0)

    def test_sealed_lists_still_readable(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1,), (1.0,), norm=1.0)
        index.seal()
        lists = index.probe_lists((1,), (1.0,))
        assert list(lists[0][0].ids) == [0]


class TestNEntriesContract:
    def test_insert_sorted_reports_new_vs_reused(self):
        plist = PostingList()
        assert plist.insert_sorted(5, 1.0) is True
        assert plist.insert_sorted(5, 2.0) is False  # score raise, no new slot
        assert plist.insert_sorted(2, 1.0) is True

    def test_audit_passes_on_consistent_index(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1, 2), (1.0, 1.0), norm=2.0)
        index.insert(1, (2,), (1.0,), norm=1.0)
        assert index.audit_n_entries() == 3

    def test_audit_catches_drift(self):
        index = ScoredInvertedIndex()
        index.insert(0, (1,), (1.0,), norm=1.0)
        # A caller that mutates lists via get_or_create without keeping
        # its side of the bookkeeping bargain is exactly what the audit
        # exists to catch.
        index.get_or_create(9).insert_sorted(0, 1.0)
        with pytest.raises(AssertionError):
            index.audit_n_entries()
