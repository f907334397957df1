"""Unit tests for the cluster bookkeeping shared by §3.4 and §4."""

import pytest

from repro.core.clusters import Cluster, ClusterSet


class TestCluster:
    def test_add_record_tracks_membership(self):
        cluster = Cluster(0)
        cluster.add_record(0, 10, (1, 2), (1.0, 1.0), norm=2.0)
        cluster.add_record(3, 11, (2, 3), (1.0, 1.0), norm=2.0)
        assert cluster.positions == [0, 3]
        assert cluster.rids == [10, 11]
        assert len(cluster) == 2

    def test_min_member_norm(self):
        cluster = Cluster(0)
        cluster.add_record(0, 1, (1,), (1.0,), norm=5.0)
        cluster.add_record(1, 2, (2,), (1.0,), norm=3.0)
        cluster.add_record(2, 3, (3,), (1.0,), norm=9.0)
        assert cluster.min_member_norm == 3.0

    def test_union_norm_counts_distinct_words(self):
        cluster = Cluster(0)
        cluster.add_record(0, 1, (1, 2), (1.0, 1.0), norm=2.0)
        cluster.add_record(1, 2, (2, 3), (1.0, 1.0), norm=2.0)
        assert cluster.union_norm == 3.0  # union {1, 2, 3}, unit scores

    def test_word_scores_take_max(self):
        cluster = Cluster(0)
        cluster.add_record(0, 1, (7,), (1.0,), norm=1.0)
        updates = cluster.add_record(1, 2, (7,), (3.0,), norm=9.0)
        assert cluster.word_scores[7] == 3.0
        assert updates == [(7, 3.0)]
        # union norm replaced 1^2 by 3^2
        assert cluster.union_norm == pytest.approx(9.0)

    def test_add_record_reports_only_changes(self):
        cluster = Cluster(0)
        cluster.add_record(0, 1, (1, 2), (1.0, 1.0), norm=2.0)
        updates = cluster.add_record(1, 2, (2, 3), (1.0, 1.0), norm=2.0)
        assert updates == [(3, 1.0)]  # word 2 unchanged (same score)

    def test_index_starts_unmaterialized(self):
        assert Cluster(0).index is None


class TestClusterSet:
    def test_new_cluster_ids_sequential(self):
        clusters = ClusterSet()
        assert clusters.new_cluster().cid == 0
        assert clusters.new_cluster().cid == 1
        assert len(clusters) == 2

    def test_assign_updates_cluster_level_index(self):
        clusters = ClusterSet()
        cluster = clusters.new_cluster()
        clusters.assign(cluster, 0, 0, (1, 2), (1.0, 1.0), norm=2.0)
        assert list(clusters.index.get(1).ids) == [0]
        assert clusters.index.n_entries == 2

    def test_assign_out_of_cid_order_keeps_lists_sorted(self):
        clusters = ClusterSet()
        first = clusters.new_cluster()
        second = clusters.new_cluster()
        clusters.assign(second, 0, 0, (5,), (1.0,), norm=1.0)
        # An older cluster later gains the same word.
        clusters.assign(first, 1, 1, (5,), (1.0,), norm=1.0)
        assert list(clusters.index.get(5).ids) == [0, 1]

    def test_assign_tracks_min_norm(self):
        clusters = ClusterSet()
        cluster = clusters.new_cluster()
        clusters.assign(cluster, 0, 0, (1,), (1.0,), norm=4.0)
        clusters.assign(cluster, 1, 1, (2,), (1.0,), norm=2.0)
        assert clusters.index.min_norm == 2.0
        assert clusters.norms[0] == 2.0

    def test_assign_score_raise_does_not_duplicate_entry(self):
        clusters = ClusterSet()
        cluster = clusters.new_cluster()
        clusters.assign(cluster, 0, 0, (9,), (1.0,), norm=1.0)
        clusters.assign(cluster, 1, 1, (9,), (2.0,), norm=4.0)
        plist = clusters.index.get(9)
        assert list(plist.ids) == [0]
        assert list(plist.scores) == [2.0]
        assert clusters.index.n_entries == 1


class TestNEntriesBookkeeping:
    def test_assign_keeps_n_entries_consistent(self):
        """Regression: score-raising re-assignments must not inflate
        n_entries (insert_sorted reports reuse; assign counts only new
        slots). The audit recomputes from the lists themselves."""
        clusters = ClusterSet()
        cluster = clusters.new_cluster()
        clusters.assign(cluster, 0, 0, (1, 2), (1.0, 1.0), norm=2.0)
        clusters.assign(cluster, 1, 1, (2, 3), (2.0, 1.0), norm=3.0)
        clusters.assign(cluster, 2, 2, (2,), (3.0,), norm=3.0)
        assert clusters.index.audit_n_entries() == clusters.index.n_entries
