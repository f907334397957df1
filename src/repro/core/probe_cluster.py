"""Probe-Cluster: the paper's final in-memory algorithm (§3.4, §4.1.1).

Builds on the online, pre-sorted Probe-Count by clustering related
records inside the index: posting lists point at disjoint *clusters* of
records rather than individual records, shrinking the lists that the
merge has to process when the data contains many high-overlap records.

Per scanned record ``r``:

1. Probe the cluster-level index with MergeOpt at the join threshold —
   "we perform the usual probe-merge operation over the index and get
   back a list of clusters C(r) each of whose union of words have T
   overlap with r".
2. For each cluster in ``C(r)``, probe that cluster's private
   record-level index with MergeOpt and emit verified pairs (singleton
   clusters are verified directly).
3. Assign ``r`` to the most similar cluster (similarity = overlap /
   union, the §4.1.1 ratio "that prevents large clusters from getting
   too large too fast") if it is similar enough and not full; otherwise
   open a new cluster. Update the cluster-level index with the words
   ``r`` contributes.

The lower, dynamically-raised home-search threshold of §4.1.1 — needed
when memory pressure forces records into clusters below the join
threshold — lives in :class:`~repro.core.cluster_mem.ClusterMemJoin`.
"""

from __future__ import annotations

from repro.core.base import ProbePlan, SetJoinAlgorithm, probe_kernel, run_merge
from repro.core.clusters import Cluster, ClusterSet
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.predicates.base import BoundPredicate, PairThreshold
from repro.utils.counters import CostCounters

__all__ = ["ProbeClusterJoin"]


class ProbeClusterJoin(SetJoinAlgorithm):
    """Online clustered probe join (§3.4).

    Args:
        sort: pre-sort records by decreasing norm (§3.3/§5.1.2); the
            paper's final algorithm includes this.
        home_similarity: minimum overlap/union ratio for joining an
            existing cluster instead of opening a new one (the paper
            derives its value from a target records-per-cluster estimate;
            it is a free parameter here).
        max_cluster_records: optional cap ``NR`` on records per cluster.
        max_clusters: optional cap ``Ng`` on the number of clusters; when
            reached, records are force-assigned to the best (or smallest)
            cluster. Unlimited by default.
    """

    shardable = True
    resumable = True
    merges = True

    def __init__(
        self,
        sort: bool = True,
        home_similarity: float = 0.5,
        max_cluster_records: int | None = None,
        max_clusters: int | None = None,
    ):
        if not 0.0 <= home_similarity <= 1.0:
            raise ValueError(
                f"home_similarity must be in [0, 1], got {home_similarity}"
            )
        self.sort = sort
        self.home_similarity = home_similarity
        self.max_cluster_records = max_cluster_records
        self.max_clusters = max_clusters
        self.name = "probe-cluster"
        #: populated by the last join: rid -> cluster id (inspection).
        self.last_assignment: dict[int, int] = {}

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if self.sort:
            order = sorted(range(len(dataset)), key=lambda rid: (-bound.norm(rid), rid))
        else:
            order = list(range(len(dataset)))
        plan = self._probe_plan(bound, order=order)
        clusters = ClusterSet()
        pairs: list[MatchPair] = []
        self.last_assignment = {}

        for position, rid, replay in self._drive(order, counters, pairs):
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            norm_r = bound.norm(rid)
            if not replay:
                counters.probes += 1
            # The cluster probe must run even on resume-replay: the home
            # assignment below depends on it and rebuilds the cluster
            # state deterministically. Only the pair-emitting fine joins
            # are skipped (their pairs were restored from the checkpoint).
            join_clusters, home = self._probe_clusters(
                clusters, tokens, scores, norm_r, plan, counters
            )
            if not replay:
                for cid in join_clusters:
                    self._fine_join(
                        clusters[cid], rid, tokens, scores, plan, counters, pairs
                    )
            target = self._assign_home(
                clusters, home, position, rid, tokens, scores, norm_r, counters
            )
            self._maintain_fine_index(
                target, dataset, bound, position, rid, tokens, scores, norm_r, counters
            )
        return pairs

    @staticmethod
    def _maintain_fine_index(
        cluster: Cluster,
        dataset: Dataset,
        bound: BoundPredicate,
        position: int,
        rid: int,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm_r: float,
        counters: CostCounters,
    ) -> None:
        """Lazy per-cluster record index: built at the second member.

        Singleton clusters are fine-joined by direct verification, so
        indexing them would be wasted work; the index materializes when
        a cluster first grows to two members.
        """
        if len(cluster) == 1:
            return
        if cluster.index is None:
            cluster.index = ScoredInvertedIndex()
            first_position = cluster.positions[0]
            first_rid = cluster.rids[0]
            cluster.index.insert(
                first_position,
                dataset[first_rid],
                bound.cached_score_vector(first_rid),
                bound.norm(first_rid),
                counters,
            )
        cluster.index.insert(position, tokens, scores, norm_r, counters)

    # ------------------------------------------------------------------

    def _probe_clusters(
        self,
        clusters: ClusterSet,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm_r: float,
        plan: ProbePlan,
        counters: CostCounters,
    ) -> tuple[list[int], tuple[int, float] | None]:
        """One dynamic probe: (J(r), best home candidate).

        The home candidate is ``(cid, similarity)`` or None.
        """
        if not clusters.clusters:
            return [], None
        lists = clusters.index.probe_lists(tokens, scores)
        if not lists:
            return [], None
        # §3.4: one MergeOpt probe at the join threshold returns every
        # cluster C(r) whose word union has T overlap with r; the home
        # cluster is chosen among those by similarity. (The lower,
        # dynamically-raised home-search threshold belongs to the
        # limited-memory variant, §4.1.1 — see ClusterMemJoin.)
        bound = plan.bound
        candidates = run_merge(
            plan.merge_mode,
            lists,
            bound.index_threshold(norm_r, clusters.index.min_norm),
            PairThreshold(bound.threshold, norm_r, clusters.norms),
            counters,
        )
        nr_cap = self.max_cluster_records
        joins: list[int] = []
        best_cid = -1
        best_similarity = -1.0
        for cid, weight in candidates:
            joins.append(cid)
            cluster = clusters[cid]
            if nr_cap is None or len(cluster) < nr_cap:
                union = norm_r + cluster.union_norm - weight
                similarity = weight / union if union > 0 else 0.0
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_cid = cid
        home = (best_cid, best_similarity) if best_cid >= 0 else None
        return joins, home

    def _fine_join(
        self,
        cluster: Cluster,
        rid: int,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        plan: ProbePlan,
        counters: CostCounters,
        pairs: list[MatchPair],
    ) -> None:
        """Exact record-level probe inside one matching cluster."""
        counters.cluster_probes += 1
        if len(cluster) == 1:
            # Singleton cluster: the cluster-level match IS the record
            # match; verify directly instead of probing a 1-record index.
            sid = cluster.rids[0]
            self._verify_pair(
                plan.bound, min(rid, sid), max(rid, sid), counters, pairs
            )
            return
        assert cluster.index is not None
        probe_kernel(plan, cluster.index, rid, tokens, scores, counters, pairs)

    def _assign_home(
        self,
        clusters: ClusterSet,
        home: tuple[int, float] | None,
        position: int,
        rid: int,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm_r: float,
        counters: CostCounters,
    ) -> Cluster:
        target: Cluster | None = None
        if home is not None and home[1] >= self.home_similarity:
            target = clusters[home[0]]
        if target is None:
            if self.max_clusters is None or len(clusters) < self.max_clusters:
                target = clusters.new_cluster()
                counters.clusters_created += 1
            elif home is not None:
                target = clusters[home[0]]
            else:
                # Forced overflow: every cluster is unrelated and the
                # cluster budget is spent; pick the smallest cluster.
                target = min(clusters.clusters, key=len)
        clusters.assign(target, position, rid, tokens, scores, norm_r)
        self.last_assignment[rid] = target.cid
        return target
