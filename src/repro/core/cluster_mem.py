"""ClusterMem: the limited-memory two-phase join (paper §4, Algorithm 2).

When the record-level inverted index (``W`` word occurrences) exceeds the
memory budget ``M``, the join runs in two phases:

**Phase 1 — data partitioning.** A *compressed* index is built by
grouping records into clusters (at most ``Ng = N * M / W`` clusters of at
most ``NR = Ng`` records, assuming ``M >= sqrt(W)``); posting lists point
at clusters, so the index holds at most ~``M`` entries. Each scanned
record probes this index once with the dynamic-threshold merge to find
both the clusters ``J(r)`` it must join with (word-union overlap >= T)
and its home cluster ``h(r)`` (most similar by overlap/union ratio); the
triple ``(r, h(r), J(r))`` is appended to the pInfo disk store. No pairs
are produced yet.

**Phase 2 — finer joins.** Clusters are packed into batches whose
record-level indexes fit in ``M`` together; pInfo is split per batch.
Within a batch, entries are replayed in scan order: the record is fetched
from the disk record store, probed against each join cluster's index
(MergeOpt, exact thresholds), and then inserted into its home cluster's
index if that cluster lives in this batch. Because phase-1 processing
order is preserved, every earlier record is already in its home index
when a later record probes it — the join is exact.

With ``M >= W`` the method degrades gracefully to Probe-Cluster (§3.4):
one batch, every record in ``J``-range clusters probed in memory.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

from repro.core.base import SetJoinAlgorithm, probe_kernel
from repro.core.clusters import Cluster, ClusterSet
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_dynamic import merge_dynamic
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.partition.batching import plan_batches
from repro.partition.pinfo import PartitionEntry, PartitionInfoStore
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.runtime.errors import UnsupportedConfiguration
from repro.storage.record_store import DiskRecordStore
from repro.utils.counters import CostCounters

__all__ = ["ClusterMemJoin", "MemoryBudget"]


@dataclass(frozen=True)
class MemoryBudget:
    """Index memory budget in word occurrences (the paper's unit ``M``).

    ``fraction_of_full(dataset)`` builds the budget Fig. 11 sweeps over:
    the x-axis "index size as a fraction of maximum needed".
    """

    max_index_entries: int

    def __post_init__(self):
        if self.max_index_entries < 1:
            raise ValueError(
                f"budget must be >= 1 word occurrence, got {self.max_index_entries}"
            )

    @staticmethod
    def fraction_of_full(dataset: Dataset, fraction: float) -> "MemoryBudget":
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        full = max(dataset.total_word_occurrences(), 1)
        return MemoryBudget(max(1, int(full * fraction)))


class ClusterMemJoin(SetJoinAlgorithm):
    """Two-phase limited-memory join (Algorithm 2).

    Args:
        budget: the index memory budget ``M``. Without it the budget is
            ``memory_fraction`` of the dataset's full index, or else the
            join context's ``memory_budget_entries``; all three missing
            is refused at join time.
        sort: pre-sort records by decreasing norm (Algorithm 2's optional
            external sort).
        home_similarity: similarity threshold for opening a new cluster
            while the cluster budget ``Ng`` lasts.
        initial_threshold_fraction: dynamic-probe starting threshold as a
            fraction of ``T(r, I)``.
        workdir: directory for the pInfo file and the disk record store
            (a temporary directory is used and cleaned up by default).
        memory_fraction: the budget as a fraction of the full index
            (Fig. 11's x-axis), resolved against the dataset at join
            time.
    """

    #: ClusterMem honours its memory budget structurally; the runtime
    #: memory check (which compares *cumulative* insert counters) is
    #: disabled for it — see JoinContext.tick.
    respects_memory_budget = True
    #: Phase 2 replays pInfo entries through the driven scan; batch
    #: boundaries depend on the whole phase 1, so it cannot shard.
    resumable = True
    merges = True

    def __init__(
        self,
        budget: MemoryBudget | None = None,
        sort: bool = True,
        home_similarity: float = 0.5,
        initial_threshold_fraction: float = 0.2,
        workdir: str | None = None,
        memory_fraction: float | None = None,
    ):
        if budget is not None and memory_fraction is not None:
            raise ValueError("cluster-mem takes budget= or memory_fraction=, not both")
        self.budget = budget
        self.memory_fraction = memory_fraction
        self.sort = sort
        self.home_similarity = home_similarity
        self.initial_threshold_fraction = initial_threshold_fraction
        self.workdir = workdir
        self.name = "cluster-mem"
        self.last_assignment: dict[int, int] = {}

    def _budget_entries(self, dataset: Dataset) -> int:
        """This run's ``M``: the budget, else the fraction of the full
        index, else the context's budget."""
        budget = self.budget
        if budget is None and self.memory_fraction is not None:
            budget = MemoryBudget.fraction_of_full(dataset, self.memory_fraction)
        if budget is not None:
            return budget.max_index_entries
        context = self._context
        if context is not None and context.memory_budget_entries is not None:
            return context.memory_budget_entries
        raise UnsupportedConfiguration(
            "cluster-mem needs budget=, memory_fraction= or a JoinContext"
            " memory budget (--memory-budget on the command line)"
        )

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        m = self._budget_entries(dataset)
        owns_workdir = self.workdir is None
        workdir = self.workdir or tempfile.mkdtemp(prefix="repro-clustermem-")
        try:
            return self._run_in(workdir, dataset, bound, counters, m)
        finally:
            if owns_workdir:
                for name in os.listdir(workdir):
                    os.remove(os.path.join(workdir, name))
                os.rmdir(workdir)

    def _run_in(
        self,
        workdir: str,
        dataset: Dataset,
        bound: BoundPredicate,
        counters: CostCounters,
        m: int,
    ) -> list[MatchPair]:
        n_records = len(dataset)
        if n_records == 0:
            return []
        # Preprocessing pass: N, W (§4.1).
        total_occurrences = max(dataset.total_word_occurrences(), 1)
        ng = max(1, round(n_records * m / total_occurrences))
        nr = max(1, ng)
        counters.extra["Ng"] = ng
        counters.extra["NR"] = nr

        if self.sort:
            order = sorted(range(n_records), key=lambda rid: (-bound.norm(rid), rid))
        else:
            order = list(range(n_records))

        store = DiskRecordStore.from_records(dataset.records, os.path.join(workdir, "records.dat"))
        pinfo = PartitionInfoStore(os.path.join(workdir, "pinfo.dat"))
        try:
            clusters = self._phase_one(
                dataset, bound, order, ng, nr, m, pinfo, counters
            )
            counters.extra["phase1_index_entries"] = clusters.index.n_entries
            counters.extra["clusters"] = len(clusters)
            pairs = self._phase_two(
                dataset, bound, order, clusters, m, pinfo, store, counters
            )
        finally:
            counters.disk_reads += store.fetches
            counters.extra["disk_seeks"] = store.seeks
            store.unlink()
            pinfo.unlink()
            for batch_file in list(os.listdir(workdir)):
                if batch_file.startswith("pinfo.dat.batch"):
                    os.remove(os.path.join(workdir, batch_file))
        return pairs

    # ------------------------------------------------------------------
    # Phase 1: data partitioning (§4.1)
    # ------------------------------------------------------------------

    def _phase_one(
        self,
        dataset: Dataset,
        bound: BoundPredicate,
        order: list[int],
        ng: int,
        nr: int,
        index_cap: int,
        pinfo: PartitionInfoStore,
        counters: CostCounters,
    ) -> ClusterSet:
        clusters = ClusterSet()
        # Hard per-cluster cap on the phase-2 record-level index size
        # (in word occurrences). The paper caps members at NR and notes
        # recursive partitioning would handle the overflow case; capping
        # the index size directly gives the same guarantee without
        # recursion: every cluster's fine index fits the batch budget.
        index_sizes: list[int] = []
        for position, rid in enumerate(order):
            # Phase 1 emits no pairs: an interruption here leaves any
            # prior checkpoint valid (phase 1 is replayed in full on
            # resume; it is deterministic for a fixed dataset/config).
            self._tick(counters)
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            norm_r = bound.norm(rid)
            counters.probes += 1
            joins, home = self._probe_phase_one(
                clusters, tokens, scores, norm_r, bound, nr, counters
            )
            target: Cluster | None = None
            if (
                home is not None
                and home[1] >= self.home_similarity
                and index_sizes[home[0]] + len(tokens) <= index_cap
            ):
                target = clusters[home[0]]
            if target is None:
                if len(clusters) < ng:
                    target = clusters.new_cluster()
                    index_sizes.append(0)
                    counters.clusters_created += 1
                elif (
                    home is not None
                    and index_sizes[home[0]] + len(tokens) <= index_cap
                ):
                    target = clusters[home[0]]
                else:
                    # Forced overflow: smallest cluster that still fits;
                    # if none fits (a record alone can exceed a tiny
                    # budget), open an over-budget cluster anyway rather
                    # than lose the record.
                    fitting = [
                        cluster
                        for cluster in clusters.clusters
                        if index_sizes[cluster.cid] + len(tokens) <= index_cap
                    ]
                    if fitting:
                        target = min(fitting, key=len)
                    else:
                        target = clusters.new_cluster()
                        index_sizes.append(0)
                        counters.clusters_created += 1
            index_sizes[target.cid] += len(tokens)
            clusters.assign(target, position, rid, tokens, scores, norm_r)
            self.last_assignment[rid] = target.cid
            pinfo.append(
                PartitionEntry(
                    position=position,
                    rid=rid,
                    home=target.cid,
                    joins=tuple(sorted(set(joins))),
                )
            )
            counters.disk_appends += 1
        pinfo.finish()
        return clusters

    def _probe_phase_one(
        self,
        clusters: ClusterSet,
        tokens: tuple[int, ...],
        scores: tuple[float, ...],
        norm_r: float,
        bound: BoundPredicate,
        nr: int,
        counters: CostCounters,
    ) -> tuple[list[int], tuple[int, float] | None]:
        if not clusters.clusters:
            return [], None
        lists = clusters.index.probe_lists(tokens, scores)
        if not lists:
            return [], None
        join_threshold = bound.index_threshold(norm_r, clusters.index.min_norm)
        initial = self.initial_threshold_fraction * join_threshold
        state = {
            "best_cid": -1,
            "best_similarity": -1.0,
            "joins": [],
            "threshold": initial,
        }

        def on_candidate(cid: int, weight: float) -> float:
            cluster = clusters[cid]
            if weight >= bound.threshold(norm_r, cluster.min_member_norm) - WEIGHT_EPS:
                state["joins"].append(cid)
            if len(cluster) < nr:
                union = norm_r + cluster.union_norm - weight
                similarity = weight / union if union > 0 else 0.0
                if similarity > state["best_similarity"]:
                    state["best_similarity"] = similarity
                    state["best_cid"] = cid
                proposal = (state["threshold"] + weight) / 2.0
                state["threshold"] = min(
                    max(state["threshold"], proposal), join_threshold
                )
            return state["threshold"]

        merge_dynamic(lists, initial, join_threshold, on_candidate, counters)
        home = None
        if state["best_cid"] >= 0:
            home = (state["best_cid"], state["best_similarity"])
        return state["joins"], home

    # ------------------------------------------------------------------
    # Phase 2: finer joins (§4.2)
    # ------------------------------------------------------------------

    def _phase_two(
        self,
        dataset: Dataset,
        bound: BoundPredicate,
        order: list[int],
        clusters: ClusterSet,
        m: int,
        pinfo: PartitionInfoStore,
        store: DiskRecordStore,
        counters: CostCounters,
    ) -> list[MatchPair]:
        index_sizes = [
            sum(len(dataset[rid]) for rid in cluster.rids)
            for cluster in clusters.clusters
        ]
        assignment = plan_batches(index_sizes, m)
        n_batches = (max(assignment) + 1) if assignment else 0
        counters.extra["batches"] = n_batches
        batch_of_cluster = dict(enumerate(assignment))
        batch_files = pinfo.split(batch_of_cluster, n_batches)

        plan = self._probe_plan(bound, order=order)
        pairs: list[MatchPair] = []

        def scan_entries():
            """Flat (batch, entry) stream: phase 2's scan positions.

            Phase 1 is deterministic, so these positions line up across
            runs — the driver's checkpoint/resume replay keys on them.
            """
            for batch_idx, path in enumerate(batch_files):
                for entry in PartitionInfoStore.scan_file(path):
                    yield batch_idx, entry

        current_batch = -1
        indexes: dict[int, ScoredInvertedIndex] = {}
        for _position, (batch_idx, entry), replay in self._drive(
            scan_entries(), counters, pairs
        ):
            if batch_idx != current_batch:
                indexes = {}
                current_batch = batch_idx
            tokens = store.fetch(entry.rid)
            scores = bound.cached_score_vector(entry.rid)
            if not replay:
                for cid in entry.joins:
                    if batch_of_cluster[cid] != batch_idx:
                        continue
                    cluster_index = indexes.get(cid)
                    if cluster_index is None or len(cluster_index) == 0:
                        continue
                    counters.cluster_probes += 1
                    probe_kernel(
                        plan, cluster_index, entry.rid, tokens, scores,
                        counters, pairs,
                    )
            if entry.home >= 0:
                home_index = indexes.get(entry.home)
                if home_index is None:
                    home_index = ScoredInvertedIndex()
                    indexes[entry.home] = home_index
                home_index.insert(
                    entry.position, tokens, scores, bound.norm(entry.rid)
                )
                counters.index_entries += len(tokens)
        return pairs
