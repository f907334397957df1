"""The ``approx`` join algorithm: LSH candidates, exact verification.

``ApproxJoin`` builds a seeded path forest (:mod:`repro.approx.paths`)
sized by the planner (:mod:`repro.approx.plan`), then drives the
standard per-record scan: at record ``rid`` it gathers every leaf
co-member with a smaller id, deduplicates, and hands each candidate to
the shared :meth:`SetJoinAlgorithm._verify_pair` — the same exact
verifier, bitmap prefilter and word-signature shortcut every exact
algorithm uses. A pair is therefore emitted at exactly one scan
position (its larger rid), which is what makes the scan compose with
the parallel engine's shards: the shards own disjoint scan positions,
so they partition the emitted pair set, and a fixed seed gives
identical pairs at any worker count.

Counter semantics: ``pairs_generated`` and ``candidates_checked``
both count the *distinct* candidates materialized per record (the
pairs the forest actually hands to verification), and
``pairs_verified`` keeps its repo-wide meaning of exact verifications
performed. The raw leaf co-member stream — duplicates across
repetitions — is ``path_enumerations`` in ``counters.extra``, and
MinHash sketching cost is ``path_hash_tokens`` there; both live
outside :meth:`CostCounters.total_work` for the same reason
``accum_scans`` and ``suffix_recursions`` do (the accepted unit of
work is already counted exactly once).
"""

from __future__ import annotations

from repro.approx.paths import PathHasher, build_leaves
from repro.approx.plan import ApproxPlan, plan_paths
from repro.approx.recall import estimate_recall
from repro.core.base import SetJoinAlgorithm
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.predicates.base import BoundPredicate, SimilarityPredicate
from repro.utils.counters import CostCounters

__all__ = ["ApproxJoin"]


class ApproxJoin(SetJoinAlgorithm):
    """Approximate self-join with a recall target; see the module doc.

    Args:
        target_recall: per-qualifying-pair surfacing probability the
            repetition count is sized for (guaranteed when the derived
            Jaccard floor is sound, best-effort otherwise).
        seed: root of all randomness; fixed seed ⇒ identical pairs.
        leaf_size: groups at most this large stop splitting and are
            brute-forced — the certainty fallback of the recall bound.
        max_depth: path-tree depth cap; deeper trees mean purer leaves
            but more repetitions for the same target.
        max_repetitions: hard expected-work bound. When the target is
            unreachable within it, the join runs the cap and flags
            ``approx_recall_capped`` in ``JoinResult.extra``.
        recall_sample: records sampled for the post-join recall
            estimate reported in ``JoinResult.extra`` (0 disables it;
            it is skipped automatically in a parallel shard, where a
            single worker only sees its slice of the pair set).
    """

    name = "approx"
    shardable = True
    resumable = True

    def __init__(
        self,
        target_recall: float = 0.9,
        seed: int = 0,
        leaf_size: int = 4,
        max_depth: int = 4,
        max_repetitions: int = 256,
        recall_sample: int = 12,
    ):
        if recall_sample < 0:
            raise ValueError(f"recall_sample must be >= 0, got {recall_sample}")
        self.target_recall = target_recall
        self.seed = int(seed)
        self.leaf_size = leaf_size
        self.max_depth = max_depth
        self.max_repetitions = max_repetitions
        self.recall_sample = recall_sample
        self._plan_snapshot: ApproxPlan | None = None

    def join(
        self,
        dataset: Dataset,
        predicate: SimilarityPredicate,
        context=None,
    ) -> JoinResult:
        """Run the approximate join and annotate ``result.extra``."""
        result = super().join(dataset, predicate, context=context)
        result.extra["approx_seed"] = self.seed
        plan = self._plan_snapshot
        if plan is not None:
            result.extra.update(plan.as_extra())
        sharded = self._n_shards > 1
        if self.recall_sample and not sharded and not result.degraded and len(dataset):
            result.extra.update(
                estimate_recall(
                    dataset,
                    predicate,
                    result.pair_set(),
                    sample_size=self.recall_sample,
                    seed=self.seed,
                )
            )
        return result

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        self._plan_snapshot = None
        pairs: list[MatchPair] = []
        n = len(dataset)
        if n < 2:
            return pairs
        plan = plan_paths(
            bound,
            dataset,
            target_recall=self.target_recall,
            leaf_size=self.leaf_size,
            max_depth=self.max_depth,
            max_repetitions=self.max_repetitions,
        )
        self._plan_snapshot = plan
        hasher = PathHasher(self.seed)
        records = dataset.records
        leaves_of: list[list[list[int]]] = [[] for _ in range(n)]
        leaf_count = 0
        for rep in range(plan.repetitions):
            for leaf in build_leaves(
                records,
                rep,
                hasher,
                leaf_size=plan.leaf_size,
                max_depth=plan.depth,
                counters=counters,
                tick=lambda: self._tick(counters),
            ):
                leaf_count += 1
                # Leaf membership is the forest's resident state; count
                # it like index inserts so memory budgets apply.
                counters.index_entries += len(leaf)
                for rid in leaf:
                    leaves_of[rid].append(leaf)
        counters.extra["path_leaves"] = counters.extra.get("path_leaves", 0) + leaf_count
        for position, rid, replay in self._drive(range(n), counters, pairs):
            if replay:
                continue
            groups = leaves_of[rid]
            if not groups:
                continue
            counters.probes += 1
            candidates: dict[int, None] = {}
            enumerated = 0
            for leaf in groups:
                for sid in leaf:
                    if sid >= rid:  # leaves ascend; rid itself is a member
                        break
                    enumerated += 1
                    candidates[sid] = None
            # Distinct candidates are the pairs materialized; the raw
            # leaf co-member stream (duplicates across repetitions)
            # stays observable as path_enumerations, outside
            # total_work() — the accum_scans precedent: each accepted
            # pair is already counted once.
            counters.pairs_generated += len(candidates)
            counters.candidates_checked += len(candidates)
            if enumerated:
                extra = counters.extra
                extra["path_enumerations"] = (
                    extra.get("path_enumerations", 0) + enumerated
                )
            for sid in candidates:
                self._verify_pair(bound, sid, rid, counters, pairs)
        return pairs
