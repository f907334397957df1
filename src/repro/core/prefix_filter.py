"""Prefix-filter join — the successor technique, as a comparison point.

This paper's threshold-sensitive merge directly inspired the
prefix-filtering line of set-similarity joins (Chaudhuri et al.'s
SSJoin, Bayardo et al.'s AllPairs, Xiao et al.'s PPJoin). The key
lemma: order the token universe canonically (rarest first); if
``|r ∩ s| >= t`` then the first ``|r| - t + 1`` tokens of ``r`` and the
first ``|s| - t + 1`` tokens of ``s`` (in that order) must share a
token. Indexing only prefixes makes posting lists short where MergeOpt
instead *skips* long lists.

Implementation notes:

* Online (probe before insert), like §3.2, driven through the shared
  runtime loop, so deadlines, cancellation, checkpoint/resume, and
  parallel shards all work here.
* The global ordering and record canonicalization come from
  :class:`~repro.core.token_order.TokenOrder` (shared with the full
  PPJoin+ stack of :mod:`repro.core.positional_filter`).
* Per-record prefix lengths use the sound per-record bound
  ``t_r = T(r, minS)`` — the same index-level threshold bound the
  MergeOpt engines use — so any predicate with unit scores and a
  monotone threshold (overlap, Jaccard, Dice, Hamming,
  overlap-coefficient) is supported; every candidate is exactly
  verified.
* Candidates accumulate in an insertion-ordered dict and are probed in
  that order: first-insertion order is a pure function of the posting
  lists, so emission order stays deterministic (serial, resumed, and
  sharded runs agree) without the per-probe ``sorted()`` the first
  version paid for.
* The predicate's band filter is applied before verification.

The accompanying benchmark pits this against MergeOpt and the full
positional stack on the paper's workloads — a comparison the paper
itself predates.
"""

from __future__ import annotations

import math

from repro.core.base import UNIT, SetJoinAlgorithm
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.core.token_order import TokenOrder
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.utils.counters import CostCounters

__all__ = ["PrefixFilterJoin"]


class PrefixFilterJoin(SetJoinAlgorithm):
    """AllPairs-style prefix-filtered join (unit-score predicates)."""

    name = "prefix-filter"
    shardable = True
    resumable = True
    requires_scores = UNIT

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if len(dataset) == 0:
            return []
        ordered_records = TokenOrder.for_dataset(dataset).canonicalize_all(dataset)
        min_norm = min((bound.norm(rid) for rid in range(len(dataset))), default=0.0)
        band = bound.band_filter()

        index: dict[int, list[int]] = {}
        index_get = index.get
        pairs: list[MatchPair] = []
        # One candidate dict for the whole scan, cleared per record:
        # allocating fresh containers per probe was measurable on large
        # corpora (this loop runs once per record).
        candidates: dict[int, None] = {}
        candidates_update = candidates.update
        fromkeys = dict.fromkeys
        for _position, rid, replay in self._drive(
            range(len(dataset)), counters, pairs
        ):
            if not replay:
                counters.probes += 1
            ordered = ordered_records[rid]
            size = len(ordered)
            threshold_floor = bound.index_threshold(bound.norm(rid), min_norm)
            # Records whose minimum possible pair threshold exceeds their
            # size can never match anything.
            if threshold_floor > size + WEIGHT_EPS:
                continue
            t = max(1, math.ceil(threshold_floor - WEIGHT_EPS))
            prefix_length = size - t + 1
            prefix = ordered[:prefix_length]

            # Replay (checkpoint resume / shard warm-up) rebuilds the
            # index only; the probe's pairs are already accounted for.
            if not replay:
                candidates.clear()
                touched = 0
                for token in prefix:
                    plist = index_get(token)
                    if plist is not None:
                        touched += len(plist)
                        candidates_update(fromkeys(plist))
                counters.list_items_touched += touched
                counters.candidates_checked += len(candidates)
                key_r = None
                if band is not None:
                    key_r = band.keys[rid]
                    radius = band.radius + 1e-12
                for sid in candidates:
                    if band is not None and abs(band.keys[sid] - key_r) > radius:
                        continue
                    self._verify_pair(bound, sid, rid, counters, pairs)

            for token in prefix:
                index.setdefault(token, []).append(rid)
            counters.index_entries += prefix_length
        return pairs
