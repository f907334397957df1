"""Top-k most-similar-pairs join (extension).

The paper's related work (§6) discusses Cohen's top-r similar-pairs
problem and notes that MergeOpt's "early termination and split
strategies ... bear resemblance to the A* search" used there. This
module closes the loop: the general framework makes top-k a small
extension of the threshold join, because a *rising* threshold is
exactly what the framework's monotone machinery supports.

Strategy: run the online probe (single pass, MergeOpt per probe) while
maintaining the best ``k`` pairs seen so far. Once ``k`` pairs are
known, the predicate's fraction is ratcheted up to the current k-th
best similarity, which immediately tightens ``T(r, s)``, ``T(r, I)``
and the band filter of every subsequent probe. Raising the threshold
to an already-achieved similarity can never lose a better pair, so the
returned pairs are exactly the top k.

Supported predicates: any whose strength is a single fraction/threshold
parameter that the natural similarity is compared against — Jaccard,
cosine, Dice, overlap coefficient, and plain overlap.
"""

from __future__ import annotations

import heapq
import time

from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_opt import merge_opt
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.predicates.base import SimilarityPredicate
from repro.utils.counters import CostCounters

__all__ = ["TopKJoin"]


class TopKJoin:
    """Exact top-k most similar pairs under a rising-threshold probe.

    Args:
        k: number of pairs to return (fewer if the data has fewer
            pairs above ``floor``).
        predicate_factory: callable mapping a threshold value to a
            :class:`SimilarityPredicate` — e.g. ``JaccardPredicate`` or
            ``lambda f: CosinePredicate(f)``.
        floor: the initial (weakest) threshold; pairs below it are never
            considered. A higher floor is faster but may return fewer
            than ``k`` pairs.
        higher_is_better: False for distance-like measures.
    """

    name = "top-k"

    def __init__(
        self,
        k: int,
        predicate_factory,
        floor: float,
        higher_is_better: bool = True,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not higher_is_better:
            raise NotImplementedError(
                "distance-like (lower-is-better) measures are not supported;"
                " use a similarity predicate"
            )
        self.k = k
        self.predicate_factory = predicate_factory
        self.floor = floor

    def join(self, dataset: Dataset, predicate: SimilarityPredicate | None = None) -> JoinResult:
        """Return the top-k pairs (as a JoinResult sorted best-first).

        ``predicate`` is ignored (present for interface compatibility);
        the predicate is built from ``predicate_factory``.
        """
        counters = CostCounters()
        start = time.perf_counter()
        current = self.floor
        bound = self.predicate_factory(current).bind(dataset)
        # Min-heap of (similarity, rid_a, rid_b): the worst of the best
        # k pairs sits on top.
        best: list[tuple[float, int, int]] = []

        order = sorted(range(len(dataset)), key=lambda rid: (-bound.norm(rid), rid))
        index = ScoredInvertedIndex()
        band = _band_by_position(bound, order)
        for position, rid in enumerate(order):
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            norm_r = bound.norm(rid)
            counters.probes += 1
            lists = index.probe_lists(tokens, scores)
            if lists:

                def threshold_of(pos: int, _n=norm_r) -> float:
                    return bound.threshold(_n, bound.norm(order[pos]))

                accept = band.acceptor(rid) if band is not None else None

                index_threshold = bound.index_threshold(norm_r, index.min_norm)
                for pos, _weight in merge_opt(
                    lists, index_threshold, threshold_of, counters, accept
                ):
                    sid = order[pos]
                    counters.pairs_verified += 1
                    ok, similarity = bound.verify(min(rid, sid), max(rid, sid))
                    if not ok:
                        continue
                    entry = (similarity, min(rid, sid), max(rid, sid))
                    if len(best) < self.k:
                        heapq.heappush(best, entry)
                    elif entry > best[0]:
                        heapq.heapreplace(best, entry)
                    if len(best) == self.k and best[0][0] > current:
                        # Ratchet: tighten the predicate to the k-th best.
                        current = best[0][0]
                        bound = self._retighten(bound, current)
                        band = _band_by_position(bound, order)
            index.insert(position, tokens, scores, norm_r, counters)

        pairs = [
            MatchPair(rid_a, rid_b, similarity)
            for similarity, rid_a, rid_b in sorted(best, reverse=True)
        ]
        counters.pairs_output = len(pairs)
        return JoinResult(
            pairs=pairs,
            algorithm=f"top-{self.k}",
            predicate=self.predicate_factory(self.floor).name,
            counters=counters,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _retighten(self, old_bound, new_threshold: float):
        """Rebind at the tighter threshold, keeping cached score state."""
        new_bound = self.predicate_factory(new_threshold).bind(old_bound.dataset)
        # Score vectors, norms and band keys are threshold-independent
        # (the band radius carries the threshold); reuse them.
        new_bound._score_vectors = old_bound._score_vectors
        new_bound._norms = old_bound._norms
        new_bound._score_maps = old_bound._score_maps
        new_bound._band_keys = old_bound._band_keys
        return new_bound


def _band_by_position(bound, order):
    """``bound``'s band filter over the position-keyed index, or None."""
    band = bound.band_filter()
    return band.for_order(order) if band is not None else None
