"""Naive O(n^2) join: the ground-truth oracle for every test.

Examines every record pair (restricted by the predicate's band filter
when one exists, which does not change the result — filters are sound)
and applies the same exact verification the optimized algorithms use, so
result equivalence is a meaningful end-to-end check.
"""

from __future__ import annotations

from repro.core.base import SetJoinAlgorithm
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.predicates.base import BoundPredicate
from repro.utils.counters import CostCounters

__all__ = ["NaiveJoin"]


class NaiveJoin(SetJoinAlgorithm):
    """Quadratic all-pairs verification."""

    name = "naive"
    shardable = True
    resumable = True

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        n = len(dataset)
        band = bound.band_filter()
        pairs: list[MatchPair] = []
        if band is None:
            for _position, rid_a, replay in self._drive(range(n), counters, pairs):
                if replay:
                    continue
                for rid_b in range(rid_a + 1, n):
                    self._verify_pair(bound, rid_a, rid_b, counters, pairs)
            return pairs
        # With a band filter, sort by filter key and only examine pairs
        # inside the band window (sound: the filter never rejects a true
        # match).
        order = sorted(range(n), key=lambda rid: band.keys[rid])
        radius = band.radius + 1e-12
        start = 0
        for pos_b, rid_b, replay in self._drive(order, counters, pairs):
            key_b = band.keys[rid_b]
            while start < pos_b and key_b - band.keys[order[start]] > radius:
                start += 1
            if replay:
                continue
            for pos_a in range(start, pos_b):
                rid_a = order[pos_a]
                self._verify_pair(
                    bound, min(rid_a, rid_b), max(rid_a, rid_b), counters, pairs
                )
        return pairs
