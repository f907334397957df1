"""The Probe-Count family of join algorithms.

Variants, in the order the paper develops them:

* ``basic`` — §2.1: build the full inverted index in one pass, then probe
  it with every record, merging all matching lists with a heap.
* ``stopwords`` — §3.1: ``basic`` with the highest-frequency words
  removed from the index and each record's threshold reduced by the
  weight of the stopwords it contains (candidates are then verified, so
  the join stays exact).
* ``optmerge`` — §3.1: ``basic`` with the heap merge replaced by the
  threshold-sensitive MergeOpt (Algorithm 1 / 3).
* ``online`` — §3.2: single pass; each record probes the *partial* index
  before being inserted, halving the merge work and producing each pair
  exactly once.
* ``sort`` — §3.3 / §5.1.2: ``online`` over records pre-sorted by
  decreasing norm, so heavy records are processed while posting lists
  are short (and, for non-constant thresholds, while ``T(r, I)`` is
  still high).

``ProbeCountJoin(variant=...)`` selects one; results are identical across
variants (tests enforce this), only the work differs.
"""

from __future__ import annotations

from repro.core.base import LOWER, SetJoinAlgorithm, probe_kernel
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.storage.mmap_index import INDEX_BACKENDS
from repro.utils.counters import CostCounters

__all__ = ["ProbeCountJoin", "VARIANTS"]

VARIANTS = ("basic", "stopwords", "optmerge", "online", "sort")


class ProbeCountJoin(SetJoinAlgorithm):
    """Inverted-index probe join (paper §2.1 with the §3.1–§3.3 options).

    Args:
        variant: one of ``basic``, ``stopwords``, ``optmerge``,
            ``online``, ``sort``.
        stopword_budget_fraction: for the ``stopwords`` variant, the
            fraction of the minimum index threshold that the removed
            words' maximum contribution may not exceed; the paper's
            "top T-1 words" rule corresponds to the default 1.0 with
            unit weights.
    """

    shardable = True
    resumable = True
    merges = True

    def __init__(self, variant: str = "optmerge", stopword_budget_fraction: float = 1.0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.variant = variant
        self.stopword_budget_fraction = stopword_budget_fraction
        self.name = f"probe-count-{variant}"
        if variant not in ("online", "sort"):
            # online/sort insert as they go; the write-once mapped file
            # needs the full build pass the two-pass variants have.
            self.index_backends = frozenset(INDEX_BACKENDS)

    # ------------------------------------------------------------------

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if self.variant in ("online", "sort"):
            return self._run_online(dataset, bound, counters)
        return self._run_two_pass(dataset, bound, counters)

    # ------------------------------------------------------------------
    # Two-pass variants: basic / optmerge / stopwords (§2.1, §3.1)
    # ------------------------------------------------------------------

    def _run_two_pass(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        stopwords = None
        keep = None
        if self.variant == "stopwords":
            stopwords = self._select_stopwords(dataset, bound)
            counters.extra["stopwords"] = len(stopwords)

            def keep(tokens, scores):
                return _split_stopwords(tokens, scores, stopwords)[:2]

        index, dispose = self._build_full_index(
            dataset, bound, counters, range(len(dataset)), keep=keep
        )
        try:
            # The full index contains rid itself and yields each pair
            # twice; LOWER emits it once, in canonical orientation.
            # basic and stopwords merge with the heap contract.
            plan = self._probe_plan(
                bound, optmerge=self.variant == "optmerge", orient=LOWER
            )
            pairs: list[MatchPair] = []
            for _position, rid, replay in self._drive(
                range(len(dataset)), counters, pairs
            ):
                if replay:
                    continue
                counters.probes += 1
                tokens = dataset[rid]
                scores = bound.cached_score_vector(rid)
                cut = 0.0
                if stopwords is not None:
                    tokens, scores, cut = _split_stopwords(tokens, scores, stopwords)
                probe_kernel(plan, index, rid, tokens, scores, counters, pairs, cut)
            return pairs
        finally:
            dispose()

    def _select_stopwords(self, dataset: Dataset, bound: BoundPredicate) -> dict[int, float]:
        """Pick the highest-frequency words whose combined maximum
        contribution stays below the smallest possible pair threshold.

        Sound: a pair overlapping *only* on stopwords cannot reach its
        threshold, so every qualifying pair still shares a kept word.
        With unit weights and T-overlap this is exactly "the top T-1
        highest frequency words" of §3.1. Returns token -> max score.
        """
        max_score: dict[int, float] = {}
        min_norm = float("inf")
        for rid in range(len(dataset)):
            scores = bound.cached_score_vector(rid)
            for token, score in zip(dataset[rid], scores):
                if score > max_score.get(token, 0.0):
                    max_score[token] = score
            norm = bound.norm(rid)
            if norm < min_norm:
                min_norm = norm
        if not max_score:
            return {}
        min_threshold = bound.threshold(min_norm, min_norm) * self.stopword_budget_fraction
        by_frequency = sorted(
            dataset.frequency.items(), key=lambda item: (-item[1], item[0])
        )
        stopwords: dict[int, float] = {}
        budget = 0.0
        for token, _freq in by_frequency:
            contribution = max_score.get(token, 0.0) ** 2
            if budget + contribution >= min_threshold - WEIGHT_EPS:
                break
            budget += contribution
            stopwords[token] = max_score[token]
        return stopwords

    # ------------------------------------------------------------------
    # Online / sorted variants (§3.2, §3.3)
    # ------------------------------------------------------------------

    def _run_online(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        if self.variant == "sort":
            # §5.1.2: decreasing norm (== decreasing size for unit scores).
            order = sorted(range(len(dataset)), key=lambda rid: (-bound.norm(rid), rid))
        else:
            order = list(range(len(dataset)))
        # The index is keyed by *processing position* so posting lists
        # stay id-sorted even when records are processed out of RID order.
        index = ScoredInvertedIndex()
        plan = self._probe_plan(bound, order=order)
        pairs: list[MatchPair] = []
        for position, rid, replay in self._drive(order, counters, pairs):
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            # On resume-replay the record is only re-inserted into the
            # index; its probe already ran (pairs restored from the
            # checkpoint).
            if not replay:
                counters.probes += 1
                probe_kernel(plan, index, rid, tokens, scores, counters, pairs)
            index.insert(position, tokens, scores, bound.norm(rid), counters)
        return pairs


def _split_stopwords(tokens, scores, stopwords: dict[int, float]):
    """``(kept tokens, kept scores, cut)`` for one record.

    ``cut`` assumes, pessimistically, that the partner record shares
    each of the record's stopwords at the maximum indexed score.
    """
    kept_tokens = []
    kept_scores = []
    cut = 0.0
    for token, score in zip(tokens, scores):
        if token in stopwords:
            cut += score * stopwords[token]
        else:
            kept_tokens.append(token)
            kept_scores.append(score)
    return kept_tokens, kept_scores, cut
