"""Cosine similarity on TF-IDF scores (paper §5.2.2).

Each record is a TF-IDF vector; the join selects pairs whose cosine is at
least ``f``. Framework embedding: ``score(w, s) = TF-IDF(w, s) / ||s||_2``
(unit-normalized), so the accumulated match weight *is* the cosine and the
threshold is the constant ``f``. Every record norm (Eq. 1) is 1.

The paper notes this predicate benefits most from MergeOpt's large-list
pruning, because frequent words have both the longest posting lists and
the lowest IDF scores — they land in ``L`` first.
"""

from __future__ import annotations

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate
from repro.text.tfidf import CorpusStats

__all__ = ["CosinePredicate"]


class _BoundCosine(BoundPredicate):
    record_independent_scores = False
    # Threshold f on the dot product of unit-normalized TF-IDF vectors.
    # Scores are non-negative and at most each record's top score, so
    # the bitmap filter's cap bounds the dot product.
    constant_threshold = True

    def __init__(self, dataset: Dataset, f: float, stats: CorpusStats):
        super().__init__(dataset)
        self.f = f
        self.stats = stats

    def score_vector(self, rid: int) -> tuple[float, ...]:
        tokens = self.dataset[rid]
        raw = [self.stats.score(token) for token in tokens]
        norm = sum(value * value for value in raw) ** 0.5
        if norm == 0.0:
            return (0.0,) * len(tokens)
        return tuple(value / norm for value in raw)

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.f

    def approx_jaccard_floor(self) -> float | None:
        # For equal token weights, cos >= f forces x >= f*sqrt(ab) and
        # x <= min(a, b), so sqrt(a/b) ranges over [f, 1/f] and
        # J = x/(a+b-x) >= f / (f + 1/f - f) = f^2 — exact. With TF-IDF
        # weights the bound is heuristic (a few rare tokens can carry
        # the cosine), so the planner flags it best-effort.
        return self.f * self.f


class CosinePredicate(SimilarityPredicate):
    """TF-IDF cosine similarity >= f.

    Args:
        f: fraction in (0, 1].
        stats: optional precomputed :class:`CorpusStats`; when omitted,
            IDF statistics are computed from the joined dataset at bind
            time (the paper's preprocessing pass).
    """

    def __init__(self, f: float, stats: CorpusStats | None = None):
        if not 0.0 < f <= 1.0:
            raise ValueError(f"cosine fraction must be in (0, 1], got {f}")
        self.f = f
        self.stats = stats

    @property
    def name(self) -> str:
        return f"cosine(f={self.f:g})"

    def bind(self, dataset: Dataset) -> _BoundCosine:
        stats = self.stats if self.stats is not None else CorpusStats(dataset.records)
        return _BoundCosine(dataset, self.f, stats)
