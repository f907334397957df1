"""T-overlap predicates: the paper's primary join condition (§2).

``OverlapPredicate(T)`` selects pairs sharing at least ``T`` common words.
``WeightedOverlapPredicate(T, weights)`` generalizes to the "weighted
match > T" predicate of the introduction, where each word carries an
arbitrary weight (e.g. inverse document frequency).

Framework embedding: the framework accumulates the *product*
``score(w, r) * score(w, s)`` per matched word (§5). Choosing
``score(w, r) = sqrt(weight(w))`` makes the product equal ``weight(w)``,
so the accumulated match weight is exactly the paper's "total weight of
common words", and the record norm ``||r|| = sum(score^2)`` is the total
record weight. The threshold is the constant ``T``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate

__all__ = ["OverlapPredicate", "WeightedOverlapPredicate"]


class _BoundOverlap(BoundPredicate):
    """Unweighted T-overlap bound to a dataset: all scores are 1."""

    unit_scores = True
    # Threshold T. With unit scores the match weight is the
    # intersection size, so the bitmap filter's cap bounds it directly.
    constant_threshold = True

    def __init__(self, dataset: Dataset, t: float):
        super().__init__(dataset)
        self.t = t

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return (1.0,) * len(self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.t


class OverlapPredicate(SimilarityPredicate):
    """Intersect-size >= T: the T-overlap join of §2.

    ``T = 1`` recovers the classical non-zero-overlap join.
    """

    def __init__(self, t: float):
        if t <= 0:
            raise ValueError(f"overlap threshold must be positive, got {t}")
        self.t = t

    @property
    def name(self) -> str:
        return f"overlap(T={self.t:g})"

    def bind(self, dataset: Dataset) -> _BoundOverlap:
        return _BoundOverlap(dataset, self.t)


class _BoundWeightedOverlap(BoundPredicate):
    """Weighted T-overlap: score(w, r) = sqrt(weight(w))."""

    # Threshold T. Scores sqrt(weight) are >= 0, so the bitmap filter's
    # cap (common-token bound x both records' top scores) dominates any
    # sum of that many score products.
    constant_threshold = True

    def __init__(self, dataset: Dataset, t: float, weight_of: Callable[[int], float]):
        super().__init__(dataset)
        self.t = t
        self.weight_of = weight_of

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return tuple(math.sqrt(self.weight_of(token)) for token in self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.t


class WeightedOverlapPredicate(SimilarityPredicate):
    """Weighted match >= T with per-word weights.

    Args:
        t: threshold on total common-word weight.
        weights: either a mapping token-id -> weight, a callable
            token-id -> weight, or the string ``"idf"`` to weight each
            word by ``log(1 + N / df(w))`` computed from the dataset at
            bind time (the "inverse of frequency in the database" weight
            the introduction suggests).
    """

    def __init__(self, t: float, weights: Mapping[int, float] | Callable[[int], float] | str = "idf"):
        if t <= 0:
            raise ValueError(f"overlap threshold must be positive, got {t}")
        self.t = t
        self.weights = weights

    @property
    def name(self) -> str:
        return f"weighted-overlap(T={self.t:g})"

    def bind(self, dataset: Dataset) -> _BoundWeightedOverlap:
        weights = self.weights
        if weights == "idf":
            n = max(len(dataset), 1)
            frequency = dataset.frequency

            def weight_of(token: int, _n: int = n, _freq: dict = frequency) -> float:
                return math.log(1.0 + _n / _freq.get(token, 1))

        elif callable(weights):
            weight_of = weights
        else:
            mapping = weights

            def weight_of(token: int, _m: Mapping[int, float] = mapping) -> float:
                return _m.get(token, 1.0)

        bound = _BoundWeightedOverlap(dataset, self.t, weight_of)
        for token in list(dataset.frequency):
            if weight_of(token) < 0:
                raise ValueError(f"word weights must be non-negative (token {token})")
        return bound
