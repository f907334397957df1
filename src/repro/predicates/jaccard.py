"""Jaccard-coefficient predicate (paper §5.2.1).

``Jaccard(r, s) = |r ∩ s| / |r ∪ s| >= f`` is rewritten as an overlap
condition with the record-pair-dependent threshold::

    |r ∩ s| >= f * (|r| + |s|) / (1 + f)   =: T(r, s)

which is non-decreasing in both set sizes, as the framework requires. The
additional filter is the size-ratio condition
``min(|r|/|s|, |s|/|r|) >= f``, expressed as the band
``|log|r| - log|s|| <= log(1/f)`` (§5.3).

The weighted variant replaces set sizes by total word weight; embedding
``score(w, r) = sqrt(weight(w))`` makes ``||r||`` the total weight and the
same threshold formula applies verbatim.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate

__all__ = ["JaccardPredicate"]


class _BoundJaccard(BoundPredicate):
    def __init__(self, dataset: Dataset, f: float, weight_of: Callable[[int], float] | None):
        super().__init__(dataset)
        self.f = f
        self.weight_of = weight_of
        self.unit_scores = weight_of is None
        self.band_radius = -math.log(f)

    def score_vector(self, rid: int) -> tuple[float, ...]:
        if self.weight_of is None:
            return (1.0,) * len(self.dataset[rid])
        return tuple(math.sqrt(self.weight_of(token)) for token in self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.f * (norm_r + norm_s) / (1.0 + self.f)

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        union = self.norm(rid_r) + self.norm(rid_s) - weight
        if union <= 0.0:
            return 0.0
        return weight / union

    band_key = BoundPredicate.log_norm


class JaccardPredicate(SimilarityPredicate):
    """Jaccard coefficient >= f (optionally weighted).

    Args:
        f: fraction in (0, 1].
        weights: None for the unweighted coefficient, or a mapping /
            callable giving per-token weights for the weighted variant.
    """

    def __init__(self, f: float, weights: Mapping[int, float] | Callable[[int], float] | None = None):
        if not 0.0 < f <= 1.0:
            raise ValueError(f"jaccard fraction must be in (0, 1], got {f}")
        self.f = f
        self.weights = weights

    @property
    def name(self) -> str:
        return f"jaccard(f={self.f:g})"

    def bind(self, dataset: Dataset) -> _BoundJaccard:
        weight_of: Callable[[int], float] | None
        if self.weights is None:
            weight_of = None
        elif callable(self.weights):
            weight_of = self.weights
        else:
            mapping = self.weights

            def weight_of(token: int, _m: Mapping[int, float] = mapping) -> float:
                return _m.get(token, 1.0)

        return _BoundJaccard(dataset, self.f, weight_of)
