"""Dice and overlap-coefficient predicates (framework extensions).

The paper's framework (§5) accepts any threshold function that is
non-decreasing in the record norms. These two measures are standard in
the later set-similarity-join literature and fall out of the framework
directly, so we include them as extension predicates:

* **Dice**: ``2|r∩s| / (|r|+|s|) >= f``  ⇔  ``|r∩s| >= f(|r|+|s|)/2``.
  Size-ratio filter: ``min(|r|,|s|)/max(|r|,|s|) >= f/(2-f)``.
* **Overlap coefficient**: ``|r∩s| / min(|r|,|s|) >= f``  ⇔
  ``|r∩s| >= f·min(|r|,|s|)`` — ``min`` is non-decreasing in each
  argument, so the monotonicity requirement holds; it admits no
  size-ratio filter.
"""

from __future__ import annotations

import math

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate

__all__ = ["DicePredicate", "OverlapCoefficientPredicate"]


class _BoundDice(BoundPredicate):
    unit_scores = True

    def __init__(self, dataset: Dataset, f: float):
        super().__init__(dataset)
        self.f = f
        self.band_radius = -math.log(f / (2.0 - f))

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return (1.0,) * len(self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.f * (norm_r + norm_s) / 2.0

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        total = self.norm(rid_r) + self.norm(rid_s)
        if total <= 0.0:
            return 0.0
        return 2.0 * weight / total

    band_key = BoundPredicate.log_norm


class DicePredicate(SimilarityPredicate):
    """Dice coefficient >= f."""

    def __init__(self, f: float):
        if not 0.0 < f <= 1.0:
            raise ValueError(f"dice fraction must be in (0, 1], got {f}")
        self.f = f

    @property
    def name(self) -> str:
        return f"dice(f={self.f:g})"

    def bind(self, dataset: Dataset) -> _BoundDice:
        return _BoundDice(dataset, self.f)


class _BoundOverlapCoefficient(BoundPredicate):
    unit_scores = True

    def __init__(self, dataset: Dataset, f: float):
        super().__init__(dataset)
        self.f = f

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return (1.0,) * len(self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        return self.f * min(norm_r, norm_s)

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        smaller = min(self.norm(rid_r), self.norm(rid_s))
        if smaller <= 0.0:
            return 0.0
        return weight / smaller


class OverlapCoefficientPredicate(SimilarityPredicate):
    """Overlap coefficient (Szymkiewicz–Simpson) >= f."""

    def __init__(self, f: float):
        if not 0.0 < f <= 1.0:
            raise ValueError(f"overlap-coefficient fraction must be in (0, 1], got {f}")
        self.f = f

    @property
    def name(self) -> str:
        return f"overlap-coeff(f={self.f:g})"

    def bind(self, dataset: Dataset) -> _BoundOverlapCoefficient:
        return _BoundOverlapCoefficient(dataset, self.f)
