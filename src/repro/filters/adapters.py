"""Per-predicate soundness adapters for the bitmap filter.

The :class:`~repro.filters.bitmap.SignatureStore` proves *"the match
weight of this pair is at most C"*. Whether that licenses skipping
:meth:`BoundPredicate.verify` is a per-predicate argument — each adapter
below states it. ``adapter_for`` returns ``None`` when no sound
argument exists, and the filter silently stays off (sound by default:
an unknown predicate is never pruned).

The shared rejection rule, applied by
:meth:`~repro.filters.pruner.BitmapPruner.rejects`::

    reject  iff  weight_cap(r, s) < pair_threshold(r, s) - WEIGHT_EPS

``verify`` accepts a pair when ``weight >= threshold - WEIGHT_EPS/10``
(see :meth:`BoundPredicate.satisfied`); rejection requires
``weight <= cap < threshold - WEIGHT_EPS < threshold - WEIGHT_EPS/10``,
strictly below the acceptance line, so no accepted pair is ever
rejected — regardless of float noise in the threshold itself. A
non-positive threshold never rejects (the cap is never negative).
"""

from __future__ import annotations

__all__ = ["SoundnessAdapter", "adapter_for"]


class SoundnessAdapter:
    """Base adapter: threshold lookup + the soundness contract.

    ``constant_threshold`` marks predicates whose ``threshold(r, s)``
    ignores the norms; callers may then evaluate it once per run
    instead of once per check.
    """

    name = "generic-weight"
    constant_threshold = False

    def pair_threshold(self, bound, rid_a: int, rid_b: int) -> float:
        """The exact threshold ``verify`` will test this pair against."""
        return bound.threshold(bound.norm(rid_a), bound.norm(rid_b))


class _OverlapAdapter(SoundnessAdapter):
    """|r ∩ s| >= t with unit scores: weight == intersection size, the
    cap bounds it directly, and ``verify`` is exactly the threshold
    test. Constant threshold ``t``."""

    name = "overlap"
    constant_threshold = True


class _WeightedOverlapAdapter(SoundnessAdapter):
    """sum of idf-style weights over r ∩ s >= t: scores are sqrt(weight)
    >= 0, so cap = ub * max_r * max_s dominates any sum of ``ub`` score
    products. Constant threshold ``t``."""

    name = "weighted-overlap"
    constant_threshold = True


class _JaccardAdapter(SoundnessAdapter):
    """jaccard >= f rewritten as weight >= f(|r|+|s|)/(1+f) (paper
    Table 1): unit scores, verify is the weight-threshold test, and the
    threshold depends only on the two norms the adapter passes through."""

    name = "jaccard"


class _CosineAdapter(SoundnessAdapter):
    """cosine >= f over unit-normalized TF-IDF vectors: scores are
    non-negative and at most ``max_score``, so the cap bounds the dot
    product. Constant threshold ``f``."""

    name = "cosine"
    constant_threshold = True


class _DiceAdapter(SoundnessAdapter):
    """dice >= f rewritten as weight >= f(|r|+|s|)/2: unit scores,
    verify is the weight-threshold test."""

    name = "dice"


class _OverlapCoefficientAdapter(SoundnessAdapter):
    """|r ∩ s| / min(|r|,|s|) >= f rewritten as weight >= f*min(norms):
    unit scores, verify is the weight-threshold test."""

    name = "overlap-coefficient"


class _HammingAdapter(SoundnessAdapter):
    """|r Δ s| <= k rewritten as weight >= (|r|+|s|-k)/2: unit scores,
    verify is the weight-threshold test."""

    name = "hamming"


class _EditDistanceQGramAdapter(SoundnessAdapter):
    """ed(r, s) <= k via the q-gram count bound (§5.2.3).

    ``verify`` runs a banded DP on the payload strings — *not* the
    weight-threshold test — so pruning needs the q-gram lemma:
    ``ed <= k`` implies the numbered-q-gram sets share at least
    ``threshold(norm_r, norm_s) = max(len_r, len_s) - 1 - q(k-1)``
    grams. With unit scores the match weight *is* the common-gram
    count, so a weight cap below that necessary bound proves
    ``ed > k`` and the DP would reject. Predicates declare the lemma
    holds via ``bitmap_qgram_bound = True``; without it this adapter
    must not be used (``use_signature_prefilter`` is False here, so
    there is no generic fallback either).
    """

    name = "edit-distance"


_ADAPTERS: dict[str, SoundnessAdapter] = {
    adapter.name: adapter
    for adapter in (
        _OverlapAdapter(),
        _WeightedOverlapAdapter(),
        _JaccardAdapter(),
        _CosineAdapter(),
        _DiceAdapter(),
        _OverlapCoefficientAdapter(),
        _HammingAdapter(),
        _EditDistanceQGramAdapter(),
    )
}

_GENERIC = SoundnessAdapter()


def adapter_for(bound) -> SoundnessAdapter | None:
    """The soundness adapter for ``bound``, or None (filter stays off).

    Dispatches on :meth:`similarity_name`. Unknown predicates fall back
    to the generic weight adapter only when they declare
    ``use_signature_prefilter`` — the same "verify is the match-weight
    threshold test" contract the 64-bit prefilter already relies on.
    """
    name = bound.similarity_name()
    if name == "edit-distance":
        if getattr(bound, "bitmap_qgram_bound", False):
            return _ADAPTERS[name]
        return None
    adapter = _ADAPTERS.get(name)
    if adapter is not None:
        return adapter
    if getattr(bound, "use_signature_prefilter", False):
        return _GENERIC
    return None
