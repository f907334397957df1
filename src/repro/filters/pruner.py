"""The bitmap-filter runtime: store + controller + constant threshold.

One :class:`BitmapPruner` serves one join execution (built in
:meth:`SetJoinAlgorithm.join` / ``join_between``) or one
:class:`~repro.core.service.SimilarityIndex` (grown on ``add``, rebuilt
on ``rebind``, restored on ``load``). It is consulted by
:func:`~repro.core.base.probe_kernel`,
:meth:`SetJoinAlgorithm._verify_pair` and the positional filter's
cascade (:mod:`repro.core.positional_filter`) before each exact
verification, with the probe's signature entry — stored for indexed
records, built on the fly for an ephemeral query — and the exact pair
threshold. Pairs it rejects never count as ``pairs_verified`` — that
counter keeps meaning "exact verifications performed", which is what
the perf gate holds; the filter's own traffic is visible in
``bitmap_checks``/``bitmap_rejects``.

The rejection rule::

    reject  iff  weight_cap(r, s) < threshold(r, s) - WEIGHT_EPS

``verify`` accepts a pair when ``weight >= threshold - WEIGHT_EPS/10``
(see :meth:`BoundPredicate.satisfied`); rejection requires
``weight <= cap < threshold - WEIGHT_EPS < threshold - WEIGHT_EPS/10``,
strictly below the acceptance line, so no accepted pair is ever
rejected — regardless of float noise in the threshold itself. A
non-positive threshold never rejects (the cap is never negative).
Whether "cannot reach the threshold" means "verify fails" is the
predicate's claim, declared by its flags (see :meth:`BitmapPruner.for_join`).
"""

from __future__ import annotations

from repro.filters.bitmap import BitmapFilterConfig, SignatureStore
from repro.filters.controller import AdaptiveController, NullController
from repro.predicates.base import WEIGHT_EPS

__all__ = ["BitmapPruner"]


class BitmapPruner:
    """Rejects candidate pairs whose weight cap cannot reach the threshold.

    Callers check ``controller.active`` before computing the pair
    threshold. ``const_threshold`` is set for predicates whose threshold
    ignores the norms, so callers pay for it once per run instead of
    once per check.
    """

    __slots__ = ("store", "controller", "const_threshold")

    def __init__(self, store: SignatureStore, controller, const_threshold):
        self.store = store
        self.controller = controller
        self.const_threshold = const_threshold

    @classmethod
    def for_join(
        cls, bound, config: BitmapFilterConfig, counters=None, saved=None
    ) -> "BitmapPruner | None":
        """Build a pruner over ``bound``'s dataset, or None when the
        predicate declares no soundness argument (the filter stays off).

        Pruning is sound when ``verify`` is the match-weight threshold
        test (``use_signature_prefilter``), or when ``threshold`` is a
        necessary bound on the common-token count (edit distance's
        q-gram lemma, ``bitmap_qgram_bound``). ``constant_threshold``
        predicates pay for the threshold once per run.

        ``saved`` is a snapshot's ``{"width", "signatures"}`` state: its
        signatures are reused when the width matches ``config``, which
        skips the per-token hashing pass.
        """
        if not (
            bound.use_signature_prefilter
            or getattr(bound, "bitmap_qgram_bound", False)
        ):
            return None
        if saved is not None and saved["width"] == config.width:
            store = SignatureStore.restore(config.width, saved["signatures"], bound)
        else:
            store = SignatureStore.build(bound, config.width)
        if counters is not None:
            extra = counters.extra
            extra["bitmap_signatures_built"] = (
                extra.get("bitmap_signatures_built", 0) + len(store)
            )
        if config.adaptive:
            controller = AdaptiveController(config.sample_size, config.min_reject_rate)
        else:
            controller = NullController()
        const_threshold = (
            bound.threshold(0.0, 0.0) if bound.constant_threshold else None
        )
        return cls(store, controller, const_threshold)

    def grow(self, bound) -> None:
        """Sign the records appended to ``bound``'s dataset since the
        last call (the controller's decision carries over)."""
        self.store.extend_from(bound, len(self.store))

    def entry_of(self, bound, rid: int) -> tuple[int, int, int, float]:
        """The probe's signature entry: stored for an indexed rid, built
        on the fly for a query probe past the end of the store."""
        store = self.store
        if rid < len(store):
            return store.entry(rid)
        return store.components_for(bound.dataset[rid], bound.cached_score_vector(rid))

    def rejects(self, entry, rid_b: int, threshold: float, counters) -> bool:
        """True when the pair (probe ``entry``, stored ``rid_b``) provably
        cannot reach ``threshold`` (skip verification)."""
        counters.bitmap_checks += 1
        rejected = self.store.weight_cap(entry, rid_b) < threshold - WEIGHT_EPS
        if rejected:
            counters.bitmap_rejects += 1
        controller = self.controller
        if controller.adaptive:
            controller.observe(rejected, counters)
        return rejected
