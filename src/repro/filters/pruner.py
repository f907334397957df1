"""The bitmap-filter runtime: store + controller + constant threshold.

One :class:`BitmapPruner` serves one join execution (built in
:meth:`SetJoinAlgorithm.join` / ``join_between``) or one
:class:`~repro.core.service.SimilarityIndex` (grown on ``add``, rebuilt
on ``rebind``, restored on ``load``). The positional filter's cascade
(:mod:`repro.core.positional_filter`) hands it each probe's candidate
list once (:meth:`BitmapPruner.screen`);
:func:`~repro.core.base.probe_kernel` and
:meth:`SetJoinAlgorithm._verify_pair` check one pair at a time
(:meth:`BitmapPruner.rejects`), before each exact verification, with
the probe's signature entry — stored for indexed records, built on the
fly for an ephemeral query — and the exact pair threshold. Both run
the same check loop. Pairs it rejects never count as
``pairs_verified`` — that counter keeps meaning "exact verifications
performed", which is what the perf gate holds; the filter's own
traffic is visible in ``bitmap_checks``/``bitmap_rejects``.

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

    Single-pair callers check ``controller.active`` before computing
    the pair threshold. ``const_threshold`` is set for predicates whose
    threshold ignores the norms, so callers pay for it once per run
    instead of once per check.
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

    def screen(self, bound, rid: int, candidates: list[int], counters) -> list[int]:
        """The ``candidates`` of probe ``rid`` the bitmap does not
        reject, in their order: one call per probe.

        Each pair's threshold is taken in canonical orientation (the
        smaller rid first), as :meth:`SetJoinAlgorithm._verify_pair`
        would, and computed once per distinct partner norm and
        orientation. With the controller off, every candidate survives
        unchecked; when a window switches it off mid-list, the rest
        pass unchecked.
        """
        if not candidates or not self.controller.active:
            return candidates
        entry = self.entry_of(bound, rid)
        return self._screen(
            entry, candidates, self.const_threshold, bound, rid, counters
        )

    def rejects(self, entry, rid_b: int, threshold: float, counters) -> bool:
        """True when the pair (probe ``entry``, stored ``rid_b``) provably
        cannot reach ``threshold`` (skip verification)."""
        return not self._screen(entry, (rid_b,), threshold, None, -1, counters)

    def _screen(self, entry, candidates, threshold, bound, rid, counters) -> list[int]:
        """The check itself, over a candidate sequence.

        ``threshold`` is the pair threshold of every candidate, or None
        to compute it per pair from ``bound``'s norms of ``rid`` and the
        candidate. The candidates are checked in runs that each fit the
        controller's open window, so a window closes at the same check
        as it would one check at a time; the counters are added once.
        """
        sig_a, pop_a, size_a, max_a = entry
        free_a = size_a - pop_a
        entries = self.store._entries
        controller = self.controller
        if threshold is None:
            norms = bound.filled_norms()
            pair_threshold = bound.threshold
            norm_r = bound.norm(rid)
            # partner norm -> threshold - WEIGHT_EPS, per orientation
            limits_below: dict[float, float] = {}
            limits_above: dict[float, float] = {}
        else:
            limit = threshold - WEIGHT_EPS
        survivors: list[int] = []
        keep = survivors.append
        total = len(candidates)
        start = 0
        rejected = 0
        while True:
            # A controller that is off (only a direct ``rejects`` call
            # gets here then) judges nothing: one run over everything.
            watching = controller.active
            stop = start + controller.room() if watching else total
            if stop > total:
                stop = total
            run = candidates if start == 0 and stop == total else candidates[start:stop]
            kept = len(survivors)
            for sid in run:
                sig_b, pop_b, size_b, max_b = entries[sid]
                inter = (sig_a & sig_b).bit_count()
                ub = free_a + inter
                ub_b = size_b - pop_b + inter
                if ub_b < ub:
                    ub = ub_b
                if threshold is None:
                    norm_s = norms[sid]
                    if sid < rid:
                        limit = limits_below.get(norm_s)
                        if limit is None:
                            limit = pair_threshold(norm_s, norm_r) - WEIGHT_EPS
                            limits_below[norm_s] = limit
                    else:
                        limit = limits_above.get(norm_s)
                        if limit is None:
                            limit = pair_threshold(norm_r, norm_s) - WEIGHT_EPS
                            limits_above[norm_s] = limit
                if (ub * max_a * max_b if ub > 0 else 0.0) < limit:
                    continue
                keep(sid)
            run_rejects = (stop - start) - (len(survivors) - kept)
            rejected += run_rejects
            if watching:
                controller.record(stop - start, run_rejects, counters)
            start = stop
            if start == total:
                break
            if not controller.active:
                survivors.extend(candidates[start:])
                break
        counters.bitmap_checks += start
        counters.bitmap_rejects += rejected
        return survivors
