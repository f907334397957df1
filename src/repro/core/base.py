"""Common driver machinery shared by every join algorithm.

A :class:`SetJoinAlgorithm` performs an exact similarity self-join of a
:class:`~repro.core.records.Dataset` under a
:class:`~repro.predicates.SimilarityPredicate`. Candidate generation
differs per algorithm; the final decision for every emitted pair is
always :meth:`BoundPredicate.verify`, so all algorithms (including the
naive baseline) agree exactly on the output set.

Each algorithm class declares its capabilities as class attributes
(``shardable``, ``resumable``, ``merges``, ``index_backends``,
``requires_scores``); :meth:`SetJoinAlgorithm.check_supported` and
``join()`` refuse anything else with
:class:`~repro.runtime.errors.UnsupportedConfiguration` before any work.

``join_between`` implements the non-self join ("the extension to
non-self-joins is obvious", §2): index one side, probe with the other.

:func:`probe_kernel` is the record-level step every index probe shares
— probe the posting lists, merge at ``T(r, I)`` with the §5 band filter
inside the merge, prune with the bitmap filter, verify, emit. The
Probe-Count family, Probe-Cluster, ClusterMem, ``join_between`` and
:class:`~repro.core.service.SimilarityIndex` queries all call it; what
differs between them is a :class:`ProbePlan`, never a code path.

Runtime hardening lives here so every algorithm inherits it. ``join``
accepts an optional :class:`~repro.runtime.context.JoinContext`; the
:meth:`_drive` / :meth:`_tick` helpers run its record-granularity
checks (deadline, cancellation, memory budget) inside each algorithm's
scan loop, handle checkpoint writes and resume-replay, and — when the
memory budget trips under the default policy — degrade the join to the
budget-respecting ClusterMem algorithm instead of dying.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from itertools import islice

from repro.core.accumulator import (
    accumulate_merge,
    accumulate_merge_opt,
    resolve_merge_backend,
    use_accumulator,
)
from repro.core.heap_merge import heap_merge
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_opt import merge_opt
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.core.token_order import ensure_unit_scores
from repro.filters.bitmap import resolve_bitmap_filter
from repro.filters.pruner import BitmapPruner
from repro.predicates.base import (
    WEIGHT_EPS,
    BandFilter,
    BoundPredicate,
    PairThreshold,
    SimilarityPredicate,
)
from repro.runtime.errors import (
    JoinInterrupted,
    MemoryBudgetExceeded,
    UnsupportedConfiguration,
)
from repro.storage.mmap_index import map_index, resolve_index_backend
from repro.utils.counters import CostCounters

__all__ = [
    "RECORD_INDEPENDENT",
    "UNIT",
    "ProbePlan",
    "SetJoinAlgorithm",
    "probe_kernel",
    "run_merge",
]

#: ``requires_scores`` values: ``score(w, r)`` depends on ``w`` alone
#: (:attr:`BoundPredicate.record_independent_scores`), or every score is
#: exactly 1.0 (:func:`~repro.core.token_order.ensure_unit_scores`).
RECORD_INDEPENDENT = "record-independent scores"
UNIT = "unit scores"


class SetJoinAlgorithm(ABC):
    """Base class: timing, binding, verification, non-self joins, and
    the hardened-runtime driver (deadline/cancel/memory checks,
    checkpoint/resume, graceful degradation)."""

    name: str = "abstract"

    #: Algorithms that structurally honour a memory budget (ClusterMem)
    #: set this True; the context then skips the runtime memory check,
    #: whose cumulative insert counters would misfire on them.
    respects_memory_budget: bool = False

    # Capabilities: defaults here, overridden on each algorithm class.
    # check_supported() and join() enforce them, parallel_join reads
    # shardable, and PARALLEL_ALGORITHMS and the README's algorithm
    # table are derived from them.

    #: Whether parallel_join may split the driven scan's positions
    #: over shards (the positions must mean the same in every worker).
    shardable: bool = False

    #: Whether the pair-emitting scan runs through :meth:`_drive`, so a
    #: context checkpointer can persist it and a rerun resume it.
    resumable: bool = False

    #: Whether ``merge_backend`` has any effect: the algorithm merges
    #: posting lists through :func:`run_merge`.
    merges: bool = False

    #: The ``index_backend`` values the algorithm honours. The mapped
    #: backends are write-once files, so only a separate full build
    #: pass can fill them.
    index_backends: frozenset[str] = frozenset({"memory"})

    #: What the algorithm needs from the bound predicate: ``None`` (any
    #: predicate), :data:`RECORD_INDEPENDENT` (one score per word) or
    #: :data:`UNIT` (every score 1.0, so weights count tokens).
    requires_scores: str | None = None

    #: Bitmap candidate filter knob (:mod:`repro.filters`): ``None``/
    #: ``False`` off, ``True`` defaults, an int width, or a
    #: :class:`~repro.filters.BitmapFilterConfig`. Set via
    #: ``make_algorithm(..., bitmap_filter=...)`` so it flows through
    #: ``similarity_join`` and the parallel workers' instances without
    #: touching any ``join()`` signature. The filter is sound
    #: (see :meth:`~repro.filters.BitmapPruner.for_join`): the emitted
    #: pair set is identical with it on or off.
    bitmap_filter = None

    #: Merge-backend knob (:mod:`repro.core.accumulator`): ``"heap"``
    #: forces the classic frontier-heap merge, ``"accumulator"`` the
    #: ScanCount-style score accumulator, and ``"auto"`` (default)
    #: picks per probe from the lists' total entry count. Set via
    #: ``make_algorithm(..., merge_backend=...)`` — like
    #: ``bitmap_filter`` it is an instance attribute, so it flows
    #: through ``similarity_join``, the parallel workers, and the CLI
    #: without touching ``join()`` signatures. Only algorithms that
    #: declare ``merges`` accept a value other than ``"auto"``.
    #: Candidate sets are pair-for-pair identical across backends.
    merge_backend: str = "auto"

    #: Index-backend knob (:mod:`repro.storage.mmap_index`):
    #: ``"memory"`` (default) builds the in-RAM
    #: :class:`~repro.core.inverted_index.ScoredInvertedIndex`;
    #: ``"mmap"`` lands the build pass in a write-once columnar file and
    #: probes it zero-copy through the mapping, so resident memory is
    #: the token directory plus touched postings instead of the full
    #: index; ``"mmap-varbyte"`` stores the id columns as varbyte gap
    #: skip blocks instead (the §4/§6 compressed footprint, decoded one
    #: block per random access). Set via
    #: ``make_algorithm(..., index_backend=...)`` — the same
    #: instance-attribute pattern as ``bitmap_filter`` and
    #: ``merge_backend``, so it flows through ``similarity_join``, the
    #: parallel workers, and the CLI unchanged. Only the values in the
    #: algorithm's ``index_backends`` are accepted; pairs are
    #: bit-identical across backends.
    index_backend: str = "memory"

    #: Optional explicit file path for the mapped index; ``None`` uses a
    #: ``mkstemp`` temp file removed when the join finishes.
    index_path: str | None = None

    # Per-run merge state: the backend string resolved by join()/
    # join_between() and read by every probe plan of one execution.
    _merge_mode: str | None = None

    # Scan ownership, set by set_shard() and consumed by _drive(): this
    # instance emits pairs only at positions p with p % _n_shards ==
    # _shard. Every other position up to its last owned one is replayed
    # (state rebuilt, no pair emission, same as checkpoint replay); the
    # scan ends after the last owned position. (0, 1) is unsharded.
    _shard: int = 0
    _n_shards: int = 1

    # Per-run driver state, installed by join() for the duration of one
    # execution and consumed by _drive()/_tick().
    _context = None
    _checkpointer = None
    _checkpoint_meta: dict | None = None
    _resume_position: int = -1
    _restored_pairs: list[MatchPair] = []
    _bitmap = None

    def join(
        self,
        dataset: Dataset,
        predicate: SimilarityPredicate,
        context=None,
    ) -> JoinResult:
        """Exact similarity self-join; pairs are canonical (a < b).

        Args:
            dataset: the tokenized records.
            predicate: the join condition.
            context: optional :class:`~repro.runtime.context.JoinContext`
                carrying a deadline, cancellation token, memory budget,
                and/or checkpointer. Interruptions raise the structured
                errors of :mod:`repro.runtime.errors`; with a
                checkpointer attached, progress is flushed first so the
                invocation can be resumed.
        """
        self.check_supported()
        bound = predicate.bind(dataset)
        self._check_run(dataset, predicate, bound, context)
        counters = CostCounters()
        restored = self._install_runtime(dataset, predicate, context, counters)
        self._arm_probe(bound, counters)
        if context is not None:
            context.start()
        start = time.perf_counter()
        degraded_from = None
        degradation_reason = None
        try:
            try:
                pairs = restored + self._run(dataset, bound, counters)
            except MemoryBudgetExceeded as exc:
                if context is None or context.on_memory_exceeded != "degrade":
                    raise
                pairs = self._degraded_fallback(dataset, predicate, context, counters)
                degraded_from = self.name
                degradation_reason = str(exc)
        finally:
            self._uninstall_runtime()
        if context is not None and context.checkpointer is not None:
            context.checkpointer.clear()
        elapsed = time.perf_counter() - start
        counters.pairs_output = len(pairs)
        return JoinResult(
            pairs=pairs,
            algorithm=self.name,
            predicate=predicate.name,
            counters=counters,
            elapsed_seconds=elapsed,
            degraded_from=degraded_from,
            degradation_reason=degradation_reason,
        )

    @abstractmethod
    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        """Produce the verified match pairs."""

    def set_shard(self, shard: int, n_shards: int) -> None:
        """Restrict pair emission to scan positions ``p % n_shards == shard``.

        Every other position before the last owned one is processed in
        replay mode — all state (index inserts, cluster assignment) is
        rebuilt deterministically but no pairs are emitted; positions
        past the last owned one are not scanned when the scan order has
        a length (otherwise they replay too). Emitted pairs
        are exactly those the serial run emits at owned positions, so
        the ``n_shards`` shards partition the serial pair set.
        Round-robin ownership spreads the late, expensive probes of an
        online scan (the index grows as it advances) evenly over the
        shards. Used by :func:`repro.parallel.parallel_join`;
        ``(0, 1)`` restores the unsharded behaviour.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard must be in [0, {n_shards}), got {shard}")
        self._shard = shard
        self._n_shards = n_shards

    # ------------------------------------------------------------------
    # Hardened-runtime driver
    # ------------------------------------------------------------------

    def _install_runtime(
        self, dataset: Dataset, predicate, context, counters: CostCounters
    ) -> list[MatchPair]:
        """Arm the per-run driver state; returns pairs restored from a
        checkpoint (empty when starting fresh)."""
        self._context = context
        self._checkpointer = None
        self._checkpoint_meta = None
        self._resume_position = -1
        self._restored_pairs = []
        if context is None or context.checkpointer is None:
            return []
        from repro.runtime.checkpoint import dataset_fingerprint

        checkpointer = context.checkpointer
        meta = {
            "algorithm": self.name,
            "predicate": predicate.name,
            "fingerprint": dataset_fingerprint(dataset),
            "n_records": len(dataset),
        }
        self._checkpointer = checkpointer
        self._checkpoint_meta = meta
        state = checkpointer.load()
        if state is None:
            return []
        checkpointer.validate(state, **meta)
        self._resume_position = state.position
        self._restored_pairs = state.match_pairs()
        counters.merge(state.cost_counters())
        return list(self._restored_pairs)

    def _arm_probe(self, bound: BoundPredicate, counters: CostCounters) -> None:
        """Resolve the run's merge backend and build its bitmap pruner."""
        self._merge_mode = resolve_merge_backend(self.merge_backend)
        config = resolve_bitmap_filter(self.bitmap_filter)
        if config is not None:
            self._bitmap = BitmapPruner.for_join(bound, config, counters)

    def _uninstall_runtime(self) -> None:
        self._context = None
        self._checkpointer = None
        self._checkpoint_meta = None
        self._resume_position = -1
        self._restored_pairs = []
        self._bitmap = None
        self._merge_mode = None

    def _tick(self, counters: CostCounters) -> None:
        """Record-granularity runtime check (no checkpoint handling).

        For state-building loops that emit no pairs (index construction,
        ClusterMem phase 1): an interruption here leaves any existing
        checkpoint untouched — replay is idempotent, so the previous
        checkpoint stays valid.
        """
        if self._context is not None:
            self._context.tick(
                counters, check_memory=not self.respects_memory_budget
            )

    def _drive(self, order, counters: CostCounters, pairs: list[MatchPair]):
        """The shared scan loop: yields ``(position, rid, replay)``.

        Wraps each algorithm's pair-emitting record loop with the full
        runtime protocol:

        * runs :meth:`_tick` before each record;
        * yields ``replay=True`` for positions already covered by a
          restored checkpoint — the algorithm must rebuild its state
          (index inserts, cluster assignment) for them but skip pair
          emission, which the checkpoint already holds;
        * under :meth:`set_shard`, also yields ``replay=True`` for the
          positions the shard does not own, and ends the scan after the
          last owned one when ``order`` has a length (any other iterable
          is scanned to its end, the tail replayed);
        * checkpoints after every ``interval_records`` completed
          positions, and flushes a final checkpoint when a deadline,
          cancellation, or (strict-mode) memory trip interrupts the
          scan, so the invocation is resumable. Checkpoints follow the
          scan position, not ownership: a flush at ``position`` records
          every owned position through it as done.

        ``pairs`` must be the same list object the algorithm appends
        emitted pairs to.
        """
        context = self._context
        checkpointer = self._checkpointer
        resume_position = self._resume_position
        shard = self._shard
        n_shards = self._n_shards
        stop = None
        if n_shards > 1 and hasattr(order, "__len__"):
            # One past the last position p < len(order) with p % n_shards == shard.
            stop = max(0, len(order) - (len(order) - 1 - shard) % n_shards)
        for position, rid in enumerate(islice(order, stop)):
            if context is not None:
                try:
                    context.tick(
                        counters, check_memory=not self.respects_memory_budget
                    )
                except (JoinInterrupted, MemoryBudgetExceeded):
                    self._flush_checkpoint(position - 1, counters, pairs)
                    raise
            resumed = position <= resume_position
            yield position, rid, resumed or position % n_shards != shard
            if (
                checkpointer is not None
                and not resumed
                and checkpointer.due(position)
            ):
                self._flush_checkpoint(position, counters, pairs)

    def _flush_checkpoint(
        self, position: int, counters: CostCounters, pairs: list[MatchPair]
    ) -> None:
        """Persist progress through ``position`` (no-op when it would
        lose ground against the restored checkpoint)."""
        if self._checkpointer is None or position < 0:
            return
        if position <= self._resume_position:
            return  # interrupted mid-replay: the old checkpoint stands
        counters.checkpoint_writes += 1
        self._checkpointer.write(
            position=position,
            pairs=self._restored_pairs + pairs,
            counters=counters,
            **self._checkpoint_meta,
        )

    def _degraded_fallback(
        self, dataset: Dataset, predicate, context, counters: CostCounters
    ) -> list[MatchPair]:
        """Finish the join under the memory budget via ClusterMem.

        The partial run's pairs are discarded (ClusterMem re-derives the
        complete set exactly); its work counters are kept, so the final
        counters account for everything actually performed.
        """
        from repro.core.cluster_mem import ClusterMemJoin, MemoryBudget

        fallback = ClusterMemJoin(MemoryBudget(context.memory_budget_entries))
        fallback.bitmap_filter = self.bitmap_filter
        fallback.merge_backend = self.merge_backend
        result = fallback.join(
            dataset, predicate, context=context.for_degraded_run()
        )
        counters.merge(result.counters)
        counters.extra["degradations"] = counters.extra.get("degradations", 0) + 1
        return result.pairs

    # ------------------------------------------------------------------
    # Capability checks
    # ------------------------------------------------------------------

    def check_supported(self) -> None:
        """Raise :class:`UnsupportedConfiguration` for a knob this
        algorithm does not declare. ``make_algorithm`` runs it at
        construction; ``join()`` again for directly built instances."""
        backend = resolve_index_backend(self.index_backend)
        if backend not in self.index_backends:
            raise UnsupportedConfiguration(
                f"algorithm {self.name!r} does not support"
                f" index_backend={backend!r}: the write-once mapped index"
                " needs a separate full build pass"
            )
        merge = resolve_merge_backend(self.merge_backend)
        if merge != "auto" and not self.merges:
            raise UnsupportedConfiguration(
                f"algorithm {self.name!r} merges no posting lists;"
                f" merge_backend={merge!r} would have no effect"
            )

    def _check_run(self, dataset: Dataset, predicate, bound, context) -> None:
        """The checks that need the bound predicate or the context."""
        if context is not None and context.checkpointer is not None:
            if not self.resumable:
                raise UnsupportedConfiguration(
                    f"algorithm {self.name!r} cannot checkpoint: its pairs"
                    " do not come from a resumable record scan"
                )
        if self.requires_scores == UNIT:
            ensure_unit_scores(dataset, bound, what=f"algorithm {self.name!r}")
        elif self.requires_scores == RECORD_INDEPENDENT:
            if not bound.record_independent_scores:
                raise UnsupportedConfiguration(
                    f"algorithm {self.name!r} needs record-independent word"
                    f" scores; predicate {predicate.name} is record-dependent"
                )

    def _build_full_index(
        self,
        dataset: Dataset,
        bound: BoundPredicate,
        counters: CostCounters,
        rids: range,
        keep=None,
    ):
        """Index records ``rids`` in one build pass; returns
        ``(index, dispose)``.

        ``keep`` optionally filters each record's ``(tokens, scores)``
        before insertion (Probe-Count's stopwords variant). Every backend
        builds the same sealed :class:`ScoredInvertedIndex`; under a
        mapped ``index_backend`` it is then written to a write-once
        columnar file (varbyte id blocks for ``"mmap-varbyte"``) and
        probed through the mapping. Mapped build inserts are not charged
        to the memory budget (the data leaves RAM); the opened index
        charges its directory plus each posting list on first touch
        instead. ``dispose`` must run when probing is done (closes the
        mapping and removes a temp file).
        """
        backend = resolve_index_backend(self.index_backend)
        charged = counters if backend == "memory" else None
        index = ScoredInvertedIndex()
        for rid in rids:
            self._tick(counters)
            tokens = dataset[rid]
            scores = bound.cached_score_vector(rid)
            if keep is not None:
                tokens, scores = keep(tokens, scores)
            index.insert(rid, tokens, scores, bound.norm(rid), charged)
        # The build phase is over; freeze the columnar postings so the
        # probe phase provably cannot mutate shared lists.
        index.seal()
        if backend == "memory":
            return index, _noop_dispose
        mapped = map_index(
            index, self.index_path, compressed=backend == "mmap-varbyte"
        )
        mapped.attach_counters(counters)
        return mapped, mapped.dispose

    # ------------------------------------------------------------------
    # Merge-backend dispatch
    # ------------------------------------------------------------------

    def _probe_plan(self, bound: BoundPredicate, **variation) -> "ProbePlan":
        """This run's :class:`ProbePlan`: its merge backend and pruner
        plus the caller's variation points."""
        # Resolved at join start; algorithms driven outside join() (unit
        # tests calling _run directly) resolve lazily.
        mode = self._merge_mode
        if mode is None:
            mode = resolve_merge_backend(self.merge_backend)
        return ProbePlan(bound, mode, pruner=self._bitmap, **variation)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    def _verify_pair(
        self,
        bound: BoundPredicate,
        rid_a: int,
        rid_b: int,
        counters: CostCounters,
        out: list[MatchPair],
    ) -> bool:
        """Bitmap-check, then exactly verify, the pair; emit it on a match.

        For the candidate generators outside :func:`probe_kernel`
        (naive, pair-count, word-groups, the prefix filter, approx).
        With the bitmap filter armed (``bitmap_filter=`` knob), pairs
        whose popcount weight cap provably cannot reach the threshold
        are rejected first; those count as ``bitmap_checks``/
        ``bitmap_rejects``, never as ``pairs_verified`` — that counter
        keeps meaning "exact verifications performed". The rest goes to
        :meth:`_verify_exact`.
        """
        pruner = self._bitmap
        if pruner is not None and pruner.controller.active:
            threshold = pruner.const_threshold
            if threshold is None:
                threshold = bound.threshold(bound.norm(rid_a), bound.norm(rid_b))
            if pruner.rejects(pruner.store.entry(rid_a), rid_b, threshold, counters):
                return False
        return self._verify_exact(bound, rid_a, rid_b, counters, out)

    def _verify_exact(
        self,
        bound: BoundPredicate,
        rid_a: int,
        rid_b: int,
        counters: CostCounters,
        out: list[MatchPair],
    ) -> bool:
        """Run exact verification and emit the pair if it matches.

        The step after the bitmap check: the positional filter calls it
        directly, having run the bitmap earlier in its own cascade.

        When the bound predicate supports it, a 64-bit word-signature
        prefilter (Bloom-style OR of token bits) rejects pairs sharing
        no tokens without computing the full match weight — sound
        whenever the pair threshold is positive, because zero common
        tokens means zero match weight. ``pairs_verified`` counts the
        pair either way, so work counters stay comparable.
        """
        counters.pairs_verified += 1
        if (
            bound.use_signature_prefilter
            and not bound.signature(rid_a) & bound.signature(rid_b)
            and bound.threshold(bound.norm(rid_a), bound.norm(rid_b)) > WEIGHT_EPS
        ):
            extra = counters.extra
            extra["signature_skips"] = extra.get("signature_skips", 0) + 1
            return False
        ok, similarity = bound.verify(rid_a, rid_b)
        if ok:
            out.append(MatchPair.make(rid_a, rid_b, similarity))
        return ok

    def join_between(
        self,
        left: Dataset,
        right: Dataset,
        predicate: SimilarityPredicate,
        context=None,
    ) -> JoinResult:
        """Non-self join: index ``right``, probe with ``left``.

        Returned pairs use ``rid_a`` = left RID and ``rid_b`` = right RID
        (both in their own dataset's numbering; ``rid_a < rid_b`` is not
        enforced here since the id spaces differ).

        ``context`` enables deadline/cancellation/memory checks per
        probed record; checkpoint/resume is not supported here. The
        ``right`` side is indexed on the configured ``index_backend``.
        """
        if left.vocabulary is not None and left.vocabulary is not right.vocabulary:
            raise ValueError(
                "join_between needs both datasets built over the same vocabulary"
                " object (pass vocabulary= when constructing the second one)"
            )
        combined_payloads = None
        if left.payloads is not None and right.payloads is not None:
            combined_payloads = list(left.payloads) + list(right.payloads)
        combined = Dataset(
            list(left.records) + list(right.records),
            vocabulary=left.vocabulary,
            payloads=combined_payloads,
        )
        bound = predicate.bind(combined)
        counters = CostCounters()
        self._context = context
        self._arm_probe(bound, counters)
        if context is not None:
            context.start()
        start = time.perf_counter()
        dispose = _noop_dispose
        try:
            offset = len(left)
            index, dispose = self._build_full_index(
                combined, bound, counters, range(offset, len(combined))
            )
            plan = self._probe_plan(bound, orient=PROBE_FIRST, offset=offset)
            pairs: list[MatchPair] = []
            for rid in range(len(left)):
                self._tick(counters)
                counters.probes += 1
                probe_kernel(
                    plan, index, rid, combined[rid], bound.cached_score_vector(rid),
                    counters, pairs,
                )
        finally:
            dispose()
            self._uninstall_runtime()
        elapsed = time.perf_counter() - start
        counters.pairs_output = len(pairs)
        return JoinResult(
            pairs=pairs,
            algorithm=f"{self.name}/between",
            predicate=predicate.name,
            counters=counters,
            elapsed_seconds=elapsed,
        )


def _noop_dispose() -> None:
    """Nothing to release for the in-memory index."""


# ----------------------------------------------------------------------
# The per-probe kernel
# ----------------------------------------------------------------------

#: Pair orientations of :class:`ProbePlan`. ``LOWER``: the index holds
#: every record, the probe included, so each pair surfaces twice — keep
#: ``sid < rid`` and emit ``(sid, rid)``. ``CANONICAL``: each pair
#: surfaces once; emit ``(min, max)``. ``PROBE_FIRST``: non-self join,
#: emit ``(rid, sid - offset)``. ``PROBE_LAST``: a served query, emit
#: ``(sid, probe_rid)``.
LOWER = "lower"
CANONICAL = "canonical"
PROBE_FIRST = "probe-first"
PROBE_LAST = "probe-last"


class ProbePlan:
    """What varies between the callers of :func:`probe_kernel`.

    Attributes:
        bound: the bound predicate (norms, thresholds, verify).
        merge_mode: resolved merge backend (``"heap"``,
            ``"accumulator"`` or ``"auto"``).
        optmerge: MergeOpt contract at ``T(r, I)`` when True, the plain
            heap contract (no index threshold) otherwise.
        order: entity -> rid map for indexes keyed by processing
            position (``order[pos]``); None when entities are rids.
        orient: pair orientation (:data:`LOWER`, :data:`CANONICAL`,
            :data:`PROBE_FIRST`, :data:`PROBE_LAST`).
        offset: subtracted from the indexed rid of emitted pairs
            (``join_between``'s right side).
        pruner: the bitmap pruner, or None.
        context: a :class:`~repro.runtime.context.JoinContext` ticked
            once per candidate (the query service), or None.
        since: probe only the indexed entities ``>= since`` (the
            query service extending an earlier answer; see
            :meth:`ScoredInvertedIndex.probe_lists`); 0 probes all.
        band: the §5 band filter, derived from ``bound`` (keyed by
            position under ``order``).
        norms: entity -> norm: the bound's gap-free norm cache, or the
            norms by processing position under ``order``.

    ``indexed`` (constructor only, rid entities) is the bound whose
    gap-free caches cover every indexed entity when ``bound`` is a
    per-probe clone (the query service): ``norms`` and the band's
    entity keys are then its plain lists, not the clone's overlays.
    """

    __slots__ = (
        "bound", "merge_mode", "optmerge", "order", "orient", "offset",
        "pruner", "context", "since", "band", "norms",
    )

    def __init__(
        self,
        bound: BoundPredicate,
        merge_mode: str,
        *,
        optmerge: bool = True,
        order=None,
        orient: str = CANONICAL,
        offset: int = 0,
        pruner: BitmapPruner | None = None,
        context=None,
        since: int = 0,
        indexed: BoundPredicate | None = None,
    ):
        self.bound = bound
        self.merge_mode = merge_mode
        self.optmerge = optmerge
        self.order = order
        self.orient = orient
        self.offset = offset
        self.pruner = pruner
        self.context = context
        self.since = since
        band = bound.band_filter()
        if indexed is not None:
            self.norms = indexed.filled_norms()
            if band is not None:
                band = BandFilter(band.keys, band.radius, indexed.band_filter().keys)
        elif order is None:
            self.norms = bound.filled_norms()
        else:
            norm = bound.norm
            self.norms = [norm(rid) for rid in order]
            if band is not None:
                band = band.for_order(order)
        self.band = band


def run_merge(mode, lists, index_threshold, threshold_of, counters, accept=None):
    """Backend-dispatched merge: the ``merge_opt`` contract at
    ``index_threshold``, or the ``heap_merge`` contract when it is None.

    Merges are called positionally through this module's globals, where
    the benchmark's join tracer wraps them.
    """
    accumulate = use_accumulator(mode, lists)
    if index_threshold is None:
        if accumulate:
            return accumulate_merge(lists, threshold_of, counters, accept)
        return heap_merge(lists, threshold_of, counters, accept)
    if accumulate:
        return accumulate_merge_opt(
            lists, index_threshold, threshold_of, counters, accept
        )
    return merge_opt(lists, index_threshold, threshold_of, counters, accept)


def probe_kernel(
    plan: ProbePlan,
    index,
    rid: int,
    tokens,
    scores,
    counters: CostCounters,
    out: list[MatchPair],
    cut: float = 0.0,
) -> None:
    """Probe ``index`` with record ``rid``; append its verified pairs.

    Probes the posting lists of ``tokens``/``scores`` (their entities
    ``>= plan.since`` only, when set), merges them at
    ``T(r, s)`` (lowered by ``cut``, the stopwords variant's bound on
    the weight its unindexed words may add) with the band filter inside
    the merge, then per candidate: map the entity to a rid, orient the
    pair, tick the context, apply the bitmap pruner at the exact pair
    threshold, verify, emit.

    The verify step has no word-signature shortcut (unlike
    :meth:`SetJoinAlgorithm._verify_pair`): a merge candidate shares a
    posting list's token with the probe, hence its signature bit.
    """
    since = plan.since
    lists = (
        index.probe_lists(tokens, scores, since)
        if since
        else index.probe_lists(tokens, scores)
    )
    if not lists:
        return
    bound = plan.bound
    threshold = bound.threshold
    norm = bound.norm
    norm_r = norm(rid)
    order = plan.order
    band = plan.band
    candidates = run_merge(
        plan.merge_mode,
        lists,
        bound.index_threshold(norm_r, index.min_norm) if plan.optmerge else None,
        PairThreshold(threshold, norm_r, plan.norms, cut),
        counters,
        band.acceptor(rid) if band is not None else None,
    )
    pruner = plan.pruner
    entry = None
    if pruner is not None and pruner.controller.active:
        entry = pruner.entry_of(bound, rid)
    else:
        pruner = None
    orient = plan.orient
    offset = plan.offset
    context = plan.context
    verify = bound.verify
    for entity, _weight in candidates:
        sid = entity if order is None else order[entity]
        if orient == LOWER:
            if sid >= rid:
                continue
            rid_a, rid_b = sid, rid
        elif orient == CANONICAL:
            rid_a, rid_b = (sid, rid) if sid < rid else (rid, sid)
        elif orient == PROBE_FIRST:
            rid_a, rid_b = rid, sid
        else:
            rid_a, rid_b = sid, rid
        if context is not None:
            context.tick(counters, check_memory=False)
        if pruner is not None and pruner.controller.active:
            pair_threshold = pruner.const_threshold
            if pair_threshold is None:
                pair_threshold = threshold(norm_r, norm(sid))
            if pruner.rejects(entry, sid, pair_threshold, counters):
                continue
        counters.pairs_verified += 1
        ok, similarity = verify(rid_a, rid_b)
        if ok:
            out.append(MatchPair(rid_a, rid_b - offset, similarity))
