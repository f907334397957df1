"""Machine-independent work counters.

The paper reports wall-clock seconds on 2004 hardware. A pure-Python
reproduction cannot match those absolute numbers, so every algorithm in
this package additionally counts the abstract work it performs. The
counters below are the quantities the paper's complexity analysis is
phrased in (heap pops for the merge, generated pairs for Pair-Count,
candidate verifications, ...), which makes the *shape* of each experiment
reproducible on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["CostCounters"]


@dataclass
class CostCounters:
    """Work performed by one join execution.

    Attributes:
        probes: number of index probes (one per probing record).
        heap_pops: RIDs popped from the merge heap.
        heap_pushes: RIDs pushed into the merge heap.
        list_items_touched: posting-list entries consumed by merging.
        binary_searches: doubling binary searches into long lists.
        candidates_checked: candidate records examined against the
            threshold (after merging / searching).
        pairs_generated: RID pairs materialized (Pair-Count) or implied
            by word groups (Word-Groups).
        pairs_verified: candidate pairs verified by an exact
            overlap/similarity computation.
        pairs_output: result pairs emitted.
        index_entries: posting entries inserted into inverted indexes.
        peak_pair_table: high-water mark of the Pair-Count aggregation
            table (the paper's memory bottleneck for that algorithm).
        itemsets_generated: candidate itemsets generated (Word-Groups).
        clusters_created: clusters created (Probe-Cluster / ClusterMem).
        cluster_probes: per-cluster fine-grained index probes.
        disk_appends: records appended to the pInfo disk store.
        disk_reads: records fetched back from the record store.
        records_scanned: record-granularity runtime checks performed by
            the driver loop (one per scanned record under a
            :class:`~repro.runtime.context.JoinContext`).
        checkpoint_writes: progress checkpoints flushed to disk.
        unknown_query_tokens: probe tokens outside the index vocabulary
            observed by :meth:`~repro.core.service.SimilarityIndex.query`.
            A rising rate signals vocabulary drift between the indexed
            corpus and live query traffic (time to re-index or rebind).
        bitmap_checks: candidate pairs tested by the bitmap signature
            filter (:mod:`repro.filters`). Deliberately excluded from
            :meth:`total_work` — a check is a popcount, far cheaper
            than the verification it replaces, and weighting it 1:1
            would make filtered runs gate *worse* than unfiltered.
        bitmap_rejects: candidate pairs the bitmap filter proved
            non-matching; these skip verification entirely and are not
            counted in ``pairs_verified``.
        accum_writes: first touches of a score-accumulator slot per
            probe (:mod:`repro.core.accumulator`) — the number of
            distinct candidate entities the accumulator backend
            materialized. Excluded from :meth:`total_work`: every
            write is already counted as a ``list_items_touched`` entry,
            and double-counting would make the accumulator path gate
            against an inflated number.
        accum_scans: posting entries examined by the accumulator
            backend's batch scans, including entries an ``accept``
            filter then discards. Excluded from :meth:`total_work` for
            the same reason as ``accum_writes`` (accepted entries are
            the ``list_items_touched``); kept as its own counter so the
            backend's raw scan volume stays observable.
        gallop_steps: bracket-doubling iterations performed by the
            accumulator backend's galloping searches into the rare-word
            (L) lists. Excluded from :meth:`total_work` —
            ``binary_searches`` already counts each search once, at the
            same weight the heap backend pays, keeping the two
            backends' work directly comparable.
        candidate_rejections_position: candidates killed by the PPJoin
            position filter (:mod:`repro.core.positional_filter`): the
            positional upper bound on their remaining overlap fell
            below the pair threshold mid-scan, so they never reached
            ``candidates_checked``. Excluded from :meth:`total_work` —
            each rejection is an O(1) comparison on a posting entry
            already counted as ``list_items_touched``, and the whole
            point of the filter is to *shrink* the gated work.
        candidate_rejections_suffix: position-filter survivors killed
            by the PPJoin+ suffix filter's divide-and-conquer Hamming
            bound before verification. Excluded from :meth:`total_work`
            for the same reason (the recursion volume stays observable
            as ``suffix_recursions`` in ``extra``).
    """

    probes: int = 0
    heap_pops: int = 0
    heap_pushes: int = 0
    list_items_touched: int = 0
    binary_searches: int = 0
    candidates_checked: int = 0
    pairs_generated: int = 0
    pairs_verified: int = 0
    pairs_output: int = 0
    index_entries: int = 0
    peak_pair_table: int = 0
    itemsets_generated: int = 0
    clusters_created: int = 0
    cluster_probes: int = 0
    disk_appends: int = 0
    disk_reads: int = 0
    records_scanned: int = 0
    checkpoint_writes: int = 0
    unknown_query_tokens: int = 0
    bitmap_checks: int = 0
    bitmap_rejects: int = 0
    accum_writes: int = 0
    accum_scans: int = 0
    gallop_steps: int = 0
    candidate_rejections_position: int = 0
    candidate_rejections_suffix: int = 0
    extra: dict = field(default_factory=dict)

    def merge(self, other: "CostCounters") -> None:
        """Accumulate another counter set into this one (in place)."""
        mine = self.__dict__
        theirs = other.__dict__
        for name in _SUMMED:
            mine[name] += theirs[name]
        if other.peak_pair_table > self.peak_pair_table:
            self.peak_pair_table = other.peak_pair_table
        if other.extra:
            extra = self.extra
            for key, value in other.extra.items():
                extra[key] = extra.get(key, 0) + value

    def as_dict(self) -> dict:
        """Return a plain-dict snapshot (for reports and benchmarks)."""
        values = self.__dict__
        out = {name: values[name] for name in _COUNTED}
        out.update(self.extra)
        return out

    def total_work(self) -> int:
        """A single scalar summarizing merge work (used in bench tables)."""
        return (
            self.heap_pops
            + self.list_items_touched
            + self.binary_searches
            + self.pairs_generated
            + self.pairs_verified
        )


#: Every counter field in declaration order (``as_dict``'s keys), and
#: the ones ``merge`` sums — computed once, not per call.
_COUNTED = tuple(f.name for f in fields(CostCounters) if f.name != "extra")
_SUMMED = tuple(name for name in _COUNTED if name != "peak_pair_table")
