"""Incremental similarity-index service.

The paper's introduction motivates set joins with DBMSs that must serve
similarity *queries* over set-valued columns, not only batch joins.
This module packages the online probe as a service: add records one at
a time, query any record-shaped set against everything added so far,
and save the whole index as one mapped file, which loads back into a
mutable index or serves straight off the mapping. Each query runs the
batch joins' per-probe kernel (:func:`~repro.core.base.probe_kernel`):
the same merge-backend dispatch, band filter, bitmap pruner and
verification.
An ``add`` only appends, so a query can also extend an earlier answer
by probing just the records appended since (``query(since=)``) — how
``IndexServer`` keeps its cached answers across adds.
"""

from __future__ import annotations

import copy
import itertools
import json
import threading
from array import array
from collections.abc import Sequence
from contextlib import contextmanager

# Unused here: perfbench's serve tracer patches these two names on this module.
from repro.core.accumulator import accumulate_merge_opt  # noqa: F401
from repro.core.accumulator import resolve_merge_backend
from repro.core.base import PROBE_LAST, ProbePlan, probe_kernel
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.merge_opt import merge_opt  # noqa: F401
from repro.core.records import Dataset, record_ids
from repro.core.results import MatchPair
from repro.filters.bitmap import resolve_bitmap_filter
from repro.filters.pruner import BitmapPruner
from repro.predicates.base import SimilarityPredicate
from repro.runtime.errors import (
    ConcurrentMutation,
    ReadOnlyIndex,
    SnapshotCorrupted,
    SnapshotEncodingError,
)
from repro.runtime.rwlock import RWLock
from repro.runtime.snapshot import canonical_json
from repro.storage.mmap_index import (
    MappedDataset,
    MappedInvertedIndex,
    mapped_column,
    write_index,
)
from repro.utils.counters import CostCounters

__all__ = ["QueryAnswer", "SimilarityIndex"]

#: ``meta["kind"]`` of a saved index file, and its serving sections.
_SNAPSHOT_KIND = "similarity-index"
_SECTIONS = ("records_tokens", "records_offsets", "payloads", "payload_offsets", "vocab")

#: Every bind stamp in the process: no two binds, of one index or of
#: two (a shard generation and its successor), ever share one.
_BINDINGS = itertools.count(1)


class QueryAnswer(list):
    """A query's matches (a ``list[MatchPair]``) and the index state
    they answer — what :meth:`SimilarityIndex.query` returns.

    Attributes:
        records: how many records the probe saw; every pair's
            ``rid_b`` (the probe's temporary rid).
        binding: the index's :attr:`SimilarityIndex.binding` then.
        extendable: True when every probe token was in the vocabulary.
            Only such an answer can be extended past later ``add`` calls
            (``query(..., since=answer)``): an unknown token's ephemeral
            id depends on the vocabulary size, and predicates keyed by
            token id (``CosinePredicate(stats=)``, a
            ``WeightedOverlapPredicate`` mapping) may score it
            differently once that moves.
    """

    __slots__ = ("records", "binding", "extendable")

    def __init__(self, pairs=(), records=0, binding=0, extendable=True):
        super().__init__(pairs)
        self.records = records
        self.binding = binding
        self.extendable = extendable


class _ProbeView:
    """Read-only :class:`Dataset` facade: shared records plus one probe.

    Queries score the probe record as if it were record ``len(base)``
    without ever touching the shared dataset; corpus statistics
    (``frequency``, and anything predicates captured at bind time) stay
    those of the indexed corpus — the documented frozen-stats service
    semantics.
    """

    __slots__ = ("_base", "_record", "_payload", "_n")

    def __init__(self, base: Dataset, record: tuple[int, ...], payload):
        self._base = base
        self._record = record
        self._payload = payload
        self._n = len(base)

    def __len__(self) -> int:
        return self._n + 1

    def __getitem__(self, rid: int) -> tuple[int, ...]:
        if rid == self._n:
            return self._record
        return self._base.records[rid]

    @property
    def vocabulary(self):
        return self._base.vocabulary

    @property
    def frequency(self):
        return self._base.frequency

    def payload(self, rid: int):
        if rid == self._n:
            return self._payload
        return self._base.payload(rid)


class _CacheOverlay:
    """Per-record cache list with a private slot for the probe record.

    Reads and (idempotent, memoizing) writes for indexed records go to
    the shared list — concurrent queries memoize identical values, so
    those races are benign — while the probe's slot lives only in this
    overlay and dies with the query.
    """

    __slots__ = ("_base", "_n", "_tail")

    def __init__(self, base: list):
        self._base = base
        self._n = len(base)
        self._tail = [None]

    def __len__(self) -> int:
        return self._n + 1

    def __getitem__(self, i: int):
        if i >= self._n:
            return self._tail[i - self._n]
        return self._base[i]

    def __setitem__(self, i: int, value) -> None:
        if i >= self._n:
            self._tail[i - self._n] = value
        else:
            self._base[i] = value


#: The bound predicate's per-record caches a probe clone overlays.
_PER_RECORD_CACHES = (
    "_score_vectors", "_norms", "_score_maps", "_signatures", "_band_keys"
)


def _untagged_payload(path: str, entry, codec):
    """The payload a saved ``["json", value]`` / ``["codec", text]``
    entry holds (the inverse of ``SimilarityIndex._tagged_payload``)."""
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or entry[0] not in ("json", "codec")
        or (entry[0] == "codec" and not isinstance(entry[1], str))
    ):
        raise SnapshotCorrupted(
            path, "payload entry is not a tagged [kind, value] pair"
        )
    tag, value = entry
    if tag == "json":
        return value
    if codec is None:
        raise SnapshotEncodingError(
            f"snapshot {path!r} contains codec-encoded payloads;"
            " pass the codec used at save time"
        )
    return codec.decode(value)


def _probe_bound(base_bound, record: tuple[int, ...], payload):
    """A disposable bound-predicate clone covering the probe record.

    Shares the base bound's bind-time statistics and memoized caches by
    reference (reads of indexed records stay cached across queries) but
    redirects the dataset to a :class:`_ProbeView` and the probe's cache
    slot to a private overlay, so scoring the probe mutates nothing
    shared. The band-key cache is overlaid the same way: the base keys
    already cover every indexed record (filled under the write lock),
    so the clone computes exactly one key — the probe's.
    """
    clone = copy.copy(base_bound)
    clone.dataset = _ProbeView(base_bound.dataset, record, payload)
    for name in _PER_RECORD_CACHES:
        setattr(clone, name, _CacheOverlay(getattr(base_bound, name)))
    if clone.band_radius is not None:
        probe_rid = len(clone.dataset) - 1
        clone._band_keys[probe_rid] = clone.band_key(probe_rid)
    return clone


class SimilarityIndex:
    """A growable index answering similarity queries exactly.

    Args:
        predicate: the join condition queries are evaluated under.
        tokenizer: optional callable turning raw strings into token
            lists; when given, ``add``/``query`` accept strings.
        lock: reader–writer lock guarding the shared state; the default
            :class:`~repro.runtime.rwlock.RWLock` makes the instance
            thread-safe. Pass
            :class:`~repro.runtime.rwlock.NullRWLock` only for
            single-threaded use where lock overhead matters.
        merge_backend: probe-merge engine — ``"heap"``,
            ``"accumulator"``, or the adaptive default ``"auto"`` (see
            :mod:`repro.core.accumulator`). Each probe accumulates into
            its own per-call dict, so concurrent queries share nothing.

    Notes:
        Predicates whose scores depend on corpus statistics (TF-IDF
        cosine) are rebound as the corpus grows only when ``rebind()``
        is called; for streaming use, prefer corpus-independent
        predicates or pass precomputed ``stats``.

        Queries only see pairs sharing a token: under Hamming (edit
        distance) answers are exact for records longer than ``k``
        (strings longer than ``short_string_cutoff()``); the short
        corner that ``hamming_join``/``edit_distance_join`` brute-force
        is not covered.

    Concurrency:
        ``query`` never mutates shared state — the probe record is
        scored against a read-only dataset view — so any number of
        queries run in parallel under the lock's read side, while
        ``add``/``rebind`` (and ``save``'s consistent read) coordinate
        through it. Re-entry from the same thread (e.g. a tokenizer or
        codec that calls back into the service) cannot be served without
        deadlock or corruption and raises
        :class:`~repro.runtime.errors.ConcurrentMutation`; the same
        error doubles as a last-resort invariant check that trips when
        overlapping operations are *observed* despite a missing lock
        (see ``NullRWLock``).
    """

    def __init__(
        self,
        predicate: SimilarityPredicate,
        tokenizer=None,
        lock=None,
        bitmap_filter=None,
        merge_backend=None,
        vocabulary: dict[str, int] | None = None,
    ):
        self.predicate = predicate
        self.tokenizer = tokenizer
        self.merge_backend = resolve_merge_backend(merge_backend)
        #: ``vocabulary=`` lets several indexes share one token-id space
        #: (mirroring ``Dataset.from_token_lists``): the sharded serving
        #: tier partitions records across indexes but needs one token to
        #: mean one id everywhere for scores to be globally comparable.
        #: Callers sharing a vocabulary must serialize their mutations
        #: (the sharded server funnels every ``add`` through one lock).
        self._vocabulary: dict[str, int] = (
            vocabulary if vocabulary is not None else {}
        )
        self._dataset = Dataset([], vocabulary=self._vocabulary, payloads=[])
        self._bound = None
        self._index = ScoredInvertedIndex()
        self.counters = CostCounters()
        self._rwlock = lock if lock is not None else RWLock()
        self._local = threading.local()
        self._counters_lock = threading.Lock()
        #: Name of the mutation currently holding the write side, if any
        #: — the invariant the ConcurrentMutation guard checks.
        self._in_flight: str | None = None
        #: Bitmap candidate filter (:mod:`repro.filters`): one pruner
        #: maintained alongside the inverted index — grown on every
        #: ``add``, rebuilt on ``rebind`` and on ``load``. None
        #: while the filter is off, the index is empty, or the predicate
        #: declares no soundness argument for it.
        self._bitmap_config = resolve_bitmap_filter(bitmap_filter)
        self._pruner: BitmapPruner | None = None
        #: Bind stamp, drawn afresh by every bind (``rebind`` and the
        #: first ``add``); 0 while unbound. Caches key on it and
        #: ``query(since=)`` extends only same-stamp answers.
        self._binding = 0
        #: True for instances restored with ``load(..., mmap=True)``:
        #: the index *is* the write-once mapped file, so mutations raise
        #: :class:`~repro.runtime.errors.ReadOnlyIndex`.
        self._read_only = False
        #: The file ``load`` read this index from; None when built.
        self._source: str | None = None

    @property
    def binding(self) -> int:
        """Bind stamp; moves on ``rebind``, not on ``add``.

        While it stands, ``add`` only appends: no indexed record's
        scores, norm or band key change (statistics stay frozen until
        ``rebind``), so an answer stays exact for the records it saw
        and ``query(item, since=answer)`` extends it. No other bind in
        the process, of this index or another, draws the same stamp.
        """
        return self._binding

    @contextmanager
    def _no_reentry(self, operation: str):
        """Reject same-thread re-entry before it can touch the lock."""
        prior = getattr(self._local, "operation", None)
        if prior is not None:
            raise ConcurrentMutation(operation, prior)
        self._local.operation = operation
        try:
            yield
        finally:
            self._local.operation = None

    @contextmanager
    def _read_locked(self, operation: str):
        """Shared-mode guard for operations that only read state."""
        with self._no_reentry(operation):
            with self._rwlock.read_locked():
                in_flight = self._in_flight
                if in_flight is not None:
                    # Unreachable under a real RWLock; trips when a
                    # missing lock lets a mutation overlap this read.
                    raise ConcurrentMutation(operation, in_flight)
                yield

    @contextmanager
    def _write_locked(self, operation: str):
        """Exclusive-mode guard for operations that mutate state."""
        with self._no_reentry(operation):
            with self._rwlock.write_locked():
                in_flight = self._in_flight
                if in_flight is not None:
                    raise ConcurrentMutation(operation, in_flight)
                if self._rwlock.active_readers:
                    raise ConcurrentMutation(operation, "query")
                self._in_flight = operation
                try:
                    yield
                finally:
                    self._in_flight = None

    def __len__(self) -> int:
        return len(self._dataset)

    # ------------------------------------------------------------------

    def _tokens_of(self, item) -> list[str]:
        if self.tokenizer is not None and isinstance(item, str):
            return list(self.tokenizer(item))
        return [str(token) for token in item]

    def _probe_record_of(
        self, tokens: Sequence[str], counters: CostCounters
    ) -> tuple[int, ...]:
        """Token ids for a *probe* record, without touching the vocabulary.

        Tokens the index has never seen are **not** silently dropped:
        each distinct unknown token gets an ephemeral id past the end of
        the vocabulary, so it still contributes to the probe's norm
        (set size / total weight) exactly as an indexed-but-unmatched
        token would — dropping them would inflate Jaccard/Dice scores.
        Ephemeral ids have no posting lists and can never match.
        The number of distinct unknown tokens is recorded in
        ``counters.unknown_query_tokens`` so operators can observe
        vocabulary drift between the indexed corpus and live queries.
        """
        ids = set()
        ephemeral: dict[str, int] = {}
        for token in tokens:
            token_id = self._vocabulary.get(token)
            if token_id is None:
                token_id = ephemeral.get(token)
                if token_id is None:
                    token_id = len(self._vocabulary) + len(ephemeral)
                    ephemeral[token] = token_id
            ids.add(token_id)
        counters.unknown_query_tokens += len(ephemeral)
        return tuple(sorted(ids))

    def rebind(self) -> None:
        """Recompute predicate statistics over the current corpus.

        Also rebuilds the inverted index with the refreshed scores:
        entries inserted before the rebind carry the statistics that
        were current *at insert time*, and probing them with a freshly
        bound predicate could silently drop true matches for
        corpus-dependent predicates (TF-IDF cosine, weighted overlap).
        """
        if self._read_only:
            raise ReadOnlyIndex("rebind", self._index.path)
        with self._write_locked("rebind"):
            self._rebind()
            self._index = self._build_index(self._bound, self.counters)
            self._pruner = self._new_pruner()

    def _rebind(self) -> None:
        """Bind afresh, filling the norm and band-key caches while no
        reader can see it."""
        self._bound = self.predicate.bind(self._dataset)
        self._bound.filled_norms()
        self._bound.band_filter()
        self._binding = next(_BINDINGS)

    def _build_index(self, bound, counters=None) -> ScoredInvertedIndex:
        """Every record inserted under ``bound``'s scores."""
        index = ScoredInvertedIndex()
        for rid in range(len(self._dataset)):
            index.insert(
                rid,
                self._dataset[rid],
                bound.cached_score_vector(rid),
                bound.norm(rid),
                counters,
            )
        return index

    def _ensure_bound(self):
        if self._bound is None:
            self._rebind()
        else:
            self._bound.extend_to(len(self._dataset))
        return self._bound

    def _new_pruner(self) -> BitmapPruner | None:
        """A pruner over the current records (write-locked callers, or a
        load not yet shared)."""
        if self._bitmap_config is None or self._bound is None:
            return None
        return BitmapPruner.for_join(self._bound, self._bitmap_config)

    def bitmap_state(self) -> dict | None:
        """Filter introspection for the health endpoint (None when off)."""
        if self._bitmap_config is None:
            return None
        pruner = self._pruner
        state = {
            "width": self._bitmap_config.width,
            "signatures": len(pruner.store) if pruner is not None else 0,
        }
        if pruner is not None:
            state["controller"] = pruner.controller.state()
        return state

    # ------------------------------------------------------------------

    def add(self, item, payload=None) -> int:
        """Insert a record; returns its rid."""
        if self._read_only:
            raise ReadOnlyIndex("add", self._index.path)
        with self._write_locked("add"):
            record = record_ids(self._tokens_of(item), self._vocabulary)
            rid = len(self._dataset)
            self._dataset.records.append(record)
            self._dataset.payloads.append(payload if payload is not None else item)
            self._dataset._frequency = None  # invalidate cached stats
            bound = self._ensure_bound()
            self._index.insert(
                rid, record, bound.cached_score_vector(rid), bound.norm(rid), self.counters
            )
            if self._pruner is not None:
                self._pruner.grow(bound)
            else:
                self._pruner = self._new_pruner()
            return rid

    def query(
        self, item, context=None, since: QueryAnswer | None = None
    ) -> QueryAnswer:
        """All indexed records matching ``item`` under the predicate.

        The probe item gets the temporary rid ``len(self)`` (it is not
        inserted); returned pairs carry ``rid_a`` = matched record and
        ``rid_b`` = that temporary rid, in ``rid_a`` order. Shared
        state is never mutated, so queries from many threads run
        concurrently.

        Args:
            context: optional
                :class:`~repro.runtime.context.JoinContext` checked at
                query start and then once per verified candidate, so a
                deadline or cancellation interrupts even a pathological
                probe mid-merge (:class:`JoinTimeout` /
                :class:`JoinCancelled`).
            since: an earlier answer of this index to the same
                ``item``. When it is extendable and the index was not
                rebound since, only the records appended after it are
                probed (the tails of the posting lists): the answer is
                its pairs with ``rid_b`` restated, then the new
                matches — exactly what a full probe returns, since
                appends change no indexed record. Otherwise the probe
                is a full one.
        """
        with self._read_locked("query"):
            counters = CostCounters()
            try:
                return self._query(item, counters, context, since)
            finally:
                with self._counters_lock:
                    self.counters.merge(counters)

    def _query(
        self, item, counters: CostCounters, context, since: QueryAnswer | None
    ) -> QueryAnswer:
        if context is not None:
            context.start()
            context.tick(counters, check_memory=False)
        tokens = self._tokens_of(item)
        record = self._probe_record_of(tokens, counters)
        counters.probes += 1
        probe_rid = len(self._dataset)
        matches = QueryAnswer(
            (), probe_rid, self._binding, counters.unknown_query_tokens == 0
        )
        start = 0
        if (
            since is not None
            and since.extendable
            and since.binding == self._binding
            and since.records <= probe_rid
        ):
            start = since.records
            matches.extend(
                MatchPair(pair.rid_a, probe_rid, pair.similarity) for pair in since
            )
        if start == probe_rid:
            return matches
        base_bound = self._bound
        if base_bound is None:
            # Cold path: records exist but no bound yet (cannot happen
            # through the public API). Bind locally; do not publish —
            # the read side must stay mutation-free.
            base_bound = self.predicate.bind(self._dataset)
            base_bound.band_filter()
        bound = _probe_bound(base_bound, record, item)
        plan = ProbePlan(
            bound,
            self.merge_backend,
            orient=PROBE_LAST,
            pruner=self._pruner,
            context=context,
            since=start,
            indexed=base_bound,
        )
        probe_kernel(
            plan, self._index, probe_rid, record,
            bound.cached_score_vector(probe_rid), counters, matches,
        )
        return matches

    def payload(self, rid: int):
        return self._dataset.payload(rid)

    def export_records(self, start: int = 0) -> list[tuple[list[str], object]]:
        """Point-in-time copy of ``(tokens, payload)`` from ``start`` on.

        Taken under the read lock, so the slice is consistent against
        concurrent ``add``s. A record's tokens are derived from its ids:
        one token per distinct id, in id order. Feeding each pair back
        through ``add(tokens, payload=payload)`` (token lists bypass the
        tokenizer) rebuilds the records with the same token ids in an
        index sharing this one's vocabulary — the seam the zero-downtime
        generation builder uses to snapshot a shard and to catch up the
        adds that landed while it was building. A loaded record naming
        a token id outside the vocabulary raises
        :class:`~repro.runtime.errors.SnapshotCorrupted`.
        """
        with self._read_locked("export"):
            tokens_by_id = self._tokens_by_id()
            exported = []
            for rid in range(start, len(self._dataset)):
                try:
                    tokens = [tokens_by_id[tid] for tid in self._dataset[rid]]
                except KeyError as exc:
                    raise SnapshotCorrupted(
                        self._source, f"record {rid} has no token for id {exc}"
                    ) from None
                exported.append((tokens, self._dataset.payload(rid)))
            return exported

    def _tokens_by_id(self) -> dict[int, str]:
        # A copy: shards share one vocabulary, which another shard's
        # ``add`` can grow while this index reads it.
        return {tid: token for token, tid in self._vocabulary.copy().items()}

    def counters_snapshot(self) -> dict:
        """A consistent plain-dict copy of the cost counters.

        Taken under the read lock (excludes writers) and the counters
        lock (excludes in-flight query merges), so the numbers are a
        coherent point-in-time view — the health endpoint's source.
        """
        with self._read_locked("stats"):
            with self._counters_lock:
                return self.counters.as_dict()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @staticmethod
    def _tagged_payload(rid: int, payload, codec) -> list:
        """A saved ``["json", value]`` / ``["codec", text]`` payload entry."""
        try:
            canonical_json(payload)
        except SnapshotEncodingError:
            if codec is None:
                raise SnapshotEncodingError(
                    f"payload of record {rid} ({type(payload).__name__})"
                    " is not JSON-representable; pass codec= to"
                    " SimilarityIndex.save/load to round-trip it"
                ) from None
            encoded = codec.encode(payload)
            if not isinstance(encoded, str):
                raise SnapshotEncodingError(
                    f"codec.encode must return str, got"
                    f" {type(encoded).__name__} for record {rid}"
                )
            return ["codec", encoded]
        return ["json", payload]

    def save(self, path: str, codec=None, fs=None) -> None:
        """Crash-safely write the index to ``path`` as a mapped file.

        The file is the columnar :mod:`repro.storage.mmap_index` format:
        the posting columns plus records (token ids), payloads and the
        vocabulary as named, checksummed sections. It materializes under
        ``<path>.tmp`` and lands by fsync + atomic rename, so a crash at
        any point leaves the previous file loadable. Postings come from
        a *fresh* predicate bind — what :meth:`load` computes — so both
        loads answer exactly as a rebound copy of this index would, even
        when its live postings carry insert-time scores. Runs under the
        read lock: concurrent queries proceed, concurrent
        ``add``/``rebind`` wait.

        Args:
            codec: optional payload codec with ``encode(payload) -> str``
                and ``decode(text) -> payload`` for payloads JSON cannot
                represent. Without one, a non-JSON payload raises
                :class:`~repro.runtime.errors.SnapshotEncodingError`
                instead of being silently coerced (and lost) as ``str``.
            fs: filesystem shim for fault injection in tests.
        """
        with self._read_locked("save"):
            n = len(self._dataset)
            index = self._build_index(
                self.predicate.bind(self._dataset) if n else None
            )
            record_tokens = array("q")
            record_offsets = array("q", [0])
            payload_blob = bytearray()
            payload_offsets = array("q", [0])
            for rid in range(n):
                record_tokens.extend(self._dataset[rid])
                record_offsets.append(len(record_tokens))
                entry = self._tagged_payload(rid, self._dataset.payload(rid), codec)
                payload_blob += _compact_json(entry)
                payload_offsets.append(len(payload_blob))
            tokens_by_id = self._tokens_by_id()
            vocab_by_id = [tokens_by_id[tid] for tid in range(len(tokens_by_id))]
            write_index(
                path,
                index,
                sections=[
                    ("records_tokens", record_tokens.tobytes()),
                    ("records_offsets", record_offsets.tobytes()),
                    ("payloads", bytes(payload_blob)),
                    ("payload_offsets", payload_offsets.tobytes()),
                    ("vocab", _compact_json(vocab_by_id)),
                ],
                meta={"kind": _SNAPSHOT_KIND},
                fs=fs,
            )

    @classmethod
    def load(
        cls,
        path: str,
        predicate: SimilarityPredicate,
        tokenizer=None,
        codec=None,
        lock=None,
        bitmap_filter=None,
        merge_backend=None,
        mmap: bool = False,
    ) -> "SimilarityIndex":
        """Restore an index written by :meth:`save`.

        Raises :class:`~repro.runtime.errors.SnapshotCorrupted` when the
        file is damaged, tampered with, of a foreign format, or its
        sections are malformed — never a bare ``KeyError``. A file whose
        payloads were written with a codec requires the same ``codec``
        here (:class:`~repro.runtime.errors.SnapshotEncodingError`
        otherwise). Both loads read the file's sections through one
        reader, so they agree on every token id (the ``vocab`` section)
        and answer every query bit-identically; neither reads the
        ``token_lists`` sections of files earlier versions wrote.

        By default the records, payloads (in one pass) and vocabulary are
        read into a mutable index, the mapping is closed, and the
        predicate is bound afresh over the records and the postings
        rebuilt. With ``bitmap_filter=`` the signatures are rebuilt from
        the records too. The restored instance is not shared until this
        returns, so restoration itself needs no locking.

        With ``mmap=True`` the file stays memory-mapped: the inverted
        index *is* the file's posting columns (nothing is rebuilt — open
        time is independent of posting volume, plus one band key per
        record for band-filter predicates; resident memory is the
        directory plus whatever postings queries touch), and the mapping
        is shared read-only across threads and fork'd worker processes.
        The instance is read-only — ``add``/``rebind`` raise
        :class:`~repro.runtime.errors.ReadOnlyIndex` — payloads decode on
        access, and ``bitmap_filter`` is unsupported (signatures are not
        stored in the file; passing one raises ``ValueError``). Call
        :meth:`close` to drop the mapping.
        """
        if mmap and bitmap_filter is not None:
            raise ValueError(
                "bitmap_filter cannot be combined with mmap=True:"
                " signatures are not stored in the mapped file (load"
                " without mmap to rebuild them)"
            )
        index, vocabulary, records, payloads = _open_saved(path, codec)
        try:
            service = cls(
                predicate,
                tokenizer=tokenizer,
                lock=lock,
                bitmap_filter=bitmap_filter,
                merge_backend=merge_backend,
                vocabulary=vocabulary,
            )
            service._source = path
            if mmap:
                service._dataset = MappedDataset(records, vocabulary, payloads)
                service._index = index
                service._read_only = True
                service._rebind()
                index.attach_counters(service.counters)
                return service
            service._dataset.records.extend(records)
            service._dataset.payloads.extend(_all_payloads(path, index, payloads, codec))
        except BaseException:
            index.close()
            raise
        # Drop the views into the mapping first, so closing it unmaps.
        del records, payloads
        index.close()
        service._rebind()
        service._index = service._build_index(service._bound, service.counters)
        service._pruner = service._new_pruner()
        return service

    def close(self) -> None:
        """Release the mapped file behind a ``load(mmap=True)`` instance.

        No-op for a regular in-memory service. In-flight posting views
        keep the mapping alive until they are garbage-collected, so a
        concurrent query cannot be yanked mid-merge.
        """
        release = getattr(self._index, "close", None)
        if release is not None:
            release()


def _compact_json(value) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def _json_entry(path: str, raw, what: str):
    """One JSON value of a section slice; a typed error when it is not."""
    try:
        return json.loads(bytes(raw))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorrupted(path, f"{what} is not valid JSON: {exc}") from exc


def _all_payloads(path: str, index, payloads, codec) -> list:
    """Every payload in one left-to-right parse of the section, each entry
    ending at its offset (``save`` writes ASCII, where chars are bytes)."""
    section = bytes(index.section("payloads"))
    offsets = index.section("payload_offsets").cast("q")
    if not section.isascii():
        return list(payloads)
    text, decode, entries = section.decode(), json.JSONDecoder().raw_decode, []
    for rid in range(len(payloads)):
        try:
            entry, end = decode(text, offsets[rid])
        except json.JSONDecodeError:
            end = None
        if end != offsets[rid + 1]:
            raise SnapshotCorrupted(path, f"payload entry {rid} is not one JSON value")
        entries.append(_untagged_payload(path, entry, codec))
    return entries


def _open_saved(path: str, codec):
    """Map a :meth:`SimilarityIndex.save` file and validate its serving
    sections: ``(index, vocabulary, records, payloads)``, the last two
    lazy per-record columns over the mapping; other sections are unread.

    The caller owns the returned index (and closes it); on any error it
    is closed here.
    """
    index = MappedInvertedIndex.open(path)
    try:
        if index.meta.get("kind") != _SNAPSHOT_KIND:
            raise SnapshotCorrupted(
                path,
                "mapped file carries no serving state; it was not"
                " written by SimilarityIndex.save",
            )
        missing = [name for name in _SECTIONS if not index.has_section(name)]
        if missing:
            raise SnapshotCorrupted(path, f"missing serving sections {missing}")
        vocab_by_id = _json_entry(path, index.section("vocab"), "'vocab' section")
        if not isinstance(vocab_by_id, list) or not all(
            isinstance(token, str) for token in vocab_by_id
        ):
            raise SnapshotCorrupted(path, "'vocab' section is not a list of strings")
        vocabulary = {token: tid for tid, token in enumerate(vocab_by_id)}
        if len(vocabulary) != len(vocab_by_id):
            raise SnapshotCorrupted(path, "'vocab' holds duplicate tokens")

        def decode_payload(raw):
            entry = _json_entry(path, raw, "payload entry")
            return _untagged_payload(path, entry, codec)

        records = mapped_column(
            index, "records_tokens", "records_offsets", tuple, int64=True
        )
        payloads = mapped_column(index, "payloads", "payload_offsets", decode_payload)
        if not (len(records) == len(payloads) == index.n_entities):
            raise SnapshotCorrupted(
                path,
                f"serving sections disagree: {len(records)} records,"
                f" {len(payloads)} payloads, {index.n_entities} indexed entities",
            )
    except BaseException:
        index.close()
        raise
    return index, vocabulary, records, payloads
