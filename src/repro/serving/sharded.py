"""Sharded scatter-gather serving: N index shards, one exact answer.

:class:`ShardedIndexServer` partitions records across N
:class:`~repro.core.service.SimilarityIndex` shards by stable
record-id hash (:class:`~repro.serving.router.ShardRouter`) and serves
each query scatter-gather: begin every shard's probe at once (a local
one on its shard's worker pool, a remote one as a query frame the
admission worker sends), finish them in one gather, then merge the
per-shard candidates into the exact global result — the paper's §5
record-partition decomposition, applied to the online probe instead of
the batch join.
Because every shard scores with the shared vocabulary (one token = one
id everywhere) and similarity predicates are pair-local once bound, the
merged answer is pair-for-pair identical to a single-index
:class:`~repro.serving.server.IndexServer` over the same corpus —
pinned by ``tests/property/test_sharded_equivalence.py``.

What sharding buys is *fault isolation*, not different answers:

* **Per-shard deadline budgets** — each probe gets a
  :class:`JoinContext` carved from the query's remaining deadline.
* **Per-shard CircuitBreaker / LatencyTracker / QueryCache** — one sick
  shard trips one breaker, skews one latency window, flushes one cache.
* **Hedged probes** — when a shard dawdles past its hedge delay
  (fixed, or derived from that shard's own p99), the probe is re-issued
  and the first completion wins (the loser records nothing); one
  straggler degrades tail latency instead of defining it.
* **Partial results with explicit accounting** — a query that loses
  shards still answers from the survivors:
  :class:`ShardedResult` carries ``shards_ok`` / ``shards_failed`` /
  ``partial``, health tallies both outcomes, and callers that cannot
  accept partial data pass ``require_complete=True`` to get a typed
  :class:`~repro.runtime.errors.PartialResult` instead.
* **Zero-downtime reindex** — :meth:`ShardedIndexServer.reindex` runs a
  :class:`~repro.serving.generation.GenerationBuilder` per shard:
  build off-lock, flip atomically under the shard's writer-preferring
  RWLock, empty only that shard's cache (the cache stamp is
  ``(flip epoch, index binding)``).
* **Remote shards** — ``shard_endpoints`` swaps any shard's in-process
  index for a :class:`~repro.serving.transport.client.RemoteShardClient`
  speaking the checksummed binary wire protocol to a ``repro
  shard-serve`` node. The shard becomes a *network* fault domain —
  reconnecting connection pool, deadline propagated in the frame
  header, heartbeat pings feeding its breaker — and a lost node
  degrades exactly like a killed local shard, down to the
  ``shards_failed`` accounting.

Admission, the bounded queue, load shedding, drain, and the
completed/failed/shed accounting are inherited verbatim from
:class:`~repro.serving.server._QueueServer` — operationally this tier
behaves exactly like the single-index server, scaled out.
"""

from __future__ import annotations

import select
import threading
import time
from collections.abc import Callable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass

from repro.core.results import MatchPair
from repro.core.service import SimilarityIndex
from repro.runtime.context import JoinContext
from repro.runtime.errors import (
    CircuitOpen,
    JoinRuntimeError,
    JoinTimeout,
    PartialResult,
    ReindexTimeout,
    RidDesync,
    ShardUnavailable,
)
from repro.runtime.rwlock import RWLock
from repro.serving.cache import QueryCache, query
from repro.serving.generation import GenerationBuilder, _ReindexGuard
from repro.serving.retry import RetryPolicy
from repro.serving.server import _QueueServer, _Request
from repro.serving.stats import LatencyTracker
from repro.serving.router import ShardRouter
from repro.serving.transport.client import (
    PendingQuery,
    RemoteShardClient,
    finish_dials,
    parse_endpoint,
)

__all__ = ["HedgePolicy", "ShardedIndexServer", "ShardedResult"]

#: Shard-pool sentinel: stop.
_STOP = object()


@dataclass(frozen=True)
class ShardedResult:
    """One sharded query's answer, with completeness made explicit.

    ``matches`` are global: ``rid_a`` is the record's server-wide id
    (stable across flips and shard counts), ``rid_b`` the probe's
    ephemeral rid (= total records, exactly as the single-index server
    reports it), sorted by ``rid_a``. ``partial`` is True iff any shard
    failed; its records are simply absent from ``matches`` — the
    survivors' matches are exact, nothing is interpolated.

    Iterates and indexes like the plain ``list[MatchPair]`` the
    single-index server returns, so complete results drop into existing
    call sites unchanged.
    """

    matches: tuple[MatchPair, ...]
    shards_ok: tuple[int, ...]
    shards_failed: tuple[int, ...]
    partial: bool

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[MatchPair]:
        return iter(self.matches)

    def __getitem__(self, i):
        return self.matches[i]


class HedgePolicy:
    """When to re-issue a straggling shard probe.

    Args:
        delay: fixed hedge delay in seconds; overrides the adaptive
            path entirely when set.
        percentile: which percentile of the *shard's own* latency
            window anchors the adaptive delay.
        multiplier: hedge at ``percentile * multiplier`` — 2× p99 means
            "this probe is already slower than ~every recent probe".
        min_samples: observations a shard needs before its window is
            trusted; below it (and with no fixed ``delay``) probes are
            not hedged — hedging on noise doubles load for nothing.
        floor: lower bound on the adaptive delay, so a microsecond-fast
            shard does not hedge every probe the moment the scheduler
            hiccups.
    """

    def __init__(
        self,
        delay: float | None = None,
        percentile: float = 99.0,
        multiplier: float = 2.0,
        min_samples: int = 16,
        floor: float = 0.001,
    ):
        if delay is not None and delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        if multiplier <= 0:
            raise ValueError(f"multiplier must be > 0, got {multiplier}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if floor < 0:
            raise ValueError(f"floor must be >= 0, got {floor}")
        self.delay = delay
        self.percentile = percentile
        self.multiplier = multiplier
        self.min_samples = min_samples
        self.floor = floor

    def delay_for(self, latency: LatencyTracker) -> float | None:
        """Seconds to wait before hedging, or None (don't hedge)."""
        if self.delay is not None:
            return self.delay
        if latency.count < self.min_samples:
            return None
        anchor = latency.percentile(self.percentile)
        if anchor is None:
            return None
        return max(anchor * self.multiplier, self.floor)


class _ShardPool:
    """A tiny daemon-thread executor, one per *local* shard.

    A local probe computes under the GIL on whatever thread runs it, so
    it runs here rather than on the admission worker: the worker waits
    on its future and can abandon a wedged probe at the deadline. A
    remote shard has no pool — its probe is a socket wait, which the
    admission worker does itself (:meth:`ShardedIndexServer._await_shard`).

    ``concurrent.futures.ThreadPoolExecutor`` joins non-daemon workers
    at interpreter exit, so a probe wedged on a fault-injected sleep
    would wedge process shutdown; these workers are daemons and the
    drain-time join is bounded instead.
    """

    def __init__(self, sid: int, workers: int):
        import queue as _queue

        self._queue: _queue.SimpleQueue = _queue.SimpleQueue()
        self._stopped = False
        self._threads = [
            threading.Thread(
                target=self._run, name=f"shard-{sid}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn) -> Future:
        future: Future = Future()
        self._queue.put((future, fn))
        return future

    def _run(self) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            future, fn = task
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn())
            except BaseException as exc:  # noqa: BLE001 — delivered via future
                future.set_exception(exc)

    def stop(self, join_timeout: float = 1.0) -> None:
        """Idempotent: a second stop (repeated drain) is a no-op."""
        if self._stopped:
            return
        self._stopped = True
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(join_timeout)


class _Shard:
    """One fault domain: an index plus its private operational gear.

    ``rwlock`` guards the *index reference* (not the index's own state,
    which has its own lock): probes grab the reference under the read
    side for an instant, adds hold the read side across the insert, and
    a generation flip takes the write side to swap ``index`` and bump
    ``epoch``. The cache stamp is ``(epoch, index binding)``: a flip
    moves both, as the fresh index binds afresh.

    ``index`` may also be a
    :class:`~repro.serving.transport.client.RemoteShardClient`
    (``remote=True``): it implements the same probe surface, reports
    the node's ``binding``, and the shard then fails as a *network*
    fault domain — connect/transport errors count here exactly like a
    killed local shard. A remote shard has no ``pool``: its probes are
    sent and read by the admission workers.
    """

    __slots__ = (
        "sid", "index", "rwlock", "breaker", "latency", "cache",
        "global_rids", "pool", "epoch", "probes", "hedges", "hedge_wins",
        "failures", "remote", "retries", "heartbeats_ok",
        "heartbeats_failed", "quarantined", "_reindex_guard",
    )

    def __init__(self, sid, index, breaker, cache, pool, remote=False):
        self.sid = sid
        self.index = index
        self.rwlock = RWLock()
        self.breaker = breaker
        self.latency = LatencyTracker(512)
        self.cache = cache
        self.global_rids: list[int] = []
        self.pool = pool
        self.epoch = 0
        self.probes = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.failures = 0
        self.remote = remote
        #: Probe attempts re-issued for this shard (local shards; remote
        #: shards count inside their client — health() unifies the two).
        self.retries = 0
        self.heartbeats_ok = 0
        self.heartbeats_failed = 0
        #: Non-None once the shard's local-rid space has been caught
        #: desynced from the global-rid map: the reason string. A
        #: quarantined shard answers no more probes or adds (counted in
        #: ``shards_failed``) — serving would risk wrongly-mapped pairs.
        self.quarantined: str | None = None
        self._reindex_guard = _ReindexGuard()

    def begin_reindex(self) -> Callable[[], None]:
        return self._reindex_guard.acquire(f"shard {self.sid}")

    @property
    def name(self) -> str:
        return self.index.endpoint if self.remote else f"shard-{self.sid}"

    def current(self):
        """The live index and its cache stamp, read together."""
        with self.rwlock.read_locked():
            index = self.index
            return index, (self.epoch, index.binding)


@dataclass(eq=False, slots=True)
class _Probe:
    """One shard probe, begun by :meth:`ShardedIndexServer._probe_shard`.

    ``pending`` is what the begin started: a local probe's future on its
    shard's pool, or a remote probe's
    :class:`~repro.serving.transport.client.PendingQuery`. The probe
    keeps what the begin read (the cache stamp and vocabulary size its
    answer is stored under, the start of its latency) and ``ready``,
    when its answer became available: stamped by the pool as a local
    probe finishes, by the gather as a remote answer's socket turns
    readable. :meth:`result` is the one place a probe's outcome is
    recorded — on the breaker, the latency window and the cache.
    """

    shard: _Shard
    key: object
    stamp: object
    vocabulary: int
    clock: Callable[[], float]
    context: JoinContext | None
    started: float
    ready: float | None = None
    pending: Future | PendingQuery | None = None

    @property
    def on_wire(self) -> bool:
        """A remote probe whose frame is out (or its dial begun)."""
        return isinstance(self.pending, PendingQuery)

    def result(self) -> list[MatchPair]:
        shard = self.shard
        try:
            if not self.on_wire:
                # A future (a local probe, or a remote begin that failed)
                # still running past the carved deadline is lost.
                context = self.context
                left = context.remaining() if context is not None else None
                wait = None if left is None else max(left, 0.0)
                if not futures_wait((self.pending,), timeout=wait).done:
                    raise JoinTimeout(context.elapsed(), context.deadline_seconds)
            local = self.pending.result()
        except BaseException:
            if shard.breaker is not None:
                shard.breaker.record_failure()
            raise
        if shard.breaker is not None:
            shard.breaker.record_success()
        ready = self.ready if self.ready is not None else self.clock()
        shard.latency.observe(ready - self.started)
        if self.key is not None:
            shard.cache.store(self.key, self.stamp, local, self.vocabulary)
        return local

    def fileno(self) -> int:
        """The remote answer's socket, for ``poll`` (-1: none to wait for)."""
        return self.pending.fileno() if self.on_wire else -1

    def cancel(self) -> None:
        """Drop the probe unfinished (a hedge race's loser), recording
        nothing: a remote one's connection is closed unread, a local
        one still queued never runs."""
        self.pending.cancel()


def _readable(
    racers: list[_Probe], timeout: float | None, watch=(), hold: bool = True
) -> list[_Probe]:
    """The racers whose answer is ready now, waiting up to ``timeout``
    seconds (None: no bound) for the first one.

    One shard's racers are all one kind: futures for a local shard,
    sockets to ``poll`` for a remote one (a remote racer whose begin
    failed is ready at once: reading it raises). Each ``watch`` probe
    (a later shard's unread remote answer) that turns readable meanwhile
    is stamped ``ready`` and dropped from the poll, so its latency ends
    when it arrived, not when the gather reads it. ``hold=False`` stops
    once nothing is left to watch: the caller's read waits for its one
    racer.
    """
    watch = [probe for probe in watch if probe.ready is None and probe.fileno() >= 0]
    if not (watch or hold):
        return []
    if not racers[0].shard.remote:
        done, _ = futures_wait(
            [probe.pending for probe in racers],
            timeout=timeout, return_when=FIRST_COMPLETED,
        )
        return [probe for probe in racers if probe.pending in done]
    ready = [probe for probe in racers if probe.fileno() < 0 or probe.ready is not None]
    until = None if timeout is None else time.monotonic() + timeout
    while not ready:
        waiting = {probe.fileno(): probe for probe in (*racers, *watch)}
        poller = select.poll()
        for fd in waiting:
            poller.register(fd, select.POLLIN)
        left = None if until is None else max(until - time.monotonic(), 0.0) * 1000
        readable = poller.poll(left)
        for fd, _ in readable:
            waiting[fd].ready = waiting[fd].clock()
        watch = [probe for probe in watch if probe.ready is None]
        ready = [probe for probe in racers if probe.ready is not None]
        if not readable or not (watch or hold):
            break
    return ready


class _RemoteReindexHandle(GenerationBuilder):
    """A :class:`GenerationBuilder` whose build and flip run on a remote
    shard's node, through the ``reindex`` wire op.

    Same surface (``start`` / ``wait`` / ``error`` / ``built`` /
    ``caught_up`` / ``flipped`` / ``seconds``), so
    :meth:`ShardedIndexServer.reindex` treats local and remote shards
    uniformly — including :class:`ReindexTimeout`.
    """

    #: Wire round-trip bound for the blocking rebuild op — generous,
    #: because the node rebuilds its whole shard inside it; the
    #: caller's ``wait(timeout)`` still bounds how long *we* block.
    REINDEX_TIMEOUT = 600.0

    def __init__(self, shard: _Shard, clock=time.monotonic):
        super().__init__(shard, None, clock=clock)

    def build_and_flip(self) -> None:
        started = self.clock()
        try:
            with self.shard.rwlock.read_locked():
                client = self.shard.index
            report = client.reindex(timeout=self.REINDEX_TIMEOUT)
            self.built = report.get("built")
            self.caught_up = report.get("caught_up")
            self.flipped = bool(report.get("flipped"))
        finally:
            self.seconds = self.clock() - started


class ShardedIndexServer(_QueueServer):
    """Scatter-gather serving over hash-partitioned index shards.

    Args:
        predicate: the similarity predicate every shard binds. For
            corpus-dependent predicates (TF-IDF cosine) pass precomputed
            ``stats`` in the predicate, or per-shard binding would score
            against per-shard statistics and break global exactness.
        shards: shard count (>= 1).
        tokenizer: forwarded to every shard's index.
        workers: scatter-gather coordinator threads — each owns one
            in-flight query end to end, and itself sends every remote
            shard's query and reads the answers.
        shard_workers: probe threads per *local* shard (remote shards
            have no pool). Hedging a local shard needs >= 2 (the hedge
            must run while the straggler still occupies a slot).
        queue_limit / default_deadline / clock / latency_capacity: as
            :class:`IndexServer`.
        retry_policy: per-*probe* retry policy (transient shard faults
            are retried inside the shard's deadline before the shard is
            declared lost).
        breaker_factory: builds one :class:`CircuitBreaker` per shard;
            None disables breaking.
        query_cache: per-shard cache capacity (0 disables), kept by
            :class:`IndexServer`'s rule: adds extend a shard's answers,
            a flip empties only that shard's cache.
        hedge: a :class:`HedgePolicy`; None disables hedging.
        bitmap_filter / merge_backend: forwarded to every shard's index.
        faults: optional :class:`~repro.runtime.faults.ShardFaults`
            plan, consulted at the top of every probe attempt — the
            chaos-test seam. A remote shard's probe consults it once,
            on the admission worker before its frame is sent, so a
            ``slow`` fault there stalls the whole scatter, past the
            deadline, and is not hedged; a slow node is
            :class:`~repro.runtime.faults.NetworkFaults` ``delay``.
        shard_endpoints: one entry per shard mixing local and remote
            backends: ``None``/``"local"`` builds the usual in-process
            index, ``"host:port"`` (or a ``(host, port)`` tuple)
            attaches a :class:`RemoteShardClient` to a ``repro
            shard-serve`` node. Remote shards keep the whole fault-
            domain kit — breaker, cache, latency window, per-shard
            deadline budget — and degrade under network failure exactly
            like a killed local shard. The front end still owns routing
            and the global-rid map; remote nodes only ever see their
            own records. For corpus-dependent predicates the *nodes*
            must be started with the same global stats/vocabulary this
            server uses (the ``shard-serve`` CLI does this from the
            shared corpus file).
        heartbeat_interval: seconds between background health pings of
            each remote shard (None disables). Heartbeats feed the
            shard's circuit breaker: failures trip it without waiting
            for query traffic, and the ping that finds a recovered node
            is the half-open trial that closes it again. Each remote
            shard is pinged by its own thread, bounded by
            ``remote_request_timeout``. ``drain`` closes the clients
            first, which ends a ping in flight (recorded neither as a
            failed beat nor on the breaker), then waits at most 1 s for
            these threads to stop.
        remote_connect_timeout / remote_request_timeout: forwarded to
            each :class:`RemoteShardClient`, whose idle pool keeps
            ``workers + 1`` connections per node: each admission worker
            holds one for its round trip, plus one for a hedge. Every
            op's dial (query, add, ping, health, reindex) runs
            non-blocking, bounded by the connect timeout and by the
            op's deadline, whichever is sooner; a round trip is bounded
            by the request timeout, which is also the one deadline of
            :meth:`health` across all nodes.
        vocabulary: optional prefilled token-id dict shared by every
            local shard. With remote shards and a corpus-dependent
            predicate this must be the full-corpus assignment: records
            routed to remote nodes never pass through the front end's
            vocabulary, so an empty dict would assign ids in
            subset-arrival order and stop matching the precomputed
            global stats.
    """

    worker_name = "sharded-server"

    def __init__(
        self,
        predicate,
        shards: int = 2,
        tokenizer=None,
        workers: int = 4,
        shard_workers: int = 2,
        queue_limit: int = 64,
        default_deadline: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_factory: Callable[[], object] | None = None,
        clock: Callable[[], float] = time.monotonic,
        latency_capacity: int = 2048,
        query_cache: int = 0,
        hedge: HedgePolicy | None = None,
        bitmap_filter=None,
        merge_backend=None,
        faults=None,
        shard_endpoints=None,
        heartbeat_interval: float | None = None,
        remote_connect_timeout: float = 1.0,
        remote_request_timeout: float | None = 5.0,
        vocabulary: dict[str, int] | None = None,
    ):
        super().__init__(workers, queue_limit, default_deadline, clock, latency_capacity)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_workers < 1:
            raise ValueError(f"shard_workers must be >= 1, got {shard_workers}")
        if query_cache < 0:
            raise ValueError(f"query_cache must be >= 0, got {query_cache}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0 or None, got {heartbeat_interval}"
            )
        endpoints = None
        if shard_endpoints is not None:
            endpoints = list(shard_endpoints)
            if len(endpoints) != shards:
                raise ValueError(
                    f"shard_endpoints must name one backend per shard:"
                    f" got {len(endpoints)} for {shards} shards"
                )
        self.predicate = predicate
        self.tokenizer = tokenizer
        self.router = ShardRouter(shards)
        self.retry_policy = retry_policy
        self.hedge = hedge
        self.faults = faults
        self.n_shard_workers = shard_workers
        self.heartbeat_interval = heartbeat_interval
        self._bitmap_filter = bitmap_filter
        self._merge_backend = merge_backend
        self._remote_connect_timeout = remote_connect_timeout
        self._remote_request_timeout = remote_request_timeout
        #: One token-id space across every shard (see SimilarityIndex's
        #: ``vocabulary=``); mutations are serialized by ``_mutate_lock``.
        self._vocabulary: dict[str, int] = (
            vocabulary if vocabulary is not None else {}
        )
        self._mutate_lock = threading.Lock()
        self._total = 0
        #: global rid -> (shard id, shard-local rid)
        self._locations: list[tuple[int, int]] = []
        self._heartbeat_stop = threading.Event()
        self._heartbeat_threads: list[threading.Thread] = []
        self._shards = []
        for sid in range(shards):
            backend, remote = self._make_backend(
                endpoints[sid] if endpoints is not None else None
            )
            self._shards.append(
                _Shard(
                    sid,
                    backend,
                    breaker_factory() if breaker_factory is not None else None,
                    QueryCache(query_cache) if query_cache else None,
                    None if remote else _ShardPool(sid, shard_workers),
                    remote=remote,
                )
            )
        self._complete_queries = 0
        self._partial_queries = 0
        self._hedges = 0
        self._hedge_wins = 0

    def _make_backend(self, endpoint):
        """Build one shard's backend: a local index or a remote client."""
        if endpoint is None or (
            isinstance(endpoint, str) and endpoint.strip().lower() in ("", "local")
        ):
            return self._make_index(), False
        if isinstance(endpoint, str):
            host, port = parse_endpoint(endpoint.strip())
        else:
            host, port = endpoint
        client = RemoteShardClient(
            host,
            port,
            retry_policy=self.retry_policy,
            pool_size=self.n_workers + 1,
            connect_timeout=self._remote_connect_timeout,
            request_timeout=self._remote_request_timeout,
            on_retry=self._count_retry,
        )
        return client, True

    def _make_index(self) -> SimilarityIndex:
        return SimilarityIndex(
            self.predicate,
            tokenizer=self.tokenizer,
            bitmap_filter=self._bitmap_filter,
            merge_backend=self._merge_backend,
            vocabulary=self._vocabulary,
        )

    def _on_start(self) -> None:
        if self.heartbeat_interval is not None:
            self._heartbeat_stop.clear()
            # One beat per node, so a slow node delays only its own.
            self._heartbeat_threads = [
                threading.Thread(
                    target=self._heartbeat_loop,
                    args=(shard,),
                    name=f"shard-{shard.sid}-heartbeat",
                    daemon=True,
                )
                for shard in self._shards
                if shard.remote
            ]
            for thread in self._heartbeat_threads:
                thread.start()

    def _on_drained(self) -> None:
        # Runs on every drain/stop (possibly repeatedly) — each teardown
        # below is a no-op the second time.
        self._heartbeat_stop.set()
        # Closing a client ends its ops in flight, so a ping held by a
        # slow node ends now rather than at its request timeout.
        for shard in self._shards:
            if shard.remote:
                shard.index.close()
        threads, self._heartbeat_threads = self._heartbeat_threads, []
        until = time.monotonic() + 1.0
        for thread in threads:
            thread.join(timeout=max(until - time.monotonic(), 0.0))
        for shard in self._shards:
            if not shard.remote:
                shard.pool.stop()

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------

    def _heartbeat_loop(self, shard: _Shard) -> None:
        """Ping one remote shard each interval, feeding its breaker.

        The heartbeat is the breaker's trial traffic: consecutive
        failed pings trip the circuit without a query having to die
        for it, and once the cooldown lapses the ping takes the
        half-open trial slot — a recovered node closes its breaker
        within one interval, before any query is risked on it. A ping
        while the circuit is open (cooldown still running) is skipped
        entirely, exactly like a query would be. Every remote shard
        has its own loop: a ping waits up to the request timeout, and
        a slow node must not hold the other nodes' beats that long. A
        ping that drain ended records nothing: it says nothing about
        the node.
        """
        # A remote shard's client is never swapped (it rebuilds in place).
        client, breaker = shard.index, shard.breaker
        while not self._heartbeat_stop.wait(self.heartbeat_interval):
            if shard.quarantined is not None:
                continue
            if breaker is not None:
                try:
                    breaker.admit()
                except CircuitOpen:
                    continue  # cooldown running; recheck next beat
            try:
                client.ping()
                ok = True
            except BaseException:  # noqa: BLE001 — any failure is a miss
                if self._heartbeat_stop.is_set():
                    return
                ok = False
            if breaker is not None:
                (breaker.record_success if ok else breaker.record_failure)()
            with self._cond:
                if ok:
                    shard.heartbeats_ok += 1
                else:
                    shard.heartbeats_failed += 1

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def add(self, item, payload=None) -> int:
        """Insert a record; returns its *global* rid.

        Routed to ``router.shard_of(rid)``. Serialized server-wide (the
        shared vocabulary and the rid counter both need it); the insert
        holds the owning shard's reference lock on the read side, so a
        concurrent generation flip either waits for it or happens
        entirely before — either way the record survives the flip via
        the catch-up replay. A remote insert waits at most one dial
        (``remote_connect_timeout``) plus one round trip
        (``remote_request_timeout``) per attempt of the retry policy.
        """
        with self._mutate_lock:
            rid = self._total
            shard = self._shards[self.router.shard_of(rid)]
            if shard.quarantined is not None:
                raise ShardUnavailable(
                    shard.name, f"quarantined: {shard.quarantined}"
                )
            local = len(shard.global_rids)
            # Mapping rows are appended before the insert: a probe that
            # sees the new record always finds its global rid.
            self._locations.append((shard.sid, local))
            shard.global_rids.append(rid)
            try:
                with shard.rwlock.read_locked():
                    if shard.remote:
                        # Idempotent wire insert: the node dedupes a
                        # retried ADD whose response was lost and
                        # refuses any other rid, so a flaky network
                        # cannot desync its rids from the global map.
                        got = shard.index.add(
                            item, payload=payload, expected_rid=local
                        )
                    else:
                        got = shard.index.add(item, payload=payload)
            except RidDesync as exc:
                # The node refused or botched the verified insert: its
                # rid space no longer lines up with the global map, so
                # stop routing anything to it.
                shard.global_rids.pop()
                self._locations.pop()
                self._quarantine(shard, str(exc))
                raise
            except BaseException:
                shard.global_rids.pop()
                self._locations.pop()
                raise
            if got != local:
                # The shard's local-rid space no longer lines up with
                # the global-rid map; every rid it answers from now on
                # is suspect. Fail loudly and stop using it rather
                # than serve wrongly-mapped pairs.
                shard.global_rids.pop()
                self._locations.pop()
                reason = (
                    f"insert landed at shard-local rid {got},"
                    f" expected {local}"
                )
                self._quarantine(shard, reason)
                raise ShardUnavailable(shard.name, f"rid desync: {reason}")
            self._total += 1
            return rid

    def extend(self, items) -> list[int]:
        """Insert many records; returns their global rids."""
        return [self.add(item) for item in items]

    def __len__(self) -> int:
        return self._total

    def payload(self, rid: int):
        """The payload of global record ``rid`` (parity with the index).

        Raises ``NotImplementedError`` when the record lives on a
        remote shard — payloads are not served over the shard wire.
        """
        sid, local = self._locations[rid]
        shard = self._shards[sid]
        with shard.rwlock.read_locked():
            return shard.index.payload(local)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def submit(
        self,
        item,
        deadline: float | None = None,
        context: JoinContext | None = None,
        require_complete: bool = False,
    ) -> Future:
        """Admit one query; the Future resolves to a :class:`ShardedResult`.

        With ``require_complete=True`` a query that loses any shard
        fails with :class:`~repro.runtime.errors.PartialResult` instead
        of resolving partial.
        """
        return self._admit(item, deadline, context, require_complete=require_complete)

    def query(
        self,
        item,
        deadline: float | None = None,
        timeout: float | None = None,
        require_complete: bool = False,
    ) -> ShardedResult:
        """Synchronous convenience wrapper around :meth:`submit`.

        With a ``deadline`` the answer comes back within it: a shard
        that cannot answer in time is lost for this query, not waited
        for (a remote shard's ``faults`` hook aside, see ``faults``).
        """
        return self.submit(
            item, deadline=deadline, require_complete=require_complete
        ).result(timeout=timeout)

    def _execute(self, request: _Request) -> ShardedResult:
        """Scatter one query over the shards, gather, merge.

        Runs on an admission worker. Each shard's cache is consulted
        first; then every shard that missed has its probe begun
        (:meth:`_probe_shard`), the remote ones first — their QUERY
        frames sent from this thread — then the local ones, handed to
        their pools, so the nodes and the pools all work while this
        thread gathers. The gather (:meth:`_await_shard`) keeps that
        order: it reads each remote answer off its socket here — no
        thread is woken to wait on a socket — and stamps the later
        ones as they arrive, then waits on the local futures.
        """
        context = request.context
        self._check_not_expired(context)
        item = request.item

        # Every shard has a cache, or none does.
        key = QueryCache.key_for(item) if self._shards[0].cache is not None else None

        # Consult each shard's cache (its record count from the
        # global-rid map, which gains a row before the shard gains the
        # record, and the shared vocabulary's size, which any shard's
        # add may grow); the misses and the extensions are probed.
        results: dict[int, list[MatchPair]] = {}
        failed: list[int] = []
        misses: list[tuple[_Shard, object]] = []
        for shard in self._shards:
            if shard.quarantined is not None:
                # A desynced shard is lost for every query — no probe,
                # no cache read — but the accounting stays exact.
                failed.append(shard.sid)
                with self._cond:
                    shard.failures += 1
                continue
            since = None
            if key is not None:
                _, stamp = shard.current()
                answer, since = shard.cache.lookup(
                    key, stamp, len(shard.global_rids), len(self._vocabulary)
                )
                if answer is not None:
                    results[shard.sid] = answer
                    continue
            misses.append((shard, since))

        # Scatter: the remote frames go out first, so the nodes compute
        # while the local probes are handed to their pools.
        misses.sort(key=lambda miss: not miss[0].remote)
        probes: dict[int, object] = {}
        for shard, since in misses:
            try:
                probes[shard.sid] = self._probe_shard(
                    shard, item, self._carve_context(context), key, since
                )
            except Exception as exc:  # noqa: BLE001 — the shard is lost
                probes[shard.sid] = exc
        # A remote shard with no idle connection was only dialed: send
        # its frame once the connection is up, each dial bounded by its
        # own deadline so a node that drops SYNs holds no other shard.
        unread = [
            probe for probe in probes.values()
            if isinstance(probe, _Probe) and probe.on_wire
        ]
        finish_dials(probe.pending for probe in unread)
        with self._cond:
            for shard, _ in misses:
                shard.probes += 1

        # Gather, in the scatter's order, each under the query's
        # remaining deadline and hedged per the shard's own policy.
        for shard, since in misses:
            probe = probes[shard.sid]
            unread = [other for other in unread if other is not probe]
            ok, value = self._await_shard(
                shard, probe, item, context, key, since, unread
            )
            if ok:
                results[shard.sid] = value
            else:
                failed.append(shard.sid)
                with self._cond:
                    shard.failures += 1

        result = self._merge(results, failed)
        with self._cond:
            if result.partial:
                self._partial_queries += 1
            else:
                self._complete_queries += 1
        if result.partial and request.require_complete:
            raise PartialResult(result.shards_failed, len(self._shards), result)
        return result

    def _carve_context(self, context: JoinContext | None) -> JoinContext | None:
        """A per-shard deadline budget carved from the query's remainder.

        The carved context shares the query's cancellation token and
        clock; its deadline is whatever the query has left *now*, so a
        probe can never outlive its query. Anchored immediately — the
        budget starts at scatter, not at the probe's first tick.
        """
        if context is None:
            return None
        remaining = context.remaining()
        if remaining is None:
            return JoinContext(
                cancel_token=context.cancel_token, clock=context.clock
            )
        carved = JoinContext(
            deadline_seconds=max(remaining, 1e-9),
            cancel_token=context.cancel_token,
            clock=context.clock,
        )
        carved.start()
        return carved

    def _probe_shard(self, shard: _Shard, item, context, key, since=None) -> _Probe:
        """Begin one shard's probe; its :meth:`_Probe.result` finishes it.

        The breaker admits the probe here and records its one outcome
        in ``result()``, however many attempts ran inside. A local
        shard's probe is handed to its pool: each attempt runs the
        ``faults`` hook, then the query, under the retry policy. A
        remote shard's probe runs the ``faults`` hook once, here, then
        its QUERY frame is sent (or its dial begun, see
        :func:`~repro.serving.transport.client.finish_dials`); the
        client retries inside ``result()``.

        Either way the answer extends ``since`` when the index can, and
        is stored stamped with the (epoch, binding) pair read when the
        index reference was grabbed here, and with the shared
        vocabulary's size read then too. A flip since the lookup hands
        ``since`` to an index of another binding, which probes in full;
        one after the grab moves the stamp and drops the store.
        """
        if shard.quarantined is not None:
            # Belt-and-braces for probes racing the quarantine moment;
            # the scatter loop already skips quarantined shards.
            raise ShardUnavailable(
                shard.name, f"quarantined: {shard.quarantined}"
            )
        index, stamp = shard.current()
        probe = _Probe(
            shard, key, stamp, len(self._vocabulary), self.clock, context, self.clock()
        )
        if shard.breaker is not None:
            shard.breaker.admit()
        if shard.remote:
            try:
                if self.faults is not None:
                    self.faults.apply(shard.sid)
            except Exception as exc:  # noqa: BLE001 — result() raises it
                probe.pending = Future()
                probe.pending.set_exception(exc)
            else:
                probe.pending = index.begin_query(item, context, since)
            return probe

        def attempt():
            if self.faults is not None:
                self.faults.apply(shard.sid)
            return query(index, item, context, since)

        def count_retry(attempt_no, exc, delay):
            with self._cond:
                shard.retries += 1
            self._count_retry(attempt_no, exc, delay)

        def run():
            policy = self.retry_policy
            local = attempt() if policy is None else policy.run(
                attempt, on_retry=count_retry, context=context
            )
            probe.ready = self.clock()
            return local

        probe.pending = shard.pool.submit(run)
        return probe

    def _await_shard(
        self, shard: _Shard, probe, item, context, key, since, unread=()
    ) -> tuple[bool, list[MatchPair] | None]:
        """Finish one shard's probe within the query's deadline, hedged.

        ``probe`` is the begun :class:`_Probe`, or the exception its
        begin raised. If no answer is ready within the hedge delay, a
        hedge is begun the same way and the first answer that succeeds
        wins; the loser is dropped unfinished and warms neither the
        cache nor the breaker. An answer that arrived before the
        deadline is used; a wait past it is a :class:`JoinTimeout`.
        ``unread`` (later shards' remote probes) are stamped as they
        turn readable meanwhile.

        Returns ``(True, local_matches)``, or ``(False, None)`` when
        every probe issued failed — the shard is lost *for this query
        only*.
        """
        if not isinstance(probe, _Probe):
            return False, None
        racers = [probe]
        hedged: _Probe | None = None
        delay = self.hedge.delay_for(shard.latency) if self.hedge is not None else None
        left = context.remaining() if context is not None else None
        if delay is not None and (left is None or left > 0):
            if not _readable(racers, delay if left is None else min(delay, left), unread):
                with self._cond:
                    self._hedges += 1
                    shard.hedges += 1
                try:
                    hedged = self._probe_shard(
                        shard, item, self._carve_context(context), key, since
                    )
                except Exception:  # noqa: BLE001 — the straggler may still answer
                    pass
                else:
                    if hedged.on_wire:
                        finish_dials((hedged.pending,))
                    racers.append(hedged)
        while racers:
            # Take the first answer ready. When none is within the
            # deadline (without one: a remote shard's request timeout),
            # the first probe's own wait decides.
            left = context.remaining() if context is not None else None
            if left is None and shard.remote:
                left = shard.index.request_timeout
            ready = _readable(
                racers, None if left is None else max(left, 0.0), unread,
                hold=len(racers) > 1,
            )
            first = ready[0] if ready else racers[0]
            racers.remove(first)
            try:
                value = first.result()
            except Exception:  # noqa: BLE001 — try the other probe
                continue
            for loser in racers:
                loser.cancel()
            if first is hedged:
                with self._cond:
                    self._hedge_wins += 1
                    shard.hedge_wins += 1
            return True, value
        return False, None  # every issued probe failed

    def _merge(self, results: dict[int, list[MatchPair]], failed: list[int]) -> ShardedResult:
        """Exact global merge: remap local rids, sort, account shards."""
        total = self._total
        matches: list[MatchPair] = []
        for shard in self._shards:
            local = results.get(shard.sid)
            if local is None:
                continue
            rids = shard.global_rids
            known = len(rids)
            if any(pair.rid_a >= known for pair in local):
                # The shard answered with local rids the front end never
                # mapped — its rid space has desynced (e.g. a doubled
                # insert). Never guess at a mapping: drop the shard from
                # this answer as failed and quarantine it.
                del results[shard.sid]
                failed.append(shard.sid)
                self._quarantine(
                    shard,
                    f"answered shard-local rid >= the {known} mapped records",
                )
                with self._cond:
                    shard.failures += 1
                continue
            for pair in local:
                matches.append(MatchPair(rids[pair.rid_a], total, pair.similarity))
        matches.sort(key=lambda pair: pair.rid_a)
        return ShardedResult(
            matches=tuple(matches),
            shards_ok=tuple(sorted(results)),
            shards_failed=tuple(sorted(failed)),
            partial=bool(failed),
        )

    def _quarantine(self, shard: _Shard, reason: str) -> None:
        """Stop serving a shard whose rid space desynced from the map.

        Sticky and loud on purpose: the desync is a broken invariant,
        not a transient fault — probes and adds fail fast (exact
        ``shards_failed`` accounting), the cache is purged so no
        pre-desync entry can be served, and ``health()`` names the
        reason. Recovery means rebuilding the shard, not retrying.
        """
        with self._cond:
            if shard.quarantined is None:
                shard.quarantined = reason
        if shard.cache is not None:
            shard.cache.clear()

    # ------------------------------------------------------------------
    # Reindex
    # ------------------------------------------------------------------

    def reindex(
        self, shard_ids=None, block: bool = True, timeout: float | None = None
    ) -> list[GenerationBuilder]:
        """Rebuild shard index generations with zero query downtime.

        Args:
            shard_ids: which shards to rebuild (default: all).
            block: wait for every build to flip — re-raising the first
                build failure, and raising
                :class:`~repro.runtime.errors.ReindexTimeout` when any
                build is still running after ``timeout`` (the stalled
                builds keep running and will still flip; the exception
                carries them so the caller can keep waiting).
                ``block=False`` returns immediately with the running
                builders — ``wait()`` them yourself.
            timeout: bound on the whole wait when blocking, however
                many shards rebuild.

        Queries never wait on a build (it runs entirely off-lock) and
        never observe a torn index (the swap is a single reference
        assignment under the shard's write lock); adds landing during
        the build are replayed into the new generation before the flip.

        Remote shards rebuild *on their node*: the ``reindex`` wire op
        runs the same :class:`GenerationBuilder` flip there, and the
        returned handle exposes the builder surface (``wait`` /
        ``error`` / ``flipped`` / ``built`` / ``caught_up``), so
        blocking, timeouts, and :class:`ReindexTimeout` accounting are
        uniform across local and remote shards.
        """
        ids = range(len(self._shards)) if shard_ids is None else shard_ids
        builders = []
        for sid in ids:
            shard = self._shards[sid]
            if shard.remote:
                builders.append(_RemoteReindexHandle(shard, clock=self.clock).start())
            else:
                builders.append(
                    GenerationBuilder(
                        shard, self._make_index, clock=self.clock
                    ).start()
                )
        if block:
            until = None if timeout is None else time.monotonic() + timeout
            stalled = [
                builder for builder in builders
                if not builder.wait(
                    None if until is None else max(until - time.monotonic(), 0.0)
                )
            ]
            if stalled:
                raise ReindexTimeout(stalled, builders, timeout)
        return builders

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Operational snapshot: base accounting plus the shard map.

        Adds to the base keys: ``records`` (global count), ``partial``
        (complete/partial query tallies — a growing ``partial`` count
        is the page-me signal), ``hedging`` (issued/wins), ``router``
        (shard count + per-shard record spread), ``latency``
        (end-to-end, queue wait included), ``index`` (counters summed
        across shards, same shape the single-index server reports), and
        ``shards`` — one entry per shard with its records, flip epoch,
        index ``binding``, breaker state, cache stats, probe latency
        window, and probe/hedge/failure tallies. Every remote node's
        counters are asked for at once and waited for within one
        ``remote_request_timeout`` in all; the row of a node that does
        not answer in time carries an ``error`` instead of counters.
        """
        snapshot = self._base_health()
        with self._cond:
            per_shard_tallies = [
                (
                    s.probes, s.hedges, s.hedge_wins, s.failures, s.retries,
                    s.heartbeats_ok, s.heartbeats_failed,
                )
                for s in self._shards
            ]
            snapshot["partial"] = {
                "complete": self._complete_queries,
                "partial": self._partial_queries,
            }
            snapshot["hedging"] = {
                "enabled": self.hedge is not None,
                "issued": self._hedges,
                "wins": self._hedge_wins,
            }
        snapshot["records"] = self._total
        snapshot["router"] = {
            "shards": len(self._shards),
            "spread": [len(s.global_rids) for s in self._shards],
        }
        snapshot["latency"] = self.latency.summary()
        views = []
        for shard in self._shards:
            with shard.rwlock.read_locked():
                views.append((shard.index, shard.epoch))
        # One HEALTH op per remote node, all begun at once and all read
        # under one deadline, retries included.
        context = JoinContext(deadline_seconds=self._remote_request_timeout)
        context.start()
        asked = [
            index.begin_counters(context) if shard.remote else None
            for shard, (index, _) in zip(self._shards, views)
        ]
        finish_dials(pending for pending in asked if pending is not None)
        aggregate: dict = {}
        shard_rows = []
        total_reconnects = 0
        for shard, tallies, (index, epoch), pending in zip(
            self._shards, per_shard_tallies, views, asked
        ):
            probes, hedges, hedge_wins, failures, retries, hb_ok, hb_failed = tallies
            reconnects = 0
            error = None
            if shard.remote:
                # The client's own tallies supersede the local ones: its
                # retry policy (not the probe path's) re-issued the ops.
                retries = index.retries
                reconnects = index.reconnects
                counters = {}
                try:
                    counters = pending.result()
                except (OSError, JoinRuntimeError) as exc:
                    # A dead or slow node must not take health() down
                    # with it — its row reports why instead of counters.
                    error = f"{type(exc).__name__}: {exc}"
            else:
                counters = index.counters_snapshot()
            total_reconnects += reconnects
            for name, value in counters.items():
                aggregate[name] = aggregate.get(name, 0) + value
            row = {
                "shard": shard.sid,
                "records": len(shard.global_rids),
                "epoch": epoch,
                "binding": index.binding,
                "breaker": (
                    {
                        "state": shard.breaker.state,
                        "times_opened": shard.breaker.times_opened,
                    }
                    if shard.breaker is not None
                    else None
                ),
                "cache": shard.cache.stats() if shard.cache is not None else None,
                "latency": shard.latency.summary(),
                "probes": probes,
                "hedges": hedges,
                "hedge_wins": hedge_wins,
                "failures": failures,
                "retries": retries,
                "reconnects": reconnects,
                "remote": shard.remote,
                "quarantined": shard.quarantined,
            }
            if shard.remote:
                row["endpoint"] = index.endpoint
                row["heartbeats"] = {"ok": hb_ok, "failed": hb_failed}
            if error is not None:
                row["error"] = error
            shard_rows.append(row)
        snapshot["reconnects"] = total_reconnects
        snapshot["heartbeat"] = {
            "interval": self.heartbeat_interval,
            "ok": sum(t[5] for t in per_shard_tallies),
            "failed": sum(t[6] for t in per_shard_tallies),
        }
        snapshot["shards"] = shard_rows
        snapshot["index"] = {"records": self._total, "counters": aggregate}
        return snapshot

    def counters_snapshot(self) -> dict:
        """Cost counters summed across every shard's current generation
        (:meth:`health`'s ``index.counters``, with its one bound)."""
        return self.health()["index"]["counters"]
