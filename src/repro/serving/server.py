"""IndexServer: robust concurrent query serving over SimilarityIndex.

The thread-safe :class:`~repro.core.service.SimilarityIndex` makes
concurrent queries *correct*; this server makes them *operable* under
load:

* **Bounded worker pool** — a fixed number of query threads, each
  probing the shared index directly, so a traffic spike cannot spawn
  unbounded threads and every answer reflects the index as it is now.
* **Bounded admission queue with load shedding** — when the queue is
  full, requests fail immediately with
  :class:`~repro.runtime.errors.ServerOverloaded` instead of stacking
  up unbounded latency (clients can back off or try a replica).
* **Per-query deadlines** — a
  :class:`~repro.runtime.context.JoinContext` per request, anchored at
  submission so queue wait counts; expiry raises
  :class:`~repro.runtime.errors.JoinTimeout`, checked both before
  dispatch and inside the probe.
* **Retries** — transient faults re-attempted under a
  :class:`~repro.serving.retry.RetryPolicy` (exponential backoff +
  jitter) within the request's deadline.
* **Circuit breaker** — consecutive failures trip a
  :class:`~repro.serving.breaker.CircuitBreaker`; while open, requests
  fail fast with :class:`~repro.runtime.errors.CircuitOpen`.
* **Health** — :meth:`IndexServer.health` reports queue depth,
  in-flight count, shed/completed/failed/retried tallies, breaker
  state, p50/p95/p99 latency, and the index's cost counters.

The admission/worker/drain machinery and the breaker-and-retry step
live in :class:`_QueueServer` so the sharded scatter-gather tier
(:mod:`repro.serving.sharded`) reuses them unchanged — one server
lifecycle, two execution strategies. Multi-process serving is the
sharded tier's job: ``repro shard-serve`` nodes behind
``--shard-endpoints`` stay exact under adds.

Every clock in the stack is injectable
(:class:`repro.runtime.faults.FakeClock`), so overload, timeout, and
breaker behaviour are deterministically testable.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.runtime.context import JoinContext
from repro.runtime.errors import JoinTimeout, ServerOverloaded
from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import QueryCache, query
from repro.serving.retry import RetryPolicy
from repro.serving.stats import LatencyTracker

__all__ = ["IndexServer"]

#: Worker-loop sentinel: stop.
_STOP = object()

SERVING = "serving"
DRAINING = "draining"
CLOSED = "closed"


def _listed(item):
    """A one-shot iterator query item as a list; anything else as given.

    Cache keys and shard probes each iterate the item, so an iterator
    must be read once, up front. Strings and containers iterate afresh
    every time and keep their identity; an item that cannot be iterated
    passes through untouched and fails in the probe, through its future.
    """
    try:
        tokens = iter(item)
    except TypeError:
        return item
    return list(tokens) if tokens is item else item


@dataclass
class _Request:
    """One admitted query: payload, runtime envelope, result slot.

    ``item`` is re-iterable (see :func:`_listed`), so it can be keyed
    and probed any number of times. ``require_complete`` is the sharded
    tier's completeness demand (ignored by IndexServer, whose single
    index is always complete).
    """

    item: object
    context: JoinContext | None
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    require_complete: bool = False


class _QueueServer:
    """Bounded-queue server skeleton: admission, workers, drain, health.

    Subclasses implement :meth:`_execute` (what one admitted request
    does) and may hook :meth:`_on_start` / :meth:`_on_drained` for
    their own resources (the sharded tier's shard pools and heartbeat).
    Everything else — the load-shedding admission path, deadline
    anchoring at submit, the worker loop, graceful drain with
    queued-request failure, and the shed/completed/failed/retried
    accounting — is shared verbatim between the single-index and
    sharded servers, so the two tiers cannot drift apart operationally.
    """

    #: Thread-name prefix for this server's workers.
    worker_name = "queue-server"

    def __init__(
        self,
        workers: int,
        queue_limit: int,
        default_deadline: float | None,
        clock: Callable[[], float],
        latency_capacity: int,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.n_workers = workers
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.clock = clock
        self.latency = LatencyTracker(latency_capacity)

        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._threads: list[threading.Thread] = []
        self._state = CLOSED
        self._pending = 0  # admitted but not yet finished
        self._in_flight = 0  # currently executing in a worker
        self._shed = 0
        self._completed = 0
        self._failed = 0
        self._retried = 0
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Spawn the worker pool and begin accepting queries.

        A failed start (``_on_start`` raising) rolls the server back to
        ``closed`` before re-raising, so ``stop()`` after a failed start
        is a safe no-op and a fixed configuration can ``start()`` again.
        """
        with self._cond:
            if self._state != CLOSED:
                raise RuntimeError(f"cannot start a {self._state} server")
            self._state = SERVING
        try:
            self._on_start()
        except BaseException:
            with self._cond:
                self._state = CLOSED
            raise
        for i in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker, name=f"{self.worker_name}-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _on_start(self) -> None:
        """Subclass hook: start resources before workers spawn.

        On failure the base class resets the server to ``closed`` and
        re-raises; implementations must leave no half-built resources
        behind (or clean them up themselves) so a later ``start()`` can
        succeed.
        """

    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully stop: reject new work, finish admitted work.

        Returns True when every admitted request finished within
        ``timeout`` (measured in real time, independent of the injected
        clock); False on timeout — workers are still stopped, and any
        requests left behind fail with ``ServerOverloaded``.

        Idempotent: draining a drained (or never-started, or
        failed-to-start) server is a no-op returning True, and the
        ``_on_drained`` teardown hooks tolerate being run again (a
        second drain after a timed-out first one re-reaps whatever the
        wedged workers left behind).
        """
        started = time.monotonic()
        with self._cond:
            if self._state == CLOSED and not self._threads:
                return True
            self._state = DRAINING
            drained = self._cond.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )
        if not drained:
            # Fail whatever the timed-out drain left queued, rather than
            # leaving its callers blocked on futures forever (and to
            # guarantee the stop sentinels below fit in the queue).
            self._fail_queued("draining")
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            if drained or timeout is None:
                thread.join()
            else:
                # A worker wedged mid-query must not wedge the drain too;
                # it is a daemon thread and dies with the process.
                budget = started + timeout - time.monotonic()
                thread.join(timeout=max(budget, 0.0) + 0.1)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._on_drained()
        with self._cond:
            self._state = CLOSED
        return drained

    def stop(self, timeout: float | None = None) -> bool:
        """Alias for :meth:`drain` — idempotent, safe after any start."""
        return self.drain(timeout)

    def _on_drained(self) -> None:
        """Subclass hook: tear down resources after workers stop.

        May run more than once (repeated ``drain``/``stop`` calls);
        implementations must be idempotent.
        """

    def _fail_queued(self, reason: str) -> None:
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                return
            if request is not _STOP and request.future.set_running_or_notify_cancel():
                self._finish(shed=True)
                request.future.set_exception(
                    ServerOverloaded(reason, self._queue.qsize(), self.queue_limit)
                )
                self._settle()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        item,
        deadline: float | None = None,
        context: JoinContext | None = None,
    ) -> Future:
        """Admit one query; returns its Future.

        Args:
            item: what to query (same forms ``SimilarityIndex.query``
                accepts). An iterator is read into a list here, so a
                one-shot generator is safe to pass.
            deadline: per-query wall-clock budget in seconds, measured
                from now (queue wait included); defaults to the server's
                ``default_deadline``.
            context: bring-your-own
                :class:`~repro.runtime.context.JoinContext` (e.g. with a
                shared cancellation token); mutually exclusive with
                ``deadline``.

        Raises:
            ServerOverloaded: queue full, or the server is not serving.
        """
        return self._admit(item, deadline, context)

    def _admit(self, item, deadline, context, require_complete: bool = False) -> Future:
        if deadline is not None and context is not None:
            raise ValueError("pass either deadline or context, not both")
        with self._cond:
            if self._state != SERVING:
                self._shed += 1
                raise ServerOverloaded(
                    self._state if self._state != CLOSED else "not started",
                    self._queue.qsize(),
                    self.queue_limit,
                )
        if context is None:
            budget = deadline if deadline is not None else self.default_deadline
            if budget is not None:
                context = JoinContext(deadline_seconds=budget, clock=self.clock)
        if context is not None:
            context.start()  # anchor the deadline at admission
        request = _Request(
            item=_listed(item),
            context=context,
            enqueued_at=self.clock(),
            require_complete=require_complete,
        )
        with self._cond:
            self._pending += 1
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._cond:
                self._pending -= 1
                self._shed += 1
                self._cond.notify_all()
            raise ServerOverloaded(
                "queue full", self._queue.qsize(), self.queue_limit
            ) from None
        return request.future

    def query(self, item, deadline: float | None = None, timeout: float | None = None):
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(item, deadline=deadline).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            request = self._queue.get()
            if request is _STOP:
                return
            if not request.future.set_running_or_notify_cancel():
                self._finish(shed=True)  # client cancelled while queued
                self._settle()
                continue
            with self._cond:
                self._in_flight += 1
            try:
                result = self._execute(request)
            except BaseException as exc:  # noqa: BLE001 — delivered via future
                self._finish(failed=True)
                request.future.set_exception(exc)
            else:
                self.latency.observe(self.clock() - request.enqueued_at)
                self._finish(completed=True)
                request.future.set_result(result)
            self._settle()

    def _execute(self, request: _Request):
        raise NotImplementedError

    def _check_not_expired(self, context: JoinContext | None) -> None:
        """Fail a request that spent its whole deadline queued.

        Raised before any dependency is touched — this is overload, not
        dependency failure, so subclasses call it before consulting
        caches, breakers, or shards.
        """
        if context is not None:
            remaining = context.remaining()
            if remaining is not None and remaining <= 0:
                raise JoinTimeout(context.elapsed(), context.deadline_seconds)

    def _count_retry(self, attempt: int, exc: BaseException, delay: float) -> None:
        with self._cond:
            self._retried += 1

    def _finish(
        self, completed: bool = False, failed: bool = False, shed: bool = False
    ) -> None:
        """Tally a request's outcome, before its future resolves: a
        caller woken by the future then finds it in ``health()``."""
        with self._cond:
            if completed:
                self._completed += 1
            elif failed:
                self._failed += 1
            elif shed:
                self._shed += 1
            if self._in_flight and not shed:
                self._in_flight -= 1

    def _settle(self) -> None:
        """Retire a request whose future has resolved: ``drain`` waits
        for ``pending == 0``, so it returns only once every admitted
        request's future is done."""
        with self._cond:
            self._pending -= 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    def _base_health(self) -> dict:
        """The lifecycle/accounting half of a health snapshot."""
        with self._cond:
            return {
                "state": self._state,
                "workers": self.n_workers,
                "queue_depth": self._queue.qsize(),
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
                "shed": self._shed,
                "completed": self._completed,
                "failed": self._failed,
                "retried": self._retried,
            }


class IndexServer(_QueueServer):
    """A bounded, self-protecting query server over a SimilarityIndex.

    Every probe runs on a worker thread against the live index, so an
    ``add`` is visible to the next query, exactly as
    :meth:`SimilarityIndex.query` would answer it. For serving across
    processes, put ``repro shard-serve`` nodes behind a
    :class:`~repro.serving.sharded.ShardedIndexServer` with
    ``shard_endpoints``.

    Args:
        index: the (thread-safe) :class:`SimilarityIndex` to serve.
        workers: query worker threads.
        queue_limit: admission queue bound; a full queue sheds.
        default_deadline: per-query deadline in seconds applied when
            ``submit`` gets none; ``None`` = unbounded.
        retry_policy: transient-fault retry policy; ``None`` disables
            retries. Backoff is clamped to the request's remaining
            deadline (see :meth:`RetryPolicy.run`).
        breaker: circuit breaker; ``None`` disables breaking.
        clock: monotonic-seconds callable used for deadlines and
            latency; injectable for tests.
        latency_capacity: latency reservoir size (see
            :class:`LatencyTracker`).
        query_cache: capacity of the LRU query-answer cache; 0
            disables it. Answers are always what a fresh probe would
            return (the rule: :mod:`repro.serving.cache`); hits needing
            no extension bypass the index and the breaker.

    Start with :meth:`start` (or use as a context manager); stop with
    :meth:`drain`. ``submit`` returns a ``concurrent.futures.Future``
    resolving to the query's ``list[MatchPair]``.
    """

    worker_name = "index-server"

    def __init__(
        self,
        index,
        workers: int = 4,
        queue_limit: int = 64,
        default_deadline: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        latency_capacity: int = 2048,
        query_cache: int = 0,
    ):
        super().__init__(workers, queue_limit, default_deadline, clock, latency_capacity)
        self.index = index
        self.retry_policy = retry_policy
        self.breaker = breaker
        if query_cache < 0:
            raise ValueError(f"query_cache must be >= 0, got {query_cache}")
        self.cache = QueryCache(query_cache) if query_cache else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, request: _Request):
        context = request.context
        # Expired while queued: don't touch the index or the breaker.
        self._check_not_expired(context)

        # Cache consult, before the breaker: a hit does not touch the
        # index, so it is not a dependency call and must stay servable
        # while the circuit is open. The stamp is read *before* the
        # probe: a rebind slipping in between leaves the store tagged
        # stale, and the cache drops it (see :mod:`repro.serving.cache`).
        index = self.index
        item = request.item
        cache = self.cache
        key = cache.key_for(item) if cache is not None else None
        since = None
        if key is not None:
            stamp = index.binding
            answer, since = cache.lookup(key, stamp, len(index))
            if answer is not None:
                return answer

        def attempt():
            return query(index, item, context, since)

        # The breaker admits first (an open circuit raises CircuitOpen,
        # recording nothing); the retried call is one outcome on it.
        breaker, policy = self.breaker, self.retry_policy
        if breaker is not None:
            breaker.admit()
        try:
            fresh = attempt() if policy is None else policy.run(
                attempt, on_retry=self._count_retry, context=context
            )
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        if key is not None:
            cache.store(key, stamp, fresh)
        return fresh

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Point-in-time operational snapshot (cheap; safe to poll).

        Keys: ``state``, ``workers``, ``queue_depth``, ``queue_limit``,
        ``in_flight``, ``shed``, ``completed``, ``failed``, ``retried``,
        ``pool`` (busy/total/saturation of the worker pool — saturation
        pinned at 1.0 is the signal to add capacity or shed earlier), ``breaker`` (state + times_opened, or None),
        ``cache`` (capacity/size/hits/misses/patched/hit_rate/
        invalidations, or None when disabled; ``patched`` counts the
        hits extended past appends), ``latency`` (count/p50/p95/p99 seconds),
        ``index`` (record count + cost counters — including
        ``unknown_query_tokens`` and the ``bitmap_*`` filter tallies —
        plus ``bitmap`` filter state when the index has one armed).
        """
        snapshot = self._base_health()
        busy = min(snapshot["in_flight"], self.n_workers)
        snapshot["pool"] = {
            "busy": busy,
            "total": self.n_workers,
            "saturation": busy / self.n_workers,
        }
        snapshot["breaker"] = (
            {"state": self.breaker.state, "times_opened": self.breaker.times_opened}
            if self.breaker is not None
            else None
        )
        snapshot["cache"] = self.cache.stats() if self.cache is not None else None
        snapshot["latency"] = self.latency.summary()
        snapshot["index"] = {
            "records": len(self.index),
            "counters": self.index.counters_snapshot(),
        }
        bitmap_state = getattr(self.index, "bitmap_state", None)
        if bitmap_state is not None:
            snapshot["index"]["bitmap"] = bitmap_state()
        return snapshot
