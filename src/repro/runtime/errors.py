"""Structured exception hierarchy for the hardened join runtime.

Every failure mode the runtime can surface has a dedicated type so
callers can distinguish "ran out of time" from "the operator asked us to
stop" from "a snapshot on disk is damaged" without string-matching.
All runtime failures derive from :class:`JoinRuntimeError`; the one
usage error, :class:`UnsupportedConfiguration`, is a ``ValueError``
raised before any work starts.
"""

from __future__ import annotations

__all__ = [
    "CheckpointMismatch",
    "CircuitOpen",
    "ConcurrentMutation",
    "DeadlineExceeded",
    "FrameChecksumError",
    "JoinCancelled",
    "JoinInterrupted",
    "JoinRuntimeError",
    "JoinTimeout",
    "MemoryBudgetExceeded",
    "PartialResult",
    "ReadOnlyIndex",
    "ReindexTimeout",
    "RidDesync",
    "ServerOverloaded",
    "ShardUnavailable",
    "SnapshotCorrupted",
    "SnapshotEncodingError",
    "UnsupportedConfiguration",
    "WireProtocolError",
]


class JoinRuntimeError(Exception):
    """Base class for all hardened-runtime failures."""


class UnsupportedConfiguration(ValueError):
    """An algorithm was asked for something it does not declare.

    Raised up front — by ``make_algorithm``, ``join()`` before any
    record is scanned, or ``parallel_join`` before any worker starts —
    for an ``index_backend`` outside the algorithm's ``index_backends``,
    a ``merge_backend`` on an algorithm that merges no posting lists, a
    predicate without the scores it ``requires_scores``, a checkpointer
    on a non-``resumable`` algorithm, or ``workers > 1`` on a
    non-``shardable`` one (see :class:`~repro.core.base.SetJoinAlgorithm`).
    """


class JoinInterrupted(JoinRuntimeError):
    """Base for interruptions that stop a join before completion.

    When the join was running with a checkpointer, the last completed
    progress has been flushed to disk before this was raised, so the
    same invocation can be resumed.
    """


class JoinTimeout(JoinInterrupted):
    """The context's deadline expired mid-join."""

    def __init__(self, elapsed: float, deadline: float):
        super().__init__(
            f"join deadline of {deadline:.3f}s expired after {elapsed:.3f}s"
        )
        self.elapsed = elapsed
        self.deadline = deadline


#: A deadline expiry is the runtime's "deadline exceeded" failure; the
#: serving layer (retry clamping, per-shard budgets) refers to it under
#: this name. One type, two vocabularies — ``except`` either.
DeadlineExceeded = JoinTimeout


class JoinCancelled(JoinInterrupted):
    """The context's cancellation token was triggered mid-join."""

    def __init__(self, reason: str = "cancelled"):
        super().__init__(f"join cancelled: {reason}")
        self.reason = reason


class MemoryBudgetExceeded(JoinRuntimeError):
    """The context's memory budget (in index entries) was exceeded.

    Only raised when the context was built with
    ``on_memory_exceeded="raise"``; the default policy degrades to the
    budget-respecting ClusterMem join instead.
    """

    def __init__(self, entries: int, budget: int):
        super().__init__(
            f"index memory reached {entries} entries, budget is {budget}"
        )
        self.entries = entries
        self.budget = budget


class SnapshotCorrupted(JoinRuntimeError):
    """A snapshot or saved index file failed validation (checksum,
    shape, version).

    Carries the offending ``path`` and a human-readable ``detail``.
    """

    def __init__(self, path: str, detail: str):
        super().__init__(f"snapshot {path!r} is corrupt or unreadable: {detail}")
        self.path = path
        self.detail = detail


class SnapshotEncodingError(JoinRuntimeError):
    """A payload cannot be represented in the snapshot format.

    Raised instead of silently coercing non-JSON payloads to ``str``
    (which loses data on round-trip); pass a codec to handle custom
    payload types.
    """


class CheckpointMismatch(JoinRuntimeError):
    """A checkpoint on disk belongs to a different join invocation.

    Resuming is only sound when the algorithm, predicate, and dataset
    are byte-identical to the interrupted run; anything else would
    silently produce wrong pairs.
    """


class ServerOverloaded(JoinRuntimeError):
    """The serving layer shed this request instead of queueing it.

    Raised at admission time when the server's bounded queue is full
    (or the server is draining), so overload surfaces as an immediate
    typed error rather than unbounded latency. Retry against another
    replica or back off; the request was never executed.
    """

    def __init__(self, reason: str, queue_depth: int, queue_limit: int):
        super().__init__(
            f"request shed: {reason} (queue {queue_depth}/{queue_limit})"
        )
        self.reason = reason
        self.queue_depth = queue_depth
        self.queue_limit = queue_limit


class CircuitOpen(JoinRuntimeError):
    """The circuit breaker is open; the request failed fast.

    After ``failure_threshold`` consecutive failures the breaker stops
    dispatching work for ``cooldown_seconds``, then lets a limited
    number of trial requests through (half-open). The request was never
    executed; ``retry_after`` is the cooldown remaining (0.0 when the
    breaker is half-open but its trial slots are taken).
    """

    def __init__(self, state: str, retry_after: float):
        super().__init__(
            f"circuit breaker is {state}; retry in {max(retry_after, 0.0):.3f}s"
        )
        self.state = state
        self.retry_after = retry_after


class PartialResult(JoinRuntimeError):
    """A sharded query lost shards and the caller demanded completeness.

    Raised by ``ShardedIndexServer`` when ``require_complete=True`` and
    one or more shards failed (breaker open, deadline expiry, injected
    or real fault). The matches that *were* gathered ride along on
    ``result`` so a caller that changes its mind can still use them;
    ``shards_failed`` names the lost shards exactly.
    """

    def __init__(self, shards_failed, shards_total: int, result=None):
        failed = tuple(shards_failed)
        super().__init__(
            f"partial result: lost {len(failed)}/{shards_total} shards"
            f" {list(failed)}"
        )
        self.shards_failed = failed
        self.shards_total = shards_total
        self.result = result


class ReindexTimeout(JoinRuntimeError):
    """A blocking reindex wait expired with builds still running.

    Raised by ``ShardedIndexServer.reindex(block=True, timeout=...)``
    when any generation build has not flipped within the timeout. The
    builds are *not* cancelled — they keep running in the background
    and will still flip on completion. ``builders`` carries every
    builder from the call and ``stalled`` the still-running subset, so
    the caller can keep ``wait()``-ing or inspect which shards lagged.
    """

    def __init__(self, stalled, builders, timeout: float | None):
        self.stalled = list(stalled)
        self.builders = list(builders)
        self.timeout = timeout
        bound = "" if timeout is None else f" after {timeout:.3f}s"
        super().__init__(
            f"reindex still building{bound}:"
            f" {len(self.stalled)}/{len(self.builders)} generation builds"
            " have not flipped (they continue in the background)"
        )


class ShardUnavailable(JoinRuntimeError, ConnectionError):
    """A remote shard could not be reached or died mid-exchange.

    Raised by the shard transport when a connection cannot be
    established, drops mid-request, or the node answers with a failure
    that has no more specific type. Subclasses ``ConnectionError`` (an
    ``OSError``) on purpose: the serving tier's default retry
    classification treats ``OSError`` as transient, so a flapping node
    is retried/reconnected while the carved deadline allows, and a dead
    one exhausts its attempts and is counted in ``shards_failed``
    exactly like a killed in-process shard.
    """

    def __init__(self, endpoint: str, detail: str):
        super().__init__(f"shard at {endpoint} unavailable: {detail}")
        self.endpoint = endpoint
        self.detail = detail


class WireProtocolError(JoinRuntimeError):
    """A frame on the shard wire violated the protocol.

    Bad magic, unsupported version, an unknown op, or a length field
    outside the sane bound: the stream cannot be trusted past this
    point, so the connection is torn down. Deliberately *not* an
    ``OSError`` — a peer speaking the wrong protocol will not start
    speaking the right one on retry.
    """

    def __init__(self, detail: str):
        super().__init__(f"wire protocol violation: {detail}")
        self.detail = detail


class RidDesync(WireProtocolError):
    """A shard's local-rid space disagrees with the front end's map.

    Raised on an idempotent ADD when the node would assign (or echoes)
    a different shard-local rid than the front end expects — the sign
    of a double insert, a lost rollback, or a node restarted with the
    wrong state. Non-retryable (re-issuing the insert cannot re-align
    the rid spaces); the sharded front end quarantines the shard so it
    can never map matches to the wrong global records.
    """


class FrameChecksumError(WireProtocolError, OSError):
    """A frame's CRC32 did not match its header+payload bytes.

    Unlike the other protocol violations this one is transient by
    nature (a torn read, a corrupting middlebox), so it additionally
    subclasses ``OSError`` and the retry policy re-issues the request
    on a fresh connection.
    """

    def __init__(self, expected: int, actual: int):
        super().__init__(
            f"frame checksum mismatch: header says {expected:#010x},"
            f" bytes hash to {actual:#010x}"
        )
        self.expected = expected
        self.actual = actual


class ReadOnlyIndex(JoinRuntimeError):
    """A mutation was attempted on a memory-mapped (read-only) index.

    An index opened with ``SimilarityIndex.load(..., mmap=True)`` serves
    queries straight off the write-once mapped file; ``add``/``rebind``
    have nowhere to land. Load the same file without ``mmap`` to get a
    mutable index (and ``save`` it again).
    """

    def __init__(self, operation: str, path: str):
        super().__init__(
            f"cannot {operation}: index is served read-only from the"
            f" memory-mapped file {path!r}; load without mmap=True to mutate"
        )
        self.operation = operation
        self.path = path


class ConcurrentMutation(JoinRuntimeError):
    """An overlapping similarity-index operation was observed.

    Raised when an operation re-enters the service from the same thread
    (a tokenizer or codec calling back in — unservable without deadlock
    or corruption), or — as a last-resort invariant check — when a
    mutation is caught overlapping another operation because the index
    was built with a no-op lock. Under the default
    :class:`~repro.runtime.rwlock.RWLock` cross-thread overlap cannot
    happen: queries share the read side, mutations take the write side.
    """

    def __init__(self, attempted: str, in_flight: str):
        super().__init__(
            f"cannot {attempted} while a {in_flight} is in flight:"
            " SimilarityIndex operations must not overlap a mutation"
            " (re-entrant call, or missing lock?)"
        )
        self.attempted = attempted
        self.in_flight = in_flight
