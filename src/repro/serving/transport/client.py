"""RemoteShardClient: a network shard that quacks like a local one.

The front-end side of the remote shard transport. A
:class:`RemoteShardClient` exposes the same probe surface the sharded
tier already programs against for an in-process shard index —
``query`` / ``add`` / ``generation`` / ``counters_snapshot`` /
``__len__`` — so :class:`~repro.serving.sharded.ShardedIndexServer`
can hold one in a ``_Shard`` slot and scatter-gather over a mix of
local and remote shards without a single branch in the merge path.

Robustness model, per the tentpole contract:

* **Small connection pool, reconnect on failure.** Idle connections
  are reused; a connection that fails mid-exchange is torn down
  (counted in :attr:`reconnects`) and the next attempt dials fresh.
  Reconnect-retry runs under the existing
  :class:`~repro.serving.retry.RetryPolicy` — exponential backoff +
  jitter, clamped to the carved :class:`JoinContext` deadline, which
  also rides the frame header so the node enforces the same budget.
* **Typed failures.** Connect/transport failures raise
  :class:`~repro.runtime.errors.ShardUnavailable` (a
  ``ConnectionError``, hence retryable); corrupt frames raise
  :class:`~repro.runtime.errors.FrameChecksumError` (retryable);
  unframeable streams raise
  :class:`~repro.runtime.errors.WireProtocolError` (not retryable —
  the peer is speaking a different protocol). Remote deadline expiry
  comes back as a real :class:`~repro.runtime.errors.JoinTimeout`.
* **Generation stamping.** Every response header carries the node's
  ``(epoch, generation)``; :attr:`generation` returns the last-seen
  pair, so the front end's per-shard cache stamp
  ``(local epoch, remote stamp)`` moves exactly when the remote index
  does. All mutations flow through this client (the front end owns
  routing), so the stamp is refreshed by the very response that made
  it stale; heartbeat pings bound staleness for out-of-band changes.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
import uuid
from collections.abc import Callable

from repro.runtime.context import JoinContext
from repro.runtime.errors import (
    DeadlineExceeded,
    JoinCancelled,
    JoinTimeout,
    RidDesync,
    ShardUnavailable,
    WireProtocolError,
)
from repro.serving.retry import RetryPolicy
from repro.serving.transport import wire

__all__ = ["RemoteShardClient", "parse_endpoint"]


def parse_endpoint(spec: str) -> tuple[str, int]:
    """Parse ``host:port`` (the ``--shard-endpoints`` entry format)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be host:port, got {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {spec!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"endpoint port out of range in {spec!r}")
    return host, port


class RemoteShardClient:
    """Probe interface to one :class:`ShardServer` over TCP.

    Args:
        host / port: the shard node's address.
        retry_policy: reconnect-on-failure policy for each op; ``None``
            means one attempt. Backoff is clamped to the op's carved
            deadline (see :meth:`RetryPolicy.run`).
        pool_size: idle connections kept for reuse (a "small pool" —
            each in-flight op holds one connection for its round trip).
        connect_timeout: dial timeout in seconds.
        request_timeout: per-round-trip socket timeout when the op has
            no deadline; a deadline always bounds the trip tighter.
        clock: injectable monotonic clock.
        on_retry: extra ``(attempt, exc, delay)`` callback alongside
            the internal retry counter — the sharded server wires its
            global ``retried`` tally through this.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry_policy: RetryPolicy | None = None,
        pool_size: int = 2,
        connect_timeout: float = 1.0,
        request_timeout: float | None = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Callable | None = None,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.host = host
        self.port = port
        self.endpoint = f"{host}:{port}"
        self.retry_policy = retry_policy
        self.pool_size = pool_size
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.clock = clock
        self._extra_on_retry = on_retry
        self._lock = threading.Lock()
        self._idle: list[socket.socket] = []
        self._request_ids = itertools.count(1)
        self._stamp: tuple[int, int] = (0, 0)
        self._closed = False
        #: Op attempts re-issued by the retry policy.
        self.retries = 0
        #: Connections torn down after a transport failure (each one is
        #: re-dialed by a later attempt — the reconnect count).
        self.reconnects = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ShardUnavailable(self.endpoint, "client is closed")
            if self._idle:
                return self._idle.pop()
        try:
            conn = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ShardUnavailable(self.endpoint, f"connect failed: {exc}") from exc
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _checkin(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        _close_quietly(conn)

    def _discard(self, conn: socket.socket) -> None:
        with self._lock:
            self.reconnects += 1
        _close_quietly(conn)

    def close(self) -> None:
        """Close every pooled connection; idempotent."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            _close_quietly(conn)

    def __enter__(self) -> "RemoteShardClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The wire round trip
    # ------------------------------------------------------------------

    def _count_retry(self, attempt: int, exc: BaseException, delay: float) -> None:
        with self._lock:
            self.retries += 1
        if self._extra_on_retry is not None:
            self._extra_on_retry(attempt, exc, delay)

    def _call(
        self,
        op: int,
        payload: bytes = b"",
        context: JoinContext | None = None,
        timeout: float | None = None,
    ) -> wire.Frame:
        def attempt() -> wire.Frame:
            return self._attempt(op, payload, context, timeout)

        if self.retry_policy is not None:
            return self.retry_policy.run(
                attempt, on_retry=self._count_retry, context=context
            )
        return attempt()

    def _attempt(
        self,
        op: int,
        payload: bytes,
        context: JoinContext | None,
        timeout: float | None,
    ) -> wire.Frame:
        deadline = -1.0
        trip_timeout = timeout if timeout is not None else self.request_timeout
        if context is not None:
            context.start()
            remaining = context.remaining()
            if remaining is not None:
                if remaining <= 0:
                    raise DeadlineExceeded(
                        context.elapsed(), context.deadline_seconds
                    )
                deadline = remaining
                trip_timeout = (
                    remaining
                    if trip_timeout is None
                    else min(trip_timeout, remaining)
                )
        # The id is a u32 on the wire: wrap it into [1, 0xFFFFFFFF] so
        # the echo comparison survives past 2**32 ops, and keep 0 out of
        # the range — it is reserved for the node's *unrequested* error
        # frames (a request it could not even frame).
        request_id = (next(self._request_ids) - 1) % 0xFFFFFFFF + 1
        conn = self._checkout()
        try:
            conn.settimeout(trip_timeout)
            conn.sendall(
                wire.encode_frame(
                    op, payload, request_id=request_id, deadline=deadline
                )
            )
            frame = wire.read_frame(wire.socket_reader(conn))
        except WireProtocolError:
            # Checksum (a subclass) and framing violations alike: the
            # stream is unsynced, the connection cannot be reused.
            self._discard(conn)
            raise
        except socket.timeout as exc:
            self._discard(conn)
            # A timed-out trip is deadline expiry only when the budget
            # is actually spent; a round trip bounded by the smaller
            # request_timeout with deadline to spare is a transient
            # shard fault — retryable, so the remaining budget is used.
            if context is not None:
                remaining = context.remaining()
                if remaining is not None and remaining <= 0:
                    raise JoinTimeout(
                        context.elapsed(), context.deadline_seconds
                    ) from exc
            raise ShardUnavailable(
                self.endpoint, f"{wire.OP_NAMES.get(op, op)} timed out"
            ) from exc
        except OSError as exc:
            self._discard(conn)
            raise ShardUnavailable(
                self.endpoint, f"{wire.OP_NAMES.get(op, op)} failed: {exc}"
            ) from exc
        if frame.is_error and frame.request_id == 0:
            # The node could not frame our *request* and answered with
            # its best-effort error frame — request_id 0, which no real
            # op ever uses — before hanging up. The node checks the CRC
            # before the version and op, so a request damaged in flight
            # comes back as its FrameChecksumError: a transient
            # transport fault, surfaced retryable so the policy
            # re-issues on a fresh connection. Any other protocol error
            # (an op or version the node does not speak) is what an
            # intact request earns, and no retry can fix it.
            self._discard(conn)
            try:
                record = wire.decode_error(frame.payload)
                name = record.get("name", "?")
                detail = f"remote {name}: {record.get('message', '')}"
            except WireProtocolError:
                name = None
                detail = "unreadable error payload"
            message = (
                f"node could not frame the"
                f" {wire.OP_NAMES.get(op, op)} request ({detail})"
            )
            if name == "WireProtocolError":
                raise WireProtocolError(message)
            raise ShardUnavailable(self.endpoint, message)
        if (
            not frame.is_response
            or frame.op != op
            or frame.request_id != request_id
        ):
            self._discard(conn)
            raise WireProtocolError(
                f"mismatched response: sent {wire.OP_NAMES.get(op, op)}"
                f" #{request_id}, got {wire.OP_NAMES.get(frame.op, frame.op)}"
                f" #{frame.request_id}"
                f" ({'response' if frame.is_response else 'request'})"
            )
        with self._lock:
            self._stamp = (frame.epoch, frame.generation)
        self._checkin(conn)
        if frame.is_error:
            raise self._rebuild_error(wire.decode_error(frame.payload))
        return frame

    def _rebuild_error(self, record: dict) -> BaseException:
        """Typed errors cross the wire typed; the rest degrade honestly.

        Deadline expiry and cancellation keep their types (the sharded
        tier's accounting and the retry policy's classifier depend on
        them — neither is retryable). Anything else becomes
        :class:`ShardUnavailable`, which is retryable on purpose: a
        remote probe failure is indistinguishable from a local
        transient fault, and both should burn retry budget the same
        way.
        """
        name = record.get("name", "?")
        message = record.get("message", "")
        if name in ("JoinTimeout", "DeadlineExceeded") and "elapsed" in record:
            return JoinTimeout(record["elapsed"], record["deadline"])
        if name == "JoinCancelled":
            return JoinCancelled(message or "cancelled on shard node")
        if name == "RidDesync":
            # The node refused (or botched) an idempotent insert: its
            # rid space disagrees with the front end's map. Typed so the
            # front end quarantines the shard; non-retryable — retrying
            # a desynced insert only digs deeper.
            return RidDesync(f"node reports: {message}")
        if name == "WireProtocolError":
            # Other contract violations the node detected at the op
            # layer (an unservable op, say) stay non-retryable too:
            # re-issuing the same request cannot fix them.
            return WireProtocolError(f"node reports: {message}")
        return ShardUnavailable(self.endpoint, f"remote {name}: {message}")

    # ------------------------------------------------------------------
    # The probe interface (what _Shard.index must quack like)
    # ------------------------------------------------------------------

    def query(self, item, context: JoinContext | None = None):
        """Probe the remote shard; returns shard-local ``MatchPair``s."""
        frame = self._call(
            wire.OP_QUERY, wire.encode_json({"item": item}), context=context
        )
        matches, _offset = wire.decode_matches(frame.payload)
        return matches

    def add(self, item, payload=None, expected_rid: int | None = None) -> int:
        """Insert a record on the node; returns its shard-local rid.

        ``expected_rid`` makes the insert idempotent and verified: the
        node dedupes a retried ADD whose first response was lost (the
        record already sits at ``expected_rid``) and refuses one that
        would land anywhere else, and the echoed rid is checked here
        too — a lost response must never double-insert or silently
        desync shard-local rids from the front end's global-rid map.
        The sharded front end always passes it; without it the node
        assigns the next rid unconditionally (and a retry can then
        double-insert — only safe when no rid map depends on this
        node).
        """
        body: dict = {"item": item, "payload": payload}
        if expected_rid is not None:
            body["rid"] = expected_rid
            # One token per *logical* insert, reused verbatim by every
            # retry of this call — the node dedupes on (rid, token), so
            # a retry after a lost response is recognized while a new
            # insert that happens to expect the same rid is refused.
            body["token"] = uuid.uuid4().hex
        frame = self._call(wire.OP_ADD, wire.encode_json(body))
        rid = wire.decode_json(frame.payload)["rid"]
        if expected_rid is not None and rid != expected_rid:
            raise RidDesync(
                f"{self.endpoint} answered rid {rid} for an insert"
                f" expected at shard-local rid {expected_rid}"
            )
        return rid

    def reindex(self, timeout: float | None = None) -> dict:
        """Run the node's zero-downtime generation rebuild; blocks."""
        frame = self._call(wire.OP_REINDEX, timeout=timeout)
        return wire.decode_json(frame.payload)

    def health(self) -> dict:
        return wire.decode_json(self._call(wire.OP_HEALTH).payload)

    def ping(self) -> tuple[int, int]:
        """Heartbeat probe; returns the node's (epoch, generation)."""
        frame = self._call(wire.OP_PING)
        return (frame.epoch, frame.generation)

    @property
    def generation(self) -> tuple[int, int]:
        """Last-seen remote ``(epoch, generation)`` stamp.

        Tuple-valued on purpose: the in-process cache stamp compares
        with ``!=``, so a tuple slots into the same
        ``(shard epoch, index generation)`` scheme unchanged.
        """
        with self._lock:
            return self._stamp

    def counters_snapshot(self) -> dict:
        """The node's cost counters (one health round trip)."""
        counters = self.health().get("counters", {})
        return counters if isinstance(counters, dict) else {}

    def __len__(self) -> int:
        return int(self.health().get("records", 0))

    def payload(self, rid: int):
        raise NotImplementedError(
            "record payloads are not served over the shard wire; read them"
            " on the shard node itself"
        )

    def __repr__(self) -> str:
        return f"RemoteShardClient({self.endpoint})"


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass
