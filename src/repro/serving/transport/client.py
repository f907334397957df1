"""RemoteShardClient: a network shard that quacks like a local one.

The front-end side of the remote shard transport. A
:class:`RemoteShardClient` exposes the same probe surface the sharded
tier already programs against for an in-process shard index —
``query`` / ``add`` / ``binding`` / ``__len__`` — so
:class:`~repro.serving.sharded.ShardedIndexServer` can hold one in a
``_Shard`` slot and scatter-gather over a mix of local and remote
shards without a single branch in the merge path.

Robustness model:

* **One request path.** Every op — query, add, ping, health, reindex —
  is a :class:`PendingQuery`: its frame goes out on an idle pooled
  connection, or a non-blocking dial is begun and :func:`finish_dials`
  completes it within the connect timeout or the op's deadline,
  whichever is sooner; then its answer is read. A retry begins afresh
  the same way. The endpoint is resolved once, when the client is
  built, so no dial waits on a resolver.
* **Small connection pool, reconnect on failure.** Idle connections
  are reused; a connection that fails mid-exchange is torn down
  (counted in :attr:`reconnects`) and the next attempt dials fresh —
  when the peer closed or reset it, the idle connections are closed
  too, as the same peer has dropped them.
  Reconnect-retry runs under the existing
  :class:`~repro.serving.retry.RetryPolicy` — exponential backoff +
  jitter, clamped to the op's :class:`JoinContext` deadline, which
  also rides the frame header so the node enforces the same budget.
* **Typed failures.** Connect/transport failures raise
  :class:`~repro.runtime.errors.ShardUnavailable` (a
  ``ConnectionError``, hence retryable); corrupt frames raise
  :class:`~repro.runtime.errors.FrameChecksumError` (retryable);
  unframeable streams raise
  :class:`~repro.runtime.errors.WireProtocolError` (not retryable —
  the peer is speaking a different protocol). Remote deadline expiry
  comes back as a real :class:`~repro.runtime.errors.JoinTimeout`.
* **Bind stamping.** Every response header carries the node's
  ``binding``; :attr:`binding` returns the largest seen (a node's
  stamps only grow), so the front end's per-shard cache stamp moves
  exactly when the remote index is rebound or flipped. All mutations
  flow through this client (the front end owns routing), so the stamp
  is refreshed by the very response that made it stale; heartbeat
  pings bound staleness for out-of-band changes.
"""

from __future__ import annotations

import errno
import itertools
import os
import select
import socket
import threading
import time
import uuid
import weakref
from collections.abc import Callable

from repro.core.results import MatchPair
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

__all__ = ["PendingQuery", "RemoteShardClient", "finish_dials", "parse_endpoint"]


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
        host / port: the shard node's address, resolved here, once:
            :class:`ShardUnavailable` when it cannot be.
        retry_policy: reconnect-on-failure policy for each op; ``None``
            means one attempt. Backoff is clamped to the op's carved
            deadline (see :meth:`RetryPolicy.run`).
        pool_size: idle connections kept for reuse (a "small pool" —
            each in-flight op holds one connection for its round trip).
        connect_timeout: dial timeout in seconds; an op's deadline
            bounds a dial tighter.
        request_timeout: per-round-trip socket timeout when the op has
            no deadline; a deadline always bounds the trip tighter.
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
        on_retry: Callable | None = None,
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.endpoint = f"{host}:{port}"
        try:
            #: Where a dial goes: each address in turn until one connects.
            self._addresses = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
        except (OSError, UnicodeError) as exc:
            raise ShardUnavailable(self.endpoint, f"cannot resolve: {exc}") from exc
        self.retry_policy = retry_policy
        self.pool_size = pool_size
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._extra_on_retry = on_retry
        self._lock = threading.Lock()
        self._idle: list[socket.socket] = []
        #: Every connection dialed, idle or in use (:meth:`close`).
        self._sockets: weakref.WeakSet = weakref.WeakSet()
        self._request_ids = itertools.count(1)
        self._binding = 0
        self._closed = False
        #: Op attempts re-issued by the retry policy.
        self.retries = 0
        #: Connections torn down after a transport failure (each one is
        #: re-dialed by a later attempt — the reconnect count).
        self.reconnects = 0

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------

    def _take_idle(self) -> socket.socket | None:
        """Check out an idle connection, or None when there is none."""
        with self._lock:
            if self._closed:
                raise ShardUnavailable(self.endpoint, "client is closed")
            return self._idle.pop() if self._idle else None

    def _checkin(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        wire.close_quietly(conn)

    def _discard(self, conn: socket.socket, flush: bool = False) -> None:
        """Tear down a failed connection (one reconnect); with ``flush``
        also close the idle ones, uncounted — they were opened to the
        same peer, which has hung up on this one."""
        stale: list[socket.socket] = []
        with self._lock:
            self.reconnects += 1
            if flush:
                stale, self._idle = self._idle, []
        for dead in (conn, *stale):
            wire.close_quietly(dead)

    def close(self) -> None:
        """Close every pooled connection and end every op in flight;
        idempotent. An op's connection is shut down under the thread
        using it, which closes it: a read blocked on it fails at once,
        a reply already received can still be read."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            live = list(self._sockets)
        for conn in idle:
            wire.close_quietly(conn)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed already, or never connected

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
        """One op, begun and read — the one path every op takes."""
        return PendingQuery(self, op, payload, context, timeout).result()

    def _budget(
        self, context: JoinContext | None, timeout: float | None
    ) -> tuple[float | None, float | None]:
        """What is left of ``context``'s deadline (None: no deadline)
        and the round trip's socket timeout, clamped to it; raises
        :class:`DeadlineExceeded` once the deadline is spent."""
        trip = timeout if timeout is not None else self.request_timeout
        if context is None or context.deadline_seconds is None:
            return None, trip
        context.start()
        remaining = context.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(context.elapsed(), context.deadline_seconds)
        return remaining, remaining if trip is None else min(trip, remaining)

    def _send(
        self,
        op: int,
        payload: bytes,
        context: JoinContext | None,
        timeout: float | None,
        conn: socket.socket,
    ) -> tuple[socket.socket, int]:
        """Write one request frame on ``conn``; returns ``(connection,
        request_id)``.

        ``conn`` is checked out by the caller, and checked back in here
        when the deadline is already spent. It stays checked out until
        :meth:`_receive` reads the response on it (or the caller closes
        it).
        """
        try:
            deadline, trip_timeout = self._budget(context, timeout)
        except DeadlineExceeded:
            self._checkin(conn)
            raise
        # The id is a u32 on the wire: wrap it into [1, 0xFFFFFFFF] so
        # the echo comparison survives past 2**32 ops, and keep 0 out of
        # the range — it is reserved for the node's *unrequested* error
        # frames (a request it could not even frame).
        request_id = (next(self._request_ids) - 1) % 0xFFFFFFFF + 1
        try:
            conn.settimeout(trip_timeout)
            conn.sendall(
                wire.encode_frame(
                    op, payload, request_id=request_id,
                    deadline=-1.0 if deadline is None else deadline,
                )
            )
        except OSError as exc:
            raise self._broken(conn, op, context, exc) from exc
        return conn, request_id

    def _receive(
        self,
        sent: tuple[socket.socket, int],
        op: int,
        context: JoinContext | None,
        timeout: float | None,
    ) -> wire.Frame:
        """Read and check the response to a request :meth:`_send` wrote.

        With a deadline the wait is bounded by what is left of it *now*
        (the caller may have done other work since the send); once it
        is spent, only a response already buffered on the socket is
        read — a reply that beat the deadline is used, a wait past it
        is deadline expiry.
        """
        conn, request_id = sent
        try:
            try:
                remaining, trip = self._budget(context, timeout)
            except DeadlineExceeded:
                remaining = trip = 0.0
            if remaining is not None:  # else the send set the timeout
                conn.settimeout(trip)
            frame = wire.read_frame(wire.socket_reader(conn))
        except WireProtocolError:
            # Checksum (a subclass) and framing violations alike: the
            # stream is unsynced, the connection cannot be reused.
            self._discard(conn)
            raise
        except OSError as exc:
            raise self._broken(conn, op, context, exc) from exc
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
            if frame.binding > self._binding:
                self._binding = frame.binding
        self._checkin(conn)
        if frame.is_error:
            raise self._rebuild_error(wire.decode_error(frame.payload))
        return frame

    def _broken(
        self, conn: socket.socket, op: int, context: JoinContext | None, exc: OSError
    ) -> BaseException:
        """Tear down a connection that failed mid-exchange; the typed
        error to raise for it."""
        timed_out = isinstance(exc, (socket.timeout, BlockingIOError))
        # A peer that closed or reset this connection (a restarted or
        # killed node) closed the pooled ones too: the retry dials fresh
        # rather than spend its attempts on them. A slow trip says
        # nothing about the other connections.
        self._discard(conn, flush=not timed_out)
        name = wire.OP_NAMES.get(op, op)
        if not timed_out:
            return ShardUnavailable(self.endpoint, f"{name} failed: {exc}")
        # A timed-out trip is deadline expiry only when the budget is
        # actually spent; a round trip bounded by the smaller
        # request_timeout with deadline to spare is a transient shard
        # fault — retryable, so the remaining budget is used. (A spent
        # budget reads a non-blocking socket: BlockingIOError is its
        # timeout.)
        return _expired(context) or ShardUnavailable(
            self.endpoint, f"{name} timed out"
        )

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

    def query(self, item, context: JoinContext | None = None, since=None):
        """Probe the remote shard; returns its shard-local answer.

        ``since`` is extended as ``SimilarityIndex.query`` extends it:
        only its watermark travels, the node answers the matches among
        the records appended after it, and they are spliced on here.
        """
        return self.begin_query(item, context, since).result()

    def begin_query(
        self, item, context: JoinContext | None = None, since=None
    ) -> "PendingQuery":
        """Send a probe's QUERY frame now; read its answer later.

        Never raises: a send that failed (refused, deadline already
        spent) is kept and raised by :meth:`PendingQuery.result` as its
        first attempt. Lets one thread put a query on several nodes'
        wires before it waits on any of them. With no idle connection
        the dial is only begun, non-blocking; :func:`finish_dials` (or
        ``result()``) completes it and sends the frame.
        """
        body: dict = {"item": item}
        if since is not None and since.extendable:
            body["since"] = [since.records, since.binding]

        def answer(frame: wire.Frame):
            matches, extended = wire.decode_answer(frame.payload)
            if extended:
                matches[:0] = [
                    MatchPair(pair.rid_a, matches.records, pair.similarity)
                    for pair in since
                ]
            return matches

        return PendingQuery(
            self, wire.OP_QUERY, wire.encode_json(body), context, decode=answer
        )

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
        """Heartbeat probe; returns the node's (epoch, binding)."""
        frame = self._call(wire.OP_PING)
        return (frame.epoch, frame.binding)

    @property
    def binding(self) -> int:
        """The node's bind stamp: the largest any response reported."""
        with self._lock:
            return self._binding

    def begin_counters(self, context: JoinContext | None = None) -> "PendingQuery":
        """Ask the node for its cost counters now (one HEALTH op, begun
        as :meth:`begin_query` begins a probe); ``result()`` reads them."""
        return PendingQuery(self, wire.OP_HEALTH, b"", context, decode=_counters)

    def __len__(self) -> int:
        return int(self.health().get("records", 0))

    def payload(self, rid: int):
        raise NotImplementedError(
            "record payloads are not served over the shard wire; read them"
            " on the shard node itself"
        )

    def __repr__(self) -> str:
        return f"RemoteShardClient({self.endpoint})"


class PendingQuery:
    """One op in flight — a probe's QUERY (see
    :meth:`RemoteShardClient.begin_query`) or any other op the client
    makes: its frame sent (or its connection still being dialed), the
    answer not yet read.

    Every attempt begins the same way and never raises: the frame goes
    out on an idle pooled connection, or a non-blocking dial to the
    node's next address is begun, which :func:`finish_dials` completes
    (sending the frame the moment the connection is up). :meth:`result`
    reads the answer under the client's retry policy, with the same
    ``on_retry`` and deadline clamp for every op: the first attempt is
    the one begun already, each retry begins a fresh one.
    :meth:`fileno` exposes the reply's socket to ``select``/``poll``;
    :meth:`cancel` closes it unread. Exactly one of the two must end
    every handle, or its connection stays checked out.
    """

    __slots__ = (
        "_client", "_op", "_payload", "_context", "_timeout", "_decode",
        "_sent", "_error", "_dial", "_dial_expires", "_addresses",
    )

    def __init__(
        self,
        client: RemoteShardClient,
        op: int,
        payload: bytes = b"",
        context: JoinContext | None = None,
        timeout: float | None = None,
        decode: Callable[[wire.Frame], object] | None = None,
    ):
        self._client = client
        self._op = op
        self._payload = payload
        self._context = context
        self._timeout = timeout
        #: Turns the response frame into ``result()``'s value (None:
        #: the frame itself).
        self._decode = decode
        #: The connection being dialed (non-blocking), until it is up.
        self._dial: socket.socket | None = None
        self._begin()

    def _begin(self) -> None:
        """Begin one attempt; a failure is kept for :meth:`result`."""
        client = self._client
        self._sent: tuple[socket.socket, int] | None = None
        self._error: Exception | None = None
        try:
            conn = client._take_idle()
            if conn is not None:
                self._send(conn)
                return
            # A spent deadline dials nothing; a node that drops SYNs
            # holds the dial for the connect timeout or the rest of the
            # deadline, whichever is sooner — in real time, as a socket
            # timeout is: poll waits in it.
            remaining, _ = client._budget(self._context, self._timeout)
            self._dial_expires = time.monotonic() + min(
                b for b in (client.connect_timeout, remaining, _INF) if b is not None
            )
            self._addresses = list(client._addresses)
            self._dial_next(OSError("no address to dial"))
        except Exception as exc:  # noqa: BLE001 — raised by result()
            self._error = exc

    def _send(self, conn: socket.socket) -> None:
        try:
            self._sent = self._client._send(
                self._op, self._payload, self._context, self._timeout, conn
            )
        except Exception as exc:  # noqa: BLE001 — raised by result()
            self._error = exc

    def _dial_next(self, error: OSError) -> None:
        """Begin a non-blocking connect to the next address; with none
        left, keep the last failure for :meth:`result`."""
        while self._addresses:
            family, kind, proto, _, address = self._addresses.pop(0)
            try:
                conn = socket.socket(family, kind, proto)
            except OSError as exc:
                error = exc
                continue
            with self._client._lock:
                if self._client._closed:  # close() ran since this op began
                    conn.close()
                    error = OSError("client is closed")
                    break
                self._client._sockets.add(conn)
            conn.setblocking(False)
            code = conn.connect_ex(address)
            if code in (0, errno.EINPROGRESS):
                self._dial = conn
                return
            wire.close_quietly(conn)
            error = OSError(code, os.strerror(code))
        self._dial_failed(error)

    def _dial_failed(self, exc: OSError) -> None:
        """Keep the typed error of a dial that failed or ran out of time."""
        self._error = _expired(self._context) or ShardUnavailable(
            self._client.endpoint, f"connect failed: {exc}"
        )

    def _dial_left(self) -> float:
        return self._dial_expires - time.monotonic()

    def _dialed(self) -> None:
        """The dialed socket polled ready: send the frame on it if the
        connect succeeded, else try the next address."""
        conn, self._dial = self._dial, None
        code = conn.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if code:
            wire.close_quietly(conn)
            self._dial_next(OSError(code, os.strerror(code)))
            return
        conn.setblocking(True)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send(conn)

    def _dial_timed_out(self) -> None:
        conn, self._dial = self._dial, None
        wire.close_quietly(conn)
        self._dial_failed(socket.timeout("timed out"))

    def fileno(self) -> int:
        """The socket the answer arrives on; -1 when no frame is out
        to wait for (the dial is pending or failed, the send failed,
        or the answer was read)."""
        return self._sent[0].fileno() if self._sent is not None else -1

    def result(self):
        """The node's answer, decoded (a QUERY's shard-local matches,
        ``since`` spliced on)."""
        policy = self._client.retry_policy
        if policy is None:
            frame = self._try()
        else:
            frame = policy.run(
                self._try, on_retry=self._client._count_retry,
                context=self._context,
            )
        return frame if self._decode is None else self._decode(frame)

    def _try(self) -> wire.Frame:
        """One attempt: begun here unless it is the one begun already."""
        if self._sent is None and self._error is None and self._dial is None:
            self._begin()
        finish_dials((self,))
        sent, error = self._sent, self._error
        self._sent = self._error = None
        if error is not None:
            raise error
        return self._client._receive(sent, self._op, self._context, self._timeout)

    def cancel(self) -> None:
        """Close the connection without reading the answer. A closed
        race loser is not a transport failure, so it is not counted in
        :attr:`RemoteShardClient.reconnects`."""
        sent, self._sent = self._sent, None
        dial, self._dial = self._dial, None
        self._error = None
        for conn in (sent[0] if sent is not None else None, dial):
            if conn is not None:
                wire.close_quietly(conn)


def finish_dials(pending) -> None:
    """Complete the dials still in progress among ``pending`` ops, all
    at once.

    Each dial is waited for within its own bound (the client's connect
    timeout, clamped to the op's deadline), and its op's frame is sent
    the moment the connection is up: a node that drops SYNs holds this
    call for that bound, never the other nodes' frames past theirs. A
    dial that fails or runs out of time keeps its failure for
    :meth:`PendingQuery.result`.
    """
    dialing = [query for query in pending if query._dial is not None]
    while dialing:
        left = min(query._dial_left() for query in dialing)
        ready: set[int] = set()
        if left > 0:
            poller = select.poll()
            for query in dialing:
                poller.register(query._dial, select.POLLOUT)
            ready = {
                fd for fd, _ in poller.poll(None if left == _INF else left * 1000)
            }
        for query in dialing:
            if query._dial.fileno() in ready:
                query._dialed()
            elif query._dial_left() <= 0:
                query._dial_timed_out()
        dialing = [query for query in dialing if query._dial is not None]


_INF = float("inf")


def _counters(frame: wire.Frame) -> dict:
    counters = wire.decode_json(frame.payload).get("counters", {})
    return counters if isinstance(counters, dict) else {}


def _expired(context: JoinContext | None) -> JoinTimeout | None:
    """Deadline expiry, when ``context``'s budget is actually spent."""
    if context is not None:
        remaining = context.remaining()
        if remaining is not None and remaining <= 0:
            return JoinTimeout(context.elapsed(), context.deadline_seconds)
    return None
