"""ShardServer: one SimilarityIndex shard behind a TCP socket.

The node side of the remote shard transport. A :class:`ShardServer`
owns exactly one :class:`~repro.core.service.SimilarityIndex` and
serves the wire ops (:mod:`repro.serving.transport.wire`) over plain
TCP — one daemon handler thread per connection, the index's own
writer-preferring RWLock doing the real concurrency control, so N
connections probing concurrently behave exactly like N threads on an
in-process :class:`~repro.serving.server.IndexServer`.

The node is deliberately dumb about the cluster: it never sees the
:class:`~repro.serving.router.ShardRouter`, global rids, or the other
shards. The front end (:class:`~repro.serving.sharded.ShardedIndexServer`
with remote endpoints) owns routing and the global-rid mapping; the
node answers in shard-local rids over whatever records the front end
routed to it — the same contract the in-process ``_Shard`` has.

Zero-downtime reindex crosses the wire too: the node hosts its index
inside a shard-shaped holder (``index`` / ``rwlock`` / ``epoch`` /
``begin_reindex()``), so the ``reindex`` op runs the very same
:class:`~repro.serving.generation.GenerationBuilder` two-phase flip the
in-process tier uses — build off-lock while queries keep serving the
old generation, flip under the write lock, bump the node epoch. Every
response header carries the node's epoch and ``binding`` stamp, which
is how the front end's per-shard query cache follows it across the
network.

Failure discipline per connection: a protocol violation or checksum
mismatch on a *request* means the byte stream can no longer be framed,
so the node answers with a best-effort error frame and drops the
connection; an op that merely *fails* (deadline expiry, a fault-injected
probe) answers with a typed error frame on a healthy connection that
keeps serving.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Callable

from repro.core.service import QueryAnswer, SimilarityIndex
from repro.runtime.context import JoinContext
from repro.runtime.errors import RidDesync
from repro.runtime.rwlock import RWLock
from repro.serving.cache import query
from repro.serving.generation import GenerationBuilder, _ReindexGuard
from repro.serving.transport import wire

__all__ = ["ShardServer"]


class _HostedShard:
    """Shard-shaped holder for the node's index (GenerationBuilder's duck).

    Same locking discipline as the in-process ``_Shard``: ``rwlock``
    guards the index *reference* — ops grab the reference under the
    read side, a generation flip swaps it under the write side and
    bumps ``epoch``.
    """

    __slots__ = ("index", "rwlock", "epoch", "last_add", "_reindex_guard")

    def __init__(self, index: SimilarityIndex):
        self.index = index
        self.rwlock = RWLock()
        self.epoch = 0
        #: ``(rid, token)`` of the last verified insert — the dedupe
        #: memory for idempotent ADD (only the latest insert can be a
        #: lost-response retry, because the front end serializes adds).
        self.last_add: tuple[int, str] | None = None
        self._reindex_guard = _ReindexGuard()

    def begin_reindex(self) -> Callable[[], None]:
        return self._reindex_guard.acquire("hosted shard")


class ShardServer:
    """Serve one similarity-index shard over TCP.

    Args:
        index: the shard's :class:`SimilarityIndex` (thread-safe; may
            be pre-populated or filled by the front end via ``add``
            ops).
        host / port: bind address; port 0 picks an ephemeral port —
            read :attr:`port` after :meth:`start`.
        index_factory: builds the empty next-generation index for the
            ``reindex`` op; defaults to cloning the live index's
            configuration (same predicate/tokenizer/filter/backend and
            the *same* vocabulary dict, so token ids survive the flip).
        clock: injectable monotonic clock (deadlines, timings).
        backlog: TCP listen backlog.

    Start with :meth:`start` (or as a context manager); :meth:`stop` is
    idempotent, tears down the listener and every open connection, and
    waits up to a second for the connection-handler threads to exit.
    """

    def __init__(
        self,
        index: SimilarityIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        index_factory: Callable[[], SimilarityIndex] | None = None,
        clock: Callable[[], float] = time.monotonic,
        backlog: int = 16,
    ):
        self._shard = _HostedShard(index)
        self.host = host
        self._requested_port = port
        self.index_factory = index_factory
        self.clock = clock
        self.backlog = backlog
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._handlers: set[threading.Thread] = set()
        self._lock = threading.Lock()
        self._stopping = False
        self._started = False
        #: Per-op served-request tallies (health/diagnostics).
        self.requests: dict[str, int] = {}
        self.errors = 0
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def index(self) -> SimilarityIndex:
        """The currently-serving index generation."""
        with self._shard.rwlock.read_locked():
            return self._shard.index

    @property
    def epoch(self) -> int:
        with self._shard.rwlock.read_locked():
            return self._shard.epoch

    def start(self) -> "ShardServer":
        if self._started:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self._requested_port))
            listener.listen(self.backlog)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self._started = True
        self._started_at = self.clock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every open connection, then join the
        handler threads (bounded); idempotent."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            connections = list(self._connections)
        if self._listener is not None:
            try:
                # shutdown() wakes an accept() blocked in another
                # thread (a bare close() does not on Linux).
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in connections:
            _close_quietly(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        # Wait (bounded) for the connection handlers, so one that dies
        # surfaces while its caller is still stopping the node.
        with self._lock:
            handlers = list(self._handlers)
        deadline = time.monotonic() + 1.0
        for handler in handlers:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                # Checked under the lock stop() takes, so every
                # connection it misses is closed here instead.
                if self._stopping:
                    _close_quietly(conn)
                    return
                self._connections.add(conn)
                # A handler leaves the set only once it is dead, which
                # is after any exception it died of was reported; it is
                # started before stop() can see it, so stop() can join it.
                self._handlers = {h for h in self._handlers if h.is_alive()}
                handler = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="shard-server-conn",
                    daemon=True,
                )
                handler.start()
                self._handlers.add(handler)

    def _serve_connection(self, conn: socket.socket) -> None:
        reader = wire.socket_reader(conn)
        try:
            while not self._stopping:
                try:
                    frame = wire.read_frame(reader)
                except wire.WireProtocolError as exc:
                    # The stream can no longer be framed: best-effort
                    # typed error, then drop the connection.
                    self.errors += 1
                    try:
                        conn.sendall(
                            wire.encode_frame(
                                wire.OP_PING,
                                wire.encode_error(exc),
                                flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
                            )
                        )
                    except OSError:
                        pass
                    return
                except (OSError, ValueError):
                    return  # peer went away (ValueError: closed fd)
                response = self._dispatch(frame)
                try:
                    conn.sendall(response)
                except OSError:
                    return
        finally:
            _close_quietly(conn)
            with self._lock:
                self._connections.discard(conn)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def _context_for(self, deadline: float) -> JoinContext | None:
        """Rebuild the caller's remaining budget as a local context.

        The frame header carries *remaining seconds* (negative =
        unbounded), so the node enforces the same deadline the front
        end carved for this shard — a probe can't outlive its query
        just because it crossed a socket.
        """
        if deadline < 0:
            return None
        context = JoinContext(
            deadline_seconds=max(deadline, 1e-9), clock=self.clock
        )
        context.start()
        return context

    def _dispatch(self, frame: wire.Frame) -> bytes:
        op_name = wire.OP_NAMES.get(frame.op, "?")
        self.requests[op_name] = self.requests.get(op_name, 0) + 1
        try:
            payload = self._handle(frame)
            flags = wire.FLAG_RESPONSE
        except Exception as exc:  # noqa: BLE001 — delivered as error frame
            # Exception, not BaseException: KeyboardInterrupt/SystemExit
            # raised in a handler thread must take the connection down,
            # not masquerade as a typed wire error on a live stream.
            # Every op failure worth shipping (deadline expiry, cancel,
            # injected faults) is an Exception.
            self.errors += 1
            payload = wire.encode_error(exc)
            flags = wire.FLAG_RESPONSE | wire.FLAG_ERROR
        with self._shard.rwlock.read_locked():
            epoch, binding = self._shard.epoch, self._shard.index.binding
        return wire.encode_frame(
            frame.op,
            payload,
            request_id=frame.request_id,
            flags=flags,
            epoch=epoch,
            binding=binding,
        )

    def _handle(self, frame: wire.Frame) -> bytes:
        op = frame.op
        if op == wire.OP_PING:
            return b""
        if op == wire.OP_QUERY:
            body = wire.decode_json(frame.payload)
            context = self._context_for(frame.deadline)
            with self._shard.rwlock.read_locked():
                index = self._shard.index
            since = body.get("since")
            if since is not None:
                if not (
                    isinstance(since, list)
                    and len(since) == 2
                    and all(type(value) is int and value >= 0 for value in since)
                ):
                    raise wire.WireProtocolError(f"malformed since {since!r}")
                # The front end holds the cached pairs: extend an empty
                # stand-in at their watermark, answering only new ones.
                since = QueryAnswer((), *since)
            answer = query(index, body["item"], context, since)
            extended = since is not None and (
                answer.binding == since.binding and since.records <= answer.records
            )
            return wire.encode_answer(answer, extended)
        if op == wire.OP_ADD:
            body = wire.decode_json(frame.payload)
            expected = body.get("rid")
            token = body.get("token")
            # Read side, like the in-process tier's add: the index has
            # its own write lock; the reference lock only has to keep
            # the insert out of a generation flip's swap window.
            with self._shard.rwlock.read_locked():
                index = self._shard.index
                if expected is not None:
                    # Idempotent insert: the front end names the rid it
                    # expects plus a per-insert token. A retried ADD
                    # whose first response was lost after the commit
                    # (same rid, same token as the last insert) dedupes
                    # instead of double-inserting; any other
                    # disagreement about the next rid fails loudly
                    # (non-retryable) before it can desync the front
                    # end's global-rid map.
                    held = len(index)
                    if (
                        expected == held - 1
                        and self._shard.last_add == (expected, token)
                    ):
                        return wire.encode_json(
                            {"rid": expected, "deduped": True}
                        )
                    if expected != held:
                        raise RidDesync(
                            f"front end expects the next insert at rid"
                            f" {expected} but the node holds {held} records"
                        )
                rid = index.add(body["item"], payload=body.get("payload"))
                if expected is not None:
                    self._shard.last_add = (rid, token)
            if expected is not None and rid != expected:
                raise RidDesync(
                    f"insert landed at rid {rid}, front end"
                    f" expected {expected}"
                )
            return wire.encode_json({"rid": rid})
        if op == wire.OP_REINDEX:
            builder = GenerationBuilder(
                self._shard, self._next_generation_factory(), clock=self.clock
            )
            builder.build_and_flip()
            return wire.encode_json(
                {
                    "built": builder.built,
                    "caught_up": builder.caught_up,
                    "flipped": builder.flipped,
                    "seconds": builder.seconds,
                }
            )
        if op == wire.OP_HEALTH:
            return wire.encode_json(self.health())
        raise wire.WireProtocolError(f"op {op} is not servable")

    def health(self) -> dict:
        """The node's health snapshot (also what the HEALTH op serves)."""
        with self._shard.rwlock.read_locked():
            index = self._shard.index
            epoch = self._shard.epoch
        started_at = self._started_at
        return {
            "records": len(index),
            "binding": index.binding,
            "epoch": epoch,
            "counters": index.counters_snapshot(),
            "requests": dict(self.requests),
            "errors": self.errors,
            "uptime": (
                self.clock() - started_at if started_at is not None else None
            ),
        }

    def _next_generation_factory(self) -> Callable[[], SimilarityIndex]:
        if self.index_factory is not None:
            return self.index_factory
        with self._shard.rwlock.read_locked():
            live = self._shard.index
        # Clone the live configuration, sharing the vocabulary dict so
        # token ids (and thus scores) are identical across the flip.
        return lambda: SimilarityIndex(
            live.predicate,
            tokenizer=live.tokenizer,
            bitmap_filter=live._bitmap_config,
            merge_backend=live.merge_backend,
            vocabulary=live._vocabulary,
        )


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass
