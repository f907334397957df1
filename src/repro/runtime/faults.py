"""Deterministic fault injection for the hardened runtime tests.

Nothing here touches production behaviour; these are the seams the
runtime exposes (injectable clock, filesystem shim, cancellation token)
filled with controllable failure doubles:

* :class:`FakeClock` — a manual/auto-advancing monotonic clock, so
  deadline expiry is exact and instant under test.
* :class:`FailingFilesystem` — a :class:`RealFilesystem` that raises
  :class:`InjectedFault` at the N-th chosen operation, simulating a
  crash mid-write / mid-rename.
* :class:`CountdownCancellation` — a cancellation token that trips
  itself after N observations, simulating a kill at an exact record
  boundary.
* :class:`ShardFaults` — a per-shard fault plan (kill / slow / error a
  chosen shard) consulted by the sharded serving tier's probe path, so
  chaos tests can take down exactly one fault domain.
* :class:`NetworkFaults` — an in-process TCP proxy that sits between a
  :class:`~repro.serving.transport.client.RemoteShardClient` and its
  shard node and injects *network* failure modes (refuse connections,
  delay / corrupt / truncate response bytes, kill the connection
  mid-response), so the remote-shard chaos scenarios exercise the wire
  itself, not a simulation of it.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.runtime.context import CancellationToken
from repro.runtime.snapshot import RealFilesystem

__all__ = [
    "CountdownCancellation",
    "FailingFilesystem",
    "FakeClock",
    "InjectedFault",
    "NetworkFaults",
    "ShardFaults",
]


class InjectedFault(OSError):
    """The error every injected filesystem failure raises."""

    def __init__(self, operation: str, call_number: int):
        super().__init__(f"injected fault at {operation} call #{call_number}")
        self.operation = operation
        self.call_number = call_number


class FakeClock:
    """Injectable monotonic clock.

    Args:
        start: initial reading.
        auto_advance: seconds added on *every* read — with the default
            0.0 the clock only moves via :meth:`advance`.
    """

    def __init__(self, start: float = 0.0, auto_advance: float = 0.0):
        self.now = start
        self.auto_advance = auto_advance

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        reading = self.now
        self.now += self.auto_advance
        return reading


class CountdownCancellation(CancellationToken):
    """Token that cancels itself after ``after_checks`` observations.

    The driver loop polls ``cancelled`` once per record, so
    ``CountdownCancellation(after_checks=25)`` kills a join at exactly
    the 25th record boundary — a deterministic stand-in for an operator
    hitting Ctrl-C mid-run.
    """

    def __init__(self, after_checks: int, reason: str = "injected kill"):
        super().__init__()
        if after_checks < 1:
            raise ValueError(f"after_checks must be >= 1, got {after_checks}")
        self.after_checks = after_checks
        self.checks = 0
        self._reason_on_trip = reason

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        self.checks += 1
        if self.checks >= self.after_checks:
            self.cancel(self._reason_on_trip)
        return self._cancelled


class _ShardFault:
    """One armed fault: its mode, its slow duration, its shot budget."""

    __slots__ = ("mode", "seconds", "remaining")

    def __init__(self, mode: str, seconds: float, remaining: int | None):
        self.mode = mode
        self.seconds = seconds
        self.remaining = remaining


class ShardFaults:
    """Deterministic shard-level fault injection for sharded serving.

    Arm a fault against a shard id; the sharded server's probe path
    calls :meth:`apply` at the top of every probe attempt for that
    shard:

    * ``kill``  — the probe raises :class:`InjectedFault` (an
      ``OSError``, so a configured retry policy classifies it as
      transient — a killed shard with retries exhausts them).
    * ``slow``  — the probe sleeps ``seconds`` first, simulating a
      straggler; with a deadline shorter than the sleep the probe then
      dies of :class:`~repro.runtime.errors.JoinTimeout`, with a hedging
      policy the re-issued probe races it. That holds for a local
      shard, whose probe runs on its pool; a remote shard's probe
      applies the fault on the admission worker before its frame is
      sent, so there the sleep stalls the whole scatter — the other
      shards' frames and probes wait too, the deadline cannot cut it
      short, and no hedge races it. A slow *node* is
      :class:`NetworkFaults` ``delay``.
    * ``error`` — same raise as ``kill``, kept distinct in the message
      and tallies so tests can assert which scenario fired.

    ``times`` bounds how many probe attempts the fault hits (``None`` =
    every attempt until :meth:`clear`). One fault per shard: arming a
    new one replaces the old. All methods are thread-safe; ``injected``
    tallies applications per shard for exact-accounting assertions.
    """

    def __init__(self, sleep=time.sleep):
        self._sleep = sleep
        self._lock = threading.Lock()
        self._faults: dict[int, _ShardFault] = {}
        self.injected: dict[int, int] = {}

    def kill(self, shard_id: int, times: int | None = None) -> None:
        """Every probe of ``shard_id`` raises (shard is down)."""
        self._arm(shard_id, "kill", 0.0, times)

    def slow(self, shard_id: int, seconds: float, times: int | None = None) -> None:
        """Every probe of ``shard_id`` stalls ``seconds`` first."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._arm(shard_id, "slow", seconds, times)

    def error(self, shard_id: int, times: int | None = None) -> None:
        """Every probe of ``shard_id`` fails with an injected error."""
        self._arm(shard_id, "error", 0.0, times)

    def _arm(self, shard_id: int, mode: str, seconds: float, times: int | None):
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 or None, got {times}")
        with self._lock:
            self._faults[shard_id] = _ShardFault(mode, seconds, times)

    def clear(self, shard_id: int | None = None) -> None:
        """Disarm one shard's fault, or every fault when id is omitted."""
        with self._lock:
            if shard_id is None:
                self._faults.clear()
            else:
                self._faults.pop(shard_id, None)

    def apply(self, shard_id: int) -> None:
        """The probe-path seam: sleep or raise per the armed fault."""
        with self._lock:
            fault = self._faults.get(shard_id)
            if fault is None:
                return
            if fault.remaining is not None:
                fault.remaining -= 1
                if fault.remaining <= 0:
                    del self._faults[shard_id]
            shot = self.injected.get(shard_id, 0) + 1
            self.injected[shard_id] = shot
            mode, seconds = fault.mode, fault.seconds
        if mode == "slow":
            self._sleep(seconds)
            return
        raise InjectedFault(f"shard {shard_id} {mode}", shot)


class _NetFault:
    """One armed network fault: mode, its parameters, its shot budget."""

    __slots__ = ("mode", "seconds", "nbytes", "remaining")

    def __init__(self, mode: str, seconds: float, nbytes: int, remaining: int | None):
        self.mode = mode
        self.seconds = seconds
        self.nbytes = nbytes
        self.remaining = remaining


class NetworkFaults:
    """In-process TCP fault proxy: a hostile network in one object.

    Sits between a shard client and its node: listens on an ephemeral
    local port (:attr:`address`), pairs every accepted connection with
    a fresh connection to the upstream node, and pumps bytes both ways
    — transparently until a fault is armed:

    * ``refuse``   — accepted connections are closed before any byte
      flows (node down at connect; the client's dial "succeeds" against
      the proxy but the exchange dies immediately).
    * ``delay``    — response bytes are stalled ``seconds`` before
      forwarding (straggling node; with a shorter deadline the client
      times out).
    * ``corrupt``  — a byte of the response stream is flipped (the
      frame CRC32 catches it as ``FrameChecksumError``).
    * ``truncate`` — the response stream is cut after ``nbytes`` and
      the connection closed (torn frame mid-response).
    * ``kill``     — the connection is closed right after the first
      response byte (node death mid-response).

    One fault armed at a time (arming replaces); ``times`` bounds how
    many applications fire (``None`` = every one until :meth:`clear`).
    ``refuse`` counts per connection, the others per response burst.
    ``injected`` tallies firings per mode for exact-accounting
    assertions. :meth:`retarget` points the proxy at a restarted node
    (new port) without the client ever noticing — the
    node-comes-back-after-restart scenario. Thread-safe throughout.
    """

    _CHUNK = 65536

    def __init__(self, upstream_host: str, upstream_port: int, sleep=time.sleep):
        self._upstream = (upstream_host, upstream_port)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._fault: _NetFault | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._sockets: set[socket.socket] = set()
        self._stopping = False
        self.injected: dict[str, int] = {}
        self.connections = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "NetworkFaults":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="network-faults-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """Where clients should connect (the proxy's listen address)."""
        if self._listener is None:
            raise RuntimeError("proxy is not started")
        return self._listener.getsockname()

    @property
    def port(self) -> int:
        return self.address[1]

    def retarget(self, upstream_host: str, upstream_port: int) -> None:
        """Point future connections at a (restarted) node."""
        with self._lock:
            self._upstream = (upstream_host, upstream_port)

    def stop(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            sockets = list(self._sockets)
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
        for sock in sockets:
            self._close(sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)

    def __enter__(self) -> "NetworkFaults":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- arming ---------------------------------------------------------

    def refuse(self, times: int | None = None) -> None:
        """Close every accepted connection immediately (node down).

        Only affects connections accepted *after* arming; pair with
        :meth:`sever` to also reset connections already established
        (a dead node resets those too — pooled clients would otherwise
        keep talking through the proxy untouched).
        """
        self._arm("refuse", 0.0, 0, times)

    def sever(self) -> None:
        """Reset every currently-established proxied connection."""
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            self._close(sock)

    def delay(self, seconds: float, times: int | None = None) -> None:
        """Stall response bytes ``seconds`` before forwarding."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._arm("delay", seconds, 0, times)

    def corrupt(self, times: int | None = None) -> None:
        """Flip a byte of the response stream (checksum violation)."""
        self._arm("corrupt", 0.0, 0, times)

    def truncate(self, nbytes: int = 8, times: int | None = None) -> None:
        """Cut the response stream after ``nbytes``, then close."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self._arm("truncate", 0.0, nbytes, times)

    def kill(self, times: int | None = None) -> None:
        """Close the connection right after the response starts."""
        self._arm("kill", 0.0, 0, times)

    def _arm(self, mode: str, seconds: float, nbytes: int, times: int | None) -> None:
        if times is not None and times < 1:
            raise ValueError(f"times must be >= 1 or None, got {times}")
        with self._lock:
            self._fault = _NetFault(mode, seconds, nbytes, times)

    def clear(self) -> None:
        """Disarm; in-flight and future connections flow transparently."""
        with self._lock:
            self._fault = None

    @property
    def pending(self) -> bool:
        """Whether an armed fault still has budget left to fire.

        Lets a test arm ``times=1``, do one exchange, and wait for the
        fault to have actually landed (it may hit a heartbeat instead
        of the test's own request) before arming the next one.
        """
        with self._lock:
            return self._fault is not None

    def _claim(self, modes: tuple[str, ...]) -> _NetFault | None:
        """Consume one application of the armed fault, if it matches."""
        with self._lock:
            fault = self._fault
            if fault is None or fault.mode not in modes:
                return None
            if fault.remaining is not None:
                fault.remaining -= 1
                if fault.remaining <= 0:
                    self._fault = None
            self.injected[fault.mode] = self.injected.get(fault.mode, 0) + 1
            return fault

    # -- the proxy ------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if self._stopping:
                self._close(client)
                return
            self.connections += 1
            if self._claim(("refuse",)) is not None:
                self._close(client)
                continue
            with self._lock:
                upstream_addr = self._upstream
            try:
                upstream = socket.create_connection(upstream_addr, timeout=1.0)
            except OSError:
                # Node really is down: behaves exactly like refuse.
                self._close(client)
                continue
            upstream.settimeout(None)  # bound the dial only, not idling
            with self._lock:
                self._sockets.add(client)
                self._sockets.add(upstream)
            threading.Thread(
                target=self._pump_requests,
                args=(client, upstream),
                name="network-faults-up",
                daemon=True,
            ).start()
            threading.Thread(
                target=self._pump_responses,
                args=(upstream, client),
                name="network-faults-down",
                daemon=True,
            ).start()

    def _pump_requests(self, client: socket.socket, upstream: socket.socket) -> None:
        """client → node: always transparent (faults hit responses)."""
        try:
            while True:
                data = client.recv(self._CHUNK)
                if not data:
                    break
                upstream.sendall(data)
        except OSError:
            pass
        finally:
            self._close(client)
            self._close(upstream)

    def _pump_responses(self, upstream: socket.socket, client: socket.socket) -> None:
        """node → client: the armed fault is applied here."""
        try:
            while True:
                data = upstream.recv(self._CHUNK)
                if not data:
                    break
                fault = self._claim(("delay", "corrupt", "truncate", "kill"))
                if fault is None:
                    client.sendall(data)
                    continue
                if fault.mode == "delay":
                    self._sleep(fault.seconds)
                    client.sendall(data)
                elif fault.mode == "corrupt":
                    # Flip the burst's last byte — lands on the CRC32
                    # trailer (or payload) but never the length field,
                    # so it always surfaces as a typed
                    # FrameChecksumError, never a misframed stream.
                    flipped = bytearray(data)
                    flipped[-1] ^= 0xFF
                    client.sendall(bytes(flipped))
                elif fault.mode == "truncate":
                    client.sendall(data[: fault.nbytes])
                    break
                else:  # kill: the response started, then the peer died
                    client.sendall(data[:1])
                    break
        except OSError:
            pass
        finally:
            self._close(client)
            self._close(upstream)

    def _close(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets.discard(sock)
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass


class FailingFilesystem(RealFilesystem):
    """Filesystem shim that fails deterministically at one operation.

    Args:
        fail_operation: which call to sabotage — ``"open"``,
            ``"write"``, ``"fsync"``, or ``"replace"``.
        fail_at_call: 1-based index of the sabotaged call among calls
            to that operation (so the second ``replace`` can succeed
            while the first fails, etc.).

    Counts every operation (``calls`` dict) so tests can assert the
    failure actually happened where intended.
    """

    def __init__(self, fail_operation: str, fail_at_call: int = 1):
        operations = ("open", "write", "fsync", "replace")
        if fail_operation not in operations:
            raise ValueError(
                f"fail_operation must be one of {operations}, got {fail_operation!r}"
            )
        if fail_at_call < 1:
            raise ValueError(f"fail_at_call must be >= 1, got {fail_at_call}")
        self.fail_operation = fail_operation
        self.fail_at_call = fail_at_call
        self.calls = {name: 0 for name in operations}
        self.faults_injected = 0

    def _trip(self, operation: str) -> None:
        self.calls[operation] += 1
        if (
            operation == self.fail_operation
            and self.calls[operation] == self.fail_at_call
        ):
            self.faults_injected += 1
            raise InjectedFault(operation, self.calls[operation])

    def open(self, path: str, mode: str):
        self._trip("open")
        handle = super().open(path, mode)
        if "w" in mode:
            return _WriteTrippingHandle(handle, self)
        return handle

    def fsync(self, handle) -> None:
        self._trip("fsync")
        inner = getattr(handle, "_inner", handle)
        super().fsync(inner)

    def replace(self, src: str, dst: str) -> None:
        self._trip("replace")
        super().replace(src, dst)


class _WriteTrippingHandle:
    """File-handle proxy that routes ``write`` through the fault seam."""

    def __init__(self, inner, fs: FailingFilesystem):
        self._inner = inner
        self._fs = fs

    def write(self, data):
        self._fs._trip("write")
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)
