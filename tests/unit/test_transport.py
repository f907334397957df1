"""ShardServer + RemoteShardClient: one shard across a real socket.

Every test runs a genuine TCP loopback server — no mocked sockets —
because the contract under test is precisely the cross-process one:
typed errors for every failure mode (connect refused, deadline expiry,
corrupt frames), pair-exact answers and extensions, bind stamps that
move with the remote index, and reconnect/retry accounting the sharded tier's
health report surfaces.
"""

import itertools
import select
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.service import SimilarityIndex
from repro.predicates import JaccardPredicate
from repro.runtime.context import JoinContext
from repro.runtime.errors import (
    FrameChecksumError,
    JoinInterrupted,
    JoinTimeout,
    RidDesync,
    ShardUnavailable,
    WireProtocolError,
)
from repro.runtime.faults import NetworkFaults
from repro.serving import RetryPolicy
from repro.serving.transport import RemoteShardClient, ShardServer, parse_endpoint
from repro.serving.transport import wire
from repro.serving.transport.client import finish_dials
from repro.text.tokenizers import tokenize_words

WAIT = 30.0

CORPUS = [
    "alpha beta gamma delta",
    "alpha beta gamma epsilon",
    "delta epsilon zeta eta",
    "alpha zeta eta theta",
    "beta gamma delta epsilon",
]


def _index(texts=CORPUS) -> SimilarityIndex:
    index = SimilarityIndex(JaccardPredicate(0.3), tokenizer=tokenize_words)
    for text in texts:
        index.add(text)
    return index


def _fingerprint(matches):
    return [(m.rid_a, m.rid_b, m.similarity) for m in matches]


def _wait_until_closed(conns, timeout: float = WAIT) -> bool:
    """Whether every connection's peer has hung up (EOF readable)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        readable, _, _ = select.select(conns, [], [], 0.05)
        if len(readable) == len(conns):
            return True
    return False


class TestRoundTrips:
    def test_query_matches_local_index_exactly(self):
        index = _index()
        with ShardServer(_index()) as node:
            client = RemoteShardClient(*node.address)
            try:
                for probe in CORPUS + ["beta gamma delta", "nothing here"]:
                    assert _fingerprint(client.query(probe)) == _fingerprint(
                        index.query(probe)
                    )
            finally:
                client.close()

    def test_token_list_query_matches_local_index(self):
        index = _index()
        probes = [text.split() for text in CORPUS] + [[], ["nothing"]]
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                for tokens in probes:
                    assert _fingerprint(client.query(tokens)) == _fingerprint(
                        index.query(tokens)
                    )

    def test_add_returns_node_local_rid_and_serves_it(self):
        with ShardServer(_index([])) as node:
            with RemoteShardClient(*node.address) as client:
                assert client.add("alpha beta gamma") == 0
                assert client.add("alpha beta delta") == 1
                assert len(client) == 2
                matches = client.query("alpha beta gamma")
                assert [m.rid_a for m in matches] == [0, 1]

    def test_health_reports_node_state(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                client.query("alpha beta")
                health = client.health()
                assert health["records"] == len(CORPUS)
                assert health["epoch"] == 0
                assert health["requests"]["query"] == 1
                assert health["errors"] == 0
                assert health["uptime"] >= 0

    def test_ping_and_bind_stamp_track_the_node(self):
        with ShardServer(_index([])) as node:
            with RemoteShardClient(*node.address) as client:
                assert client.binding == 0  # nothing seen yet
                assert client.ping() == (0, 0)  # nothing bound yet
                client.add("fresh record tokens")  # the first add binds
                # The very response that staled the stamp refreshed it.
                assert client.binding == node.index.binding != 0
                assert client.ping() == (0, client.binding)
                client.add("another record")  # appends keep the stamp
                assert client.binding == node.index.binding

    def test_remote_reindex_flips_the_node_epoch(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                baseline = _fingerprint(client.query("alpha beta gamma"))
                before = client.binding
                report = client.reindex(timeout=WAIT)
                assert report["flipped"] is True
                assert node.epoch == 1
                assert client.binding == node.index.binding != before
                # Answers are identical across the flip.
                assert _fingerprint(client.query("alpha beta gamma")) == baseline

    def test_query_answer_fields_and_extension_round_trip(self):
        local = _index()
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                probe = "alpha beta gamma"
                old = client.query(probe)
                assert (old.records, old.extendable) == (len(CORPUS), True)
                assert old.binding == node.index.binding == client.binding
                for text in ("alpha beta gamma zeta", "theta iota"):
                    assert client.add(text) == local.add(text)
                served = node.requests["query"]
                extended = client.query(probe, since=old)
                assert node.requests["query"] == served + 1
                assert _fingerprint(extended) == _fingerprint(local.query(probe))
                assert extended.records == len(CORPUS) + 2
                assert len(extended) == len(old) + 1
                # An answer with a token the node lacked is re-probed.
                unknown = client.query("alpha beta kappa")
                assert not unknown.extendable
                client.add("kappa alpha")
                local.add("kappa alpha")
                assert _fingerprint(
                    client.query("alpha beta kappa", since=unknown)
                ) == _fingerprint(local.query("alpha beta kappa"))

    def test_malformed_since_is_refused_not_retried(self):
        with ShardServer(_index()) as node:
            client = RemoteShardClient(
                *node.address,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.01, sleep=lambda s: None
                ),
            )
            try:
                for since in ([5], [-1, 1], ["5", 1], {"records": 5}):
                    body = wire.encode_json({"item": "alpha", "since": since})
                    with pytest.raises(WireProtocolError, match="malformed since"):
                        client._call(wire.OP_QUERY, body)
                assert client.retries == 0
                assert _fingerprint(client.query("alpha beta"))  # still served
            finally:
                client.close()

    def test_answer_of_a_replaced_generation_is_not_extended(self):
        # The replacement binds with a lower threshold: splicing the old
        # answer would miss the matches only the new index admits.
        lower = lambda: SimilarityIndex(  # noqa: E731
            JaccardPredicate(0.1), tokenizer=tokenize_words
        )
        with ShardServer(_index(), index_factory=lower) as node:
            with RemoteShardClient(*node.address) as client:
                old = client.query("alpha beta")
                client.reindex(timeout=WAIT)
                fresh = node.index.query("alpha beta")
                assert len(fresh) > len(old)
                got = client.query("alpha beta", since=old)
                assert _fingerprint(got) == _fingerprint(fresh)


class TestIdempotentAdd:
    def test_expected_rid_verifies_the_insert(self):
        with ShardServer(_index([])) as node:
            with RemoteShardClient(*node.address) as client:
                assert client.add("alpha beta", expected_rid=0) == 0
                assert client.add("beta gamma", expected_rid=1) == 1
                assert len(client) == 2

    def test_lost_response_retry_dedupes_instead_of_double_inserting(self):
        """The high-severity review case: the node commits the insert,
        the response dies on the wire, the retry must not insert again
        (or the node's rids desync from the front end's global map)."""
        with ShardServer(_index([])) as node:
            with NetworkFaults(*node.address) as proxy:
                proxy.kill(times=1)  # response starts, then the peer dies
                client = RemoteShardClient(
                    "127.0.0.1",
                    proxy.port,
                    retry_policy=RetryPolicy(
                        max_attempts=3, base_delay=0.01, sleep=lambda s: None
                    ),
                )
                try:
                    assert client.add("alpha beta gamma", expected_rid=0) == 0
                    assert client.retries == 1
                    # Two ADD ops served, exactly one record committed.
                    assert node.requests["add"] == 2
                    assert len(node.index) == 1
                    # The rid sequence continues unbroken.
                    assert client.add("beta gamma delta", expected_rid=1) == 1
                    assert len(node.index) == 2
                finally:
                    client.close()

    def test_insert_expecting_the_wrong_rid_is_a_typed_desync(self):
        with ShardServer(_index([])) as node:
            with RemoteShardClient(*node.address) as client:
                with pytest.raises(RidDesync):
                    client.add("alpha beta", expected_rid=3)
                assert len(node.index) == 0  # refused, not inserted

    def test_unmapped_committed_record_refuses_the_next_insert(self):
        """A record the front end never mapped (its rollback raced a
        commit, or a rogue writer) must fail the next verified insert
        loudly — deduping it would silently serve the wrong record."""
        with ShardServer(_index([])) as node:
            with RemoteShardClient(*node.address) as rogue:
                rogue.add("stray unmapped record")  # plain, unverified
            client = RemoteShardClient(
                *node.address,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.01, sleep=lambda s: None
                ),
            )
            try:
                with pytest.raises(RidDesync):
                    client.add("alpha beta", expected_rid=0)
                assert client.retries == 0  # desync is not retryable
                assert len(node.index) == 1  # nothing double-inserted
            finally:
                client.close()


class TestFailureTyping:
    def test_connect_refused_is_shard_unavailable(self):
        # Bind-then-close guarantees an unused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = RemoteShardClient("127.0.0.1", port, connect_timeout=0.5)
        with pytest.raises(ShardUnavailable) as info:
            client.ping()
        assert isinstance(info.value, ConnectionError)  # retryable class

    def test_unresolvable_endpoint_fails_at_construction(self):
        # A label over 63 characters fails to encode, so no lookup runs.
        with pytest.raises(ShardUnavailable, match="cannot resolve"):
            RemoteShardClient("a" * 64, 7601)

    def test_expired_deadline_is_a_typed_timeout(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                context = JoinContext(deadline_seconds=1e-9)
                context.start()
                while context.remaining() > 0:
                    pass
                with pytest.raises(JoinTimeout):
                    client.query("alpha beta", context=context)

    def test_slow_trip_with_deadline_budget_left_is_retryable(self):
        """A round trip bounded by request_timeout while the deadline
        still has plenty of budget is a transient shard fault, not
        deadline expiry — reporting JoinTimeout would (wrongly) skip
        the remaining retry budget."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)  # accepts at TCP level, never answers
        try:
            client = RemoteShardClient(
                "127.0.0.1",
                listener.getsockname()[1],
                request_timeout=0.2,
            )
            context = JoinContext(deadline_seconds=60.0)
            context.start()
            with pytest.raises(ShardUnavailable) as info:
                client.query("alpha beta", context=context)
            assert not isinstance(info.value, JoinInterrupted)
            assert context.remaining() > 0
            client.close()
        finally:
            listener.close()

    def test_unframeable_request_error_frame_is_retryable(self):
        """The node's best-effort answer for a request it could not
        frame (request_id 0, FLAG_ERROR) must surface as a retryable
        transport fault, not a permanent protocol mismatch."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def unframeable_node():
            conn, _peer = listener.accept()
            conn.recv(65536)
            conn.sendall(
                wire.encode_frame(
                    wire.OP_PING,
                    wire.encode_error(FrameChecksumError(1, 2)),
                    flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
                )
            )
            conn.close()

        threading.Thread(target=unframeable_node, daemon=True).start()
        try:
            client = RemoteShardClient("127.0.0.1", listener.getsockname()[1])
            with pytest.raises(ShardUnavailable) as info:
                client.query("alpha beta")
            assert isinstance(info.value, ConnectionError)  # retryable
            assert "FrameChecksumError" in str(info.value)
            client.close()
        finally:
            listener.close()

    def test_request_ids_survive_u32_wraparound(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                # Fast-forward the counter to the wire-width boundary:
                # ids must stay within u32 (so the echo compares equal)
                # and skip 0 (reserved for unrequested error frames).
                client._request_ids = itertools.count(0xFFFFFFFF)
                for _ in range(3):  # 0xFFFFFFFF, then wraps to 1, 2
                    client.ping()
                assert node.requests["ping"] == 3

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_interrupt_in_a_handler_drops_the_connection(self):
        """KeyboardInterrupt raised inside an op handler must not be
        smuggled to the client as a typed wire error on a live stream."""
        index = _index()
        with ShardServer(index) as node:
            def interrupted_query(*args, **kwargs):
                raise KeyboardInterrupt

            index.query = interrupted_query
            with RemoteShardClient(*node.address) as client:
                with pytest.raises(ShardUnavailable):
                    client.query("alpha beta")
                # The node itself keeps serving fresh connections.
                assert client.ping()[0] == 0

    def test_closed_client_refuses_new_calls(self):
        with ShardServer(_index()) as node:
            client = RemoteShardClient(*node.address)
            client.ping()
            client.close()
            client.close()  # idempotent
            with pytest.raises(ShardUnavailable, match="closed"):
                client.ping()

    def test_payload_is_not_served_over_the_wire(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                with pytest.raises(NotImplementedError):
                    client.payload(0)

    def test_server_survives_a_garbage_speaking_peer(self):
        """A peer that isn't speaking the protocol gets dropped; real
        clients keep being served and the error is tallied."""
        with ShardServer(_index()) as node:
            raw = socket.create_connection(node.address, timeout=5.0)
            # Longer than a frame header, so the node sees a full (bad)
            # header instead of waiting for more bytes.
            raw.sendall(b"GET / HTTP/1.1\r\nHost: not-a-shard-client\r\n\r\n")
            # The node answers with a best-effort typed error frame,
            # then hangs up.
            frame = wire.read_frame(wire.socket_reader(raw))
            assert frame.is_error
            assert raw.recv(1) == b""  # connection dropped
            raw.close()
            with RemoteShardClient(*node.address) as client:
                assert client.ping()[0] == 0
            assert node.errors >= 1

    def test_reserved_batch_op_is_refused_typed(self):
        """Op 2 (the retired batch query) stays reserved: a peer still
        sending it gets a typed WireProtocolError frame and is dropped,
        and the node goes on serving."""
        with ShardServer(_index()) as node:
            raw = socket.create_connection(node.address, timeout=5.0)
            raw.sendall(
                wire.encode_frame(
                    2, wire.encode_json({"items": CORPUS[:2]}), request_id=7
                )
            )
            frame = wire.read_frame(wire.socket_reader(raw))
            assert frame.is_error
            record = wire.decode_error(frame.payload)
            assert record["name"] == "WireProtocolError"
            assert "unknown op 2" in record["message"]
            assert raw.recv(1) == b""  # connection dropped
            raw.close()
            with RemoteShardClient(*node.address) as client:
                assert _fingerprint(client.query(CORPUS[0]))
            assert node.errors == 1


    def test_unknown_op_is_not_retried(self):
        """A node's refusal of an op it does not speak (a version-skewed
        front end) reaches the client as the non-retryable protocol
        error after one attempt, not as a transient fault."""
        with ShardServer(_index()) as node:
            client = RemoteShardClient(
                *node.address,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.01, sleep=lambda s: None
                ),
            )
            try:
                with pytest.raises(WireProtocolError, match="unknown op 99") as info:
                    client._call(99, b"")
                assert not isinstance(info.value, OSError)
                assert client.retries == 0
                assert node.errors == 1
                assert _fingerprint(client.query(CORPUS[0]))  # still served
            finally:
                client.close()


    def test_version_1_request_is_refused_typed(self):
        with ShardServer(_index()) as node:
            raw = socket.create_connection(node.address, timeout=5.0)
            header = wire.HEADER.pack(
                wire.MAGIC, 1, wire.OP_PING, 0, 7, -1.0, 0, 0, 0
            )
            raw.sendall(header + struct.pack(">I", zlib.crc32(header)))
            frame = wire.read_frame(wire.socket_reader(raw))
            assert frame.is_error and frame.request_id == 0
            record = wire.decode_error(frame.payload)
            assert record["name"] == "WireProtocolError"
            assert "version 1" in record["message"]
            assert raw.recv(1) == b""  # connection dropped
            raw.close()

    def test_version_1_peer_is_not_retried(self):
        """A node still speaking version 1 answers in v1 frames: the
        client refuses them once, as the non-retryable protocol error."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        dialed = []

        def v1_node():
            while True:
                try:
                    conn, _peer = listener.accept()
                except OSError:
                    return
                dialed.append(conn)
                request = wire.read_frame(wire.socket_reader(conn))
                header = wire.HEADER.pack(
                    wire.MAGIC, 1, request.op, wire.FLAG_RESPONSE,
                    request.request_id, -1.0, 0, 1, 4,
                )
                body = struct.pack(">I", 0)
                crc = zlib.crc32(body, zlib.crc32(header))
                conn.sendall(header + body + struct.pack(">I", crc))

        thread = threading.Thread(target=v1_node, daemon=True)
        thread.start()
        client = RemoteShardClient(
            "127.0.0.1",
            listener.getsockname()[1],
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, sleep=lambda s: None
            ),
        )
        try:
            with pytest.raises(WireProtocolError, match="version 1") as info:
                client.query("alpha beta")
            assert not isinstance(info.value, OSError)
            assert client.retries == 0
            assert len(dialed) == 1
        finally:
            client.close()
            listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
            listener.close()
            thread.join(WAIT)
            for conn in dialed:
                conn.close()


class TestFaultRecovery:
    def test_corrupt_frame_retried_to_success_on_fresh_connection(self):
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                proxy.corrupt(times=1)
                client = RemoteShardClient(
                    "127.0.0.1",
                    proxy.port,
                    retry_policy=RetryPolicy(
                        max_attempts=3, base_delay=0.01, sleep=lambda s: None
                    ),
                )
                try:
                    matches = client.query("alpha beta gamma delta")
                    assert _fingerprint(matches) == _fingerprint(
                        _index().query("alpha beta gamma delta")
                    )
                    assert client.retries == 1
                    assert client.reconnects == 1
                    assert proxy.injected["corrupt"] == 1
                finally:
                    client.close()

    def test_corrupt_frame_without_retries_is_typed(self):
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                proxy.corrupt(times=1)
                with RemoteShardClient("127.0.0.1", proxy.port) as client:
                    with pytest.raises(FrameChecksumError):
                        client.query("alpha beta")

    def test_killed_connection_is_retried_on_a_fresh_one(self):
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                proxy.kill(times=1)
                client = RemoteShardClient(
                    "127.0.0.1",
                    proxy.port,
                    retry_policy=RetryPolicy(
                        max_attempts=3, base_delay=0.01, sleep=lambda s: None
                    ),
                )
                try:
                    assert client.ping()[0] == 0
                    assert client.reconnects == 1
                finally:
                    client.close()

    def test_a_dead_pooled_connection_flushes_the_idle_pool(self):
        """A node that closed one pooled connection (restart, reset) has
        closed the others too: the retry dials fresh instead of spending
        the attempt budget on the rest of the stale pool."""
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                client = RemoteShardClient(
                    "127.0.0.1",
                    proxy.port,
                    pool_size=4,
                    retry_policy=RetryPolicy(
                        max_attempts=2, base_delay=0.01, sleep=lambda s: None
                    ),
                )
                try:
                    held = [client.begin_query("alpha beta") for _ in range(4)]
                    for pending in held:
                        pending.result()
                    assert len(client._idle) == 4
                    proxy.sever()
                    assert _wait_until_closed(client._idle)
                    assert len(client.query("alpha beta")) > 0
                    assert client.retries == 1
                    assert client.reconnects == 1  # only the one that failed
                finally:
                    client.close()

    def test_a_pooled_connection_through_the_proxy_survives_idling(self):
        """The proxy's upstream dial timeout bounds the dial only: a
        pooled connection idle past it still answers, with no retry
        policy to hide a reconnect."""
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                with RemoteShardClient("127.0.0.1", proxy.port) as client:
                    client.ping()
                    time.sleep(1.5)
                    assert client.ping()[0] == 0
                    assert client.reconnects == 0
                    assert proxy.connections == 1

    def test_pool_reuses_a_healthy_connection(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address, pool_size=1) as client:
                for _ in range(5):
                    client.ping()
                assert client.reconnects == 0
                assert node.requests["ping"] == 5


class TestPendingQuery:
    """``begin_query`` sends now and never raises; ``result`` reads."""

    @staticmethod
    def _retrying(port, **kwargs) -> RemoteShardClient:
        return RemoteShardClient(
            "127.0.0.1",
            port,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, sleep=lambda s: None
            ),
            **kwargs,
        )

    def test_queries_in_flight_together_are_read_in_any_order(self):
        local = _index()
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                items = ["alpha beta gamma delta", "delta epsilon zeta eta"]
                pending = [client.begin_query(item) for item in items]
                finish_dials(pending)
                assert all(query.fileno() >= 0 for query in pending)
                for item, query in reversed(list(zip(items, pending))):
                    assert _fingerprint(query.result()) == _fingerprint(
                        local.query(item)
                    )
                    assert query.fileno() == -1
                assert node.requests["query"] == 2
                assert client.reconnects == 0

    def test_refused_send_is_raised_by_result_under_the_retry_policy(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = self._retrying(port, connect_timeout=0.5)
        pending = client.begin_query("alpha beta")  # does not raise
        assert pending.fileno() == -1
        with pytest.raises(ShardUnavailable, match="connect failed"):
            pending.result()
        assert client.retries == 2  # the same attempt count as query()

    def test_spent_deadline_is_raised_by_result(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                context = JoinContext(deadline_seconds=1e-9)
                context.start()
                while context.remaining() > 0:
                    pass
                pending = client.begin_query("alpha beta", context=context)
                with pytest.raises(JoinTimeout):
                    pending.result()
                assert node.requests.get("query", 0) == 0

    def test_an_answer_buffered_before_the_deadline_is_used(self):
        local = _index()
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                context = JoinContext(deadline_seconds=0.2)
                context.start()
                pending = client.begin_query("alpha beta gamma delta", context=context)
                finish_dials([pending])  # a fresh client dials first
                while context.remaining() > 0:
                    pass
                assert _fingerprint(pending.result()) == _fingerprint(
                    local.query("alpha beta gamma delta")
                )

    def test_failed_first_read_is_retried_as_a_full_round_trip(self):
        local = _index()
        with ShardServer(_index()) as node:
            with NetworkFaults(*node.address) as proxy:
                proxy.corrupt(times=1)
                client = self._retrying(proxy.port)
                try:
                    pending = client.begin_query("alpha beta gamma delta")
                    assert _fingerprint(pending.result()) == _fingerprint(
                        local.query("alpha beta gamma delta")
                    )
                    assert client.retries == 1
                    assert client.reconnects == 1
                    assert node.requests["query"] == 2
                finally:
                    client.close()

    def test_a_dial_to_a_dropping_node_is_bounded_by_the_deadline(
        self, blackhole_port
    ):
        """A node that drops SYNs holds a query for its deadline, not
        for the connect timeout, and never raises from ``begin_query``."""
        client = RemoteShardClient("127.0.0.1", blackhole_port, connect_timeout=5.0)
        try:
            context = JoinContext(deadline_seconds=0.2)
            started = time.monotonic()
            pending = client.begin_query("alpha beta", context=context)
            assert pending.fileno() == -1  # still dialing
            with pytest.raises(JoinTimeout):
                pending.result()
            assert time.monotonic() - started < 1.0
            with pytest.raises(JoinTimeout):  # the blocking path too
                client.query("alpha beta", JoinContext(deadline_seconds=0.2))
            assert time.monotonic() - started < 2.0
        finally:
            client.close()

    def test_dials_finish_together(self, blackhole_port):
        """``finish_dials`` sends a reachable node's frame as soon as it
        connects, while another node's dial is still waiting."""
        local = _index()
        with ShardServer(_index()) as node:
            dropping = RemoteShardClient("127.0.0.1", blackhole_port)
            healthy = RemoteShardClient(*node.address)
            try:
                context = JoinContext(deadline_seconds=0.3)
                stuck = dropping.begin_query("alpha beta", context=context)
                pending = healthy.begin_query("alpha beta gamma delta", context=context)
                started = time.monotonic()
                finish_dials([stuck, pending])
                assert 0.2 < time.monotonic() - started < 1.0
                assert pending.fileno() >= 0
                # The reply waited in the socket while the other dial ran.
                assert select.select([pending.fileno()], [], [], 0)[0]
                assert _fingerprint(pending.result()) == _fingerprint(
                    local.query("alpha beta gamma delta")
                )
                with pytest.raises(JoinTimeout):
                    stuck.result()
            finally:
                dropping.close()
                healthy.close()

    def test_cancel_closes_the_connection_without_a_reconnect(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                pending = client.begin_query("alpha beta")
                pending.cancel()
                assert pending.fileno() == -1
                pending.cancel()  # idempotent
                assert client.reconnects == 0
                assert client._idle == []  # closed, not returned to the pool
                assert len(client.query("alpha beta")) > 0


class TestServerLifecycle:
    def test_stop_is_idempotent(self):
        node = ShardServer(_index()).start()
        node.stop()
        node.stop()

    def test_concurrent_clients(self):
        index = _index()
        errors = []
        with ShardServer(_index()) as node:
            def worker():
                try:
                    with RemoteShardClient(*node.address) as client:
                        for probe in CORPUS:
                            assert _fingerprint(client.query(probe)) == _fingerprint(
                                index.query(probe)
                            )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
        assert errors == []


class TestEndpointParsing:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("127.0.0.1:7601", ("127.0.0.1", 7601)),
            ("shard-node-3:80", ("shard-node-3", 80)),
            ("::1:9000", ("::1", 9000)),
        ],
    )
    def test_valid(self, spec, expected):
        assert parse_endpoint(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["no-port", ":7601", "host:", "host:notanint", "host:0", "host:70000"]
    )
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_endpoint(spec)
