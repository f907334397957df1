"""ShardServer + RemoteShardClient: one shard across a real socket.

Every test runs a genuine TCP loopback server — no mocked sockets —
because the contract under test is precisely the cross-process one:
typed errors for every failure mode (connect refused, deadline expiry,
corrupt frames), pair-exact answers, generation stamps that move with
the remote index, and reconnect/retry accounting the sharded tier's
health report surfaces.
"""

import itertools
import socket
import threading

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

    def test_ping_and_generation_stamp_track_the_node(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                assert client.generation == (0, 0)  # nothing seen yet
                epoch, generation = client.ping()
                assert epoch == 0
                assert client.generation == (0, generation)
                before = client.generation
                client.add("fresh record tokens")
                # The very response that staled the stamp refreshed it.
                assert client.generation != before

    def test_remote_reindex_flips_the_node_epoch(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address) as client:
                baseline = _fingerprint(client.query("alpha beta gamma"))
                report = client.reindex(timeout=WAIT)
                assert report["flipped"] is True
                assert node.epoch == 1
                assert client.generation[0] == 1
                # Answers are identical across the flip.
                assert _fingerprint(client.query("alpha beta gamma")) == baseline


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

    def test_pool_reuses_a_healthy_connection(self):
        with ShardServer(_index()) as node:
            with RemoteShardClient(*node.address, pool_size=1) as client:
                for _ in range(5):
                    client.ping()
                assert client.reconnects == 0
                assert node.requests["ping"] == 5


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
