"""ShardedIndexServer: routing, exactness, fault domains, accounting."""

import contextlib
import re
import socket
import threading
import time

import pytest

from repro import OverlapPredicate
from repro.core.results import MatchPair
from repro.core.service import SimilarityIndex
from repro.runtime.errors import (
    PartialResult,
    ReindexTimeout,
    RidDesync,
    ServerOverloaded,
    ShardUnavailable,
)
from repro.runtime.faults import NetworkFaults, ShardFaults
from repro.serving import (
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
    ShardedIndexServer,
    ShardedResult,
)
from repro.serving.transport import RemoteShardClient, ShardServer
from repro.text.tokenizers import tokenize_words

WAIT = 10.0

TEXTS = [
    "efficient set joins on similarity predicates",
    "set joins with similarity predicates made efficient",
    "completely different words entirely",
    "probe count optimized merge joins",
    "efficient merge joins on sorted postings",
    "similarity predicates over set valued attributes",
    "inverted index probe count optimization",
    "set similarity search with inverted indexes",
]

PROBE = "efficient set joins similarity"


def _server(shards=3, texts=TEXTS, **kwargs) -> ShardedIndexServer:
    kwargs.setdefault("workers", 2)
    server = ShardedIndexServer(
        OverlapPredicate(2),
        shards=shards,
        tokenizer=tokenize_words,
        **kwargs,
    )
    for text in texts:
        server.add(text)
    return server.start()


def _single(texts=TEXTS) -> SimilarityIndex:
    index = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
    for text in texts:
        index.add(text)
    return index


def _fingerprint(matches) -> list:
    return [(m.rid_a, m.rid_b, round(m.similarity, 12)) for m in matches]


class TestRoutingAndExactness:
    def test_records_land_on_their_routed_shard(self):
        server = _server()
        try:
            spread = server.health()["router"]["spread"]
            assert sum(spread) == len(TEXTS)
            for rid in range(len(TEXTS)):
                sid = server.router.shard_of(rid)
                shard = server._shards[sid]
                assert rid in shard.global_rids
        finally:
            server.drain(timeout=WAIT)

    def test_result_identical_to_single_index(self):
        server = _server()
        single = _single()
        try:
            for probe in [PROBE, *TEXTS, "no such tokens anywhere"]:
                assert _fingerprint(server.query(probe, timeout=WAIT)) == (
                    _fingerprint(single.query(probe))
                )
        finally:
            server.drain(timeout=WAIT)

    def test_payload_roundtrip_and_len(self):
        def tokenizer(text):
            if text == "rejected":
                raise ValueError("tokenizer rejects the item")
            return tokenize_words(text)

        server = ShardedIndexServer(OverlapPredicate(2), shards=3, tokenizer=tokenizer)
        rids = []
        for i, text in enumerate(TEXTS):
            if i == 2:
                # A failed add rolls back: the next add reuses its rid.
                with pytest.raises(ValueError, match="rejects"):
                    server.add("rejected", payload="lost")
            rids.append(server.add(text, payload=f"p{i}"))
        assert rids == list(range(len(TEXTS)))
        assert len(server) == len(TEXTS)
        assert [server.payload(rid) for rid in rids] == [
            f"p{i}" for i in range(len(TEXTS))
        ]
        for rid in (len(server), -1):
            with pytest.raises(IndexError):
                server.payload(rid)

    def test_more_shards_than_records_still_exact(self):
        server = _server(shards=7, texts=TEXTS[:3])
        single = _single(texts=TEXTS[:3])
        try:
            result = server.query(PROBE, timeout=WAIT)
            assert not result.partial
            assert _fingerprint(result) == _fingerprint(single.query(PROBE))
        finally:
            server.drain(timeout=WAIT)

    def test_extend_matches_serial_adds(self):
        server = ShardedIndexServer(
            OverlapPredicate(2), shards=2, tokenizer=tokenize_words
        )
        assert server.extend(TEXTS[:4]) == [0, 1, 2, 3]
        assert len(server) == 4


class TestShardedResult:
    def test_behaves_like_a_match_list(self):
        server = _server()
        try:
            result = server.query(PROBE, timeout=WAIT)
            assert isinstance(result, ShardedResult)
            assert len(result) == len(list(result))
            assert result[0] == list(result)[0]
            assert result.shards_ok == (0, 1, 2)
            assert result.shards_failed == ()
            assert result.partial is False
            # rid_b is the probe's ephemeral rid, as the single server
            # reports it; rid_a ascends.
            assert all(m.rid_b == len(TEXTS) for m in result)
            rids = [m.rid_a for m in result]
            assert rids == sorted(rids)
        finally:
            server.drain(timeout=WAIT)


class TestPartialResults:
    def test_killed_shard_yields_partial_with_exact_accounting(self):
        faults = ShardFaults()
        server = _server(faults=faults)
        try:
            faults.kill(1)
            result = server.query(PROBE, timeout=WAIT)
            assert result.partial is True
            assert result.shards_failed == (1,)
            assert result.shards_ok == (0, 2)
            # Survivors' matches are exact: every record routed to the
            # lost shard is absent, everything else matches the single
            # index bit for bit.
            lost = set(server._shards[1].global_rids)
            expected = [
                entry
                for entry in _fingerprint(_single().query(PROBE))
                if entry[0] not in lost
            ]
            assert _fingerprint(result) == expected
            health = server.health()
            assert health["partial"] == {"complete": 0, "partial": 1}
            assert health["shards"][1]["failures"] == 1
            faults.clear()
            follow_up = server.query(PROBE, timeout=WAIT)
            assert follow_up.partial is False
            assert server.health()["partial"] == {"complete": 1, "partial": 1}
        finally:
            server.drain(timeout=WAIT)

    def test_require_complete_raises_typed_partial_result(self):
        faults = ShardFaults()
        server = _server(faults=faults)
        try:
            faults.kill(2)
            with pytest.raises(PartialResult) as err:
                server.query(PROBE, timeout=WAIT, require_complete=True)
            assert err.value.shards_failed == (2,)
            assert err.value.shards_total == 3
            # The partial answer rides along for callers that change
            # their mind at the failure site.
            assert err.value.result.partial is True
            assert server.health()["failed"] == 1
        finally:
            server.drain(timeout=WAIT)

    def test_require_complete_passes_complete_results_through(self):
        server = _server()
        try:
            result = server.query(PROBE, timeout=WAIT, require_complete=True)
            assert result.partial is False
        finally:
            server.drain(timeout=WAIT)

    def test_all_shards_lost_is_an_empty_partial(self):
        faults = ShardFaults()
        server = _server(faults=faults)
        try:
            for sid in range(3):
                faults.kill(sid)
            result = server.query(PROBE, timeout=WAIT)
            assert result.partial is True
            assert result.shards_failed == (0, 1, 2)
            assert len(result) == 0
        finally:
            server.drain(timeout=WAIT)


class TestFaultDomains:
    def test_breaker_trips_only_on_the_sick_shard(self):
        faults = ShardFaults()
        server = _server(
            faults=faults,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, cooldown_seconds=60.0
            ),
        )
        try:
            faults.kill(1)
            for _ in range(3):
                server.query(PROBE, timeout=WAIT)
            states = [row["breaker"]["state"] for row in server.health()["shards"]]
            assert states == ["closed", "open", "closed"]
            # The open breaker fails the shard fast — still partial,
            # still exact on the survivors, even with the fault cleared.
            faults.clear()
            result = server.query(PROBE, timeout=WAIT)
            assert result.shards_failed == (1,)
        finally:
            server.drain(timeout=WAIT)

    def test_retry_policy_absorbs_transient_shard_faults(self):
        faults = ShardFaults()
        server = _server(
            faults=faults,
            retry_policy=RetryPolicy(max_attempts=3, sleep=lambda s: None),
        )
        try:
            faults.kill(0, times=1)
            result = server.query(PROBE, timeout=WAIT)
            assert result.partial is False
            assert server.health()["retried"] >= 1
            assert faults.injected[0] == 1
        finally:
            server.drain(timeout=WAIT)

    def test_slow_shard_past_deadline_is_partial_not_fatal(self):
        faults = ShardFaults()
        server = _server(faults=faults, shard_workers=2)
        try:
            faults.slow(1, 5.0)
            result = server.query(PROBE, deadline=0.2, timeout=WAIT)
            assert result.partial is True
            assert result.shards_failed == (1,)
        finally:
            server.drain(timeout=WAIT)

    def test_a_probe_lost_at_the_deadline_reaches_the_breaker_at_once(self):
        """The breaker records a local probe lost at the deadline when
        the query loses it, not when the abandoned probe finishes."""
        faults = ShardFaults()
        server = _server(
            faults=faults,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, cooldown_seconds=60.0
            ),
        )
        try:
            faults.slow(1, 0.5)
            for _ in range(2):
                result = server.query(PROBE, deadline=0.05, timeout=WAIT)
                assert result.shards_failed == (1,)
            states = [row["breaker"]["state"] for row in server.health()["shards"]]
            assert states == ["closed", "open", "closed"]
        finally:
            server.drain(timeout=WAIT)

    def test_a_slow_shard_skews_only_its_own_latency_window(self):
        faults = ShardFaults()
        server = _server(shards=2, workers=1, faults=faults)
        try:
            faults.slow(0, 0.2)
            for _ in range(3):
                assert not server.query(PROBE, timeout=WAIT).partial
            slow, healthy = (
                row["latency"]["p50_seconds"] for row in server.health()["shards"]
            )
            assert slow >= 0.2 and healthy < 0.05, (slow, healthy)
        finally:
            server.drain(timeout=WAIT)

    def test_per_shard_cache_hits_skip_probes(self):
        server = _server(query_cache=8)
        try:
            server.query(PROBE, timeout=WAIT)
            probes_before = [
                row["probes"] for row in server.health()["shards"]
            ]
            server.query(PROBE, timeout=WAIT)
            health = server.health()
            assert [row["probes"] for row in health["shards"]] == probes_before
            assert all(row["cache"]["hits"] == 1 for row in health["shards"])
        finally:
            server.drain(timeout=WAIT)

    def test_add_patches_only_the_owning_shards_cache(self):
        server = _server(query_cache=8)
        try:
            server.query(PROBE, timeout=WAIT)  # warm every shard's cache
            rid = server.add("efficient set joins appended later")
            owner = server.router.shard_of(rid)
            result = server.query(PROBE, timeout=WAIT)
            # Correctness first: the new record is matched immediately.
            assert any(m.rid_a == rid for m in result)
            # Every shard hits; only the owner's hit is extended past
            # the append (a patched hit), the others serve as is.
            for row in server.health()["shards"]:
                expected_patched = 1 if row["shard"] == owner else 0
                cache = row["cache"]
                assert (cache["hits"], cache["misses"]) == (1, 1)
                assert cache["patched"] == expected_patched
                assert cache["invalidations"] == 0
        finally:
            server.drain(timeout=WAIT)


class TestRidDesyncQuarantine:
    """A shard whose local-rid space desyncs from the global map is
    quarantined: loud on the triggering add, exact (partial) on every
    query after, named in health — never wrongly-mapped pairs."""

    def test_desynced_remote_shard_is_quarantined(self):
        node = ShardServer(
            SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
        ).start()
        try:
            server = ShardedIndexServer(
                OverlapPredicate(2),
                shards=1,
                tokenizer=tokenize_words,
                workers=2,
                shard_endpoints=[f"127.0.0.1:{node.port}"],
            )
            server.add(TEXTS[0])
            # A record lands on the node behind the front end's back:
            # its next rid no longer matches the global map.
            with RemoteShardClient(*node.address) as rogue:
                rogue.add(TEXTS[1])
            with pytest.raises(RidDesync):
                server.add(TEXTS[2])
            server.start()
            try:
                # The shard is lost for every query — with exact
                # accounting, not wrongly-mapped matches.
                result = server.query(PROBE, timeout=WAIT)
                assert result.partial
                assert result.shards_failed == (0,)
                assert result.matches == ()
                with pytest.raises(PartialResult):
                    server.query(PROBE, timeout=WAIT, require_complete=True)
                # Adds refuse too, and health names the reason.
                with pytest.raises(ShardUnavailable, match="quarantined"):
                    server.add(TEXTS[3])
                row = server.health()["shards"][0]
                assert row["quarantined"] is not None
                assert len(server) == 1  # every failed add rolled back
            finally:
                server.drain(timeout=WAIT)
        finally:
            node.stop()

    def test_merge_refuses_unmapped_local_rids(self):
        """Backstop for a probe racing the quarantine moment: a shard
        answering local rids the map never assigned is dropped from the
        answer as failed, never guessed at (the pre-fix behavior was an
        IndexError or a silently wrong global rid)."""
        server = _server(shards=2)
        try:
            shard = server._shards[0]
            stray = [MatchPair(len(shard.global_rids), 0, 1.0)]
            result = server._merge({0: stray, 1: []}, [])
            assert result.partial
            assert result.shards_failed == (0,)
            assert result.shards_ok == (1,)
            assert shard.quarantined is not None
        finally:
            server.drain(timeout=WAIT)


class TestHedging:
    def test_hedge_races_a_straggler_and_wins(self):
        faults = ShardFaults()
        server = _server(
            faults=faults,
            shard_workers=2,
            hedge=HedgePolicy(delay=0.02),
        )
        try:
            faults.slow(2, 5.0, times=1)  # first probe stalls; hedge is clean
            result = server.query(PROBE, timeout=WAIT)
            assert result.partial is False
            health = server.health()
            assert health["hedging"]["enabled"] is True
            assert health["hedging"]["issued"] >= 1
            assert health["hedging"]["wins"] >= 1
            assert health["shards"][2]["hedges"] >= 1
        finally:
            server.drain(timeout=WAIT)

    def test_adaptive_policy_needs_samples_before_hedging(self):
        policy = HedgePolicy(min_samples=4)
        from repro.serving.stats import LatencyTracker

        latency = LatencyTracker(16)
        assert policy.delay_for(latency) is None
        for _ in range(4):
            latency.observe(0.01)
        delay = policy.delay_for(latency)
        assert delay == pytest.approx(max(0.01 * 2.0, 0.001))

    def test_fixed_delay_overrides_adaptive(self):
        from repro.serving.stats import LatencyTracker

        policy = HedgePolicy(delay=0.5)
        assert policy.delay_for(LatencyTracker(4)) == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay": -1.0},
            {"percentile": 0.0},
            {"percentile": 101.0},
            {"multiplier": 0.0},
            {"min_samples": 0},
            {"floor": -0.1},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            HedgePolicy(**kwargs)


@contextlib.contextmanager
def _remote_tier(nodes=2, texts=TEXTS, **kwargs):
    """A remote-only tier whose nodes each sit behind a transparent
    :class:`NetworkFaults` proxy; yields ``(server, proxies)``."""
    started = []
    try:
        for _ in range(nodes):
            node = ShardServer(
                SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
            ).start()
            started.append((node, NetworkFaults(*node.address).start()))
        kwargs.setdefault("workers", 2)
        server = ShardedIndexServer(
            OverlapPredicate(2),
            shards=nodes,
            tokenizer=tokenize_words,
            shard_endpoints=[f"127.0.0.1:{proxy.port}" for _, proxy in started],
            **kwargs,
        )
        for text in texts:
            server.add(text)
        server.start()
        try:
            yield server, [proxy for _, proxy in started]
        finally:
            server.drain(timeout=WAIT)
    finally:
        for node, proxy in started:
            proxy.stop()
            node.stop()


def _drop_syns(server, sid, proxy, port) -> None:
    """Shard ``sid``'s node goes away: its proxy stops, so its pooled
    connections die, and every later dial lands on ``port``, a host
    that drops SYNs. One failed ping flushes the dead pool."""
    client = server._shards[sid].index
    client._addresses = socket.getaddrinfo(
        "127.0.0.1", port, type=socket.SOCK_STREAM
    )
    proxy.stop()
    with pytest.raises(ShardUnavailable):
        client.ping()


def _shard_worker_threads() -> set:
    return {
        thread for thread in threading.enumerate()
        if re.fullmatch(r"shard-\d+-worker-\d+", thread.name)
    }


class TestRemoteScatter:
    """Remote probes are sent and read by the admission worker itself."""

    def test_remote_probes_overlap(self):
        """Both nodes answer 0.3 s late: the query waits ~0.3 s, not the
        ~0.6 s a serialized scatter would take, and no shard pool
        thread exists to wait on the sockets."""
        before = _shard_worker_threads()
        with _remote_tier() as (server, proxies):
            assert _shard_worker_threads() - before == set()
            assert all(shard.pool is None for shard in server._shards)
            server.query(PROBE, timeout=WAIT)  # dial both connections
            for proxy in proxies:
                proxy.delay(0.3)
            started = time.monotonic()
            result = server.query(PROBE, timeout=WAIT)
            elapsed = time.monotonic() - started
            assert not result.partial
            assert _fingerprint(result) == _fingerprint(_single().query(PROBE))
            assert elapsed < 0.5, f"remote probes did not overlap: {elapsed:.3f}s"

    def test_hedge_races_a_remote_straggler_and_wins(self):
        with _remote_tier(hedge=HedgePolicy(delay=0.02)) as (server, proxies):
            expected = _fingerprint(_single().query(PROBE))
            assert _fingerprint(server.query(PROBE, timeout=WAIT)) == expected
            proxies[1].delay(5.0, times=1)  # the first reply stalls
            started = time.monotonic()
            result = server.query(PROBE, timeout=WAIT)
            elapsed = time.monotonic() - started
            assert not result.partial
            assert _fingerprint(result) == expected
            assert elapsed < 1.0, f"the hedge did not win: {elapsed:.3f}s"
            health = server.health()
            assert health["hedging"]["issued"] >= 1
            assert health["hedging"]["wins"] >= 1
            assert health["shards"][1]["hedge_wins"] >= 1
            # The loser's connection was closed, not counted as a
            # transport failure; the next query is served normally.
            assert health["shards"][1]["reconnects"] == 0
            result = server.query(PROBE, timeout=WAIT)
            assert not result.partial
            assert _fingerprint(result) == expected

    def test_a_slow_node_delays_only_its_own_heartbeat(self):
        """Each remote shard is pinged by its own thread: while one node
        sits on a ping — bounded by the request timeout, not the dial
        timeout — the other node's beats keep coming."""
        with _remote_tier(
            heartbeat_interval=0.05,
            remote_connect_timeout=0.1,
            remote_request_timeout=2.0,
        ) as (server, proxies):
            # Tallies are read off the shards: health() would wait on
            # the slow node's counters.
            slow, healthy = server._shards
            proxies[0].delay(5.0)
            time.sleep(0.1)  # a ping to the slow node is now waiting
            before = healthy.heartbeats_ok
            time.sleep(1.0)
            assert healthy.heartbeats_ok >= before + 5
            assert slow.heartbeats_failed == 0  # still waiting, not failed

    def test_a_slow_node_skews_only_its_own_latency_window(self):
        """The healthy node's answer is stamped when it arrives, not
        when the gather, held by the slow node, reads it."""
        with _remote_tier(workers=1) as (server, proxies):
            proxies[0].delay(0.2)
            for _ in range(3):
                assert not server.query(PROBE, timeout=WAIT).partial
            slow, healthy = (
                row["latency"]["p50_seconds"] for row in server.health()["shards"]
            )
            assert slow >= 0.2 and healthy < 0.05, (slow, healthy)

    def test_a_node_that_drops_syns_costs_only_its_own_shard(self, blackhole_port):
        """A node that drops SYNs holds a dial for the query's deadline
        at most; the healthy node's frame is out before that dial ends,
        so its answer comes back within the deadline."""
        with _remote_tier() as (server, proxies):
            assert not server.query(PROBE, timeout=WAIT).partial
            _drop_syns(server, 0, proxies[0], blackhole_port)
            started = time.monotonic()
            result = server.query(PROBE, deadline=0.3, timeout=WAIT)
            elapsed = time.monotonic() - started
            assert result.shards_ok == (1,) and result.shards_failed == (0,)
            expected = [
                pair for pair in _single().query(PROBE)
                if server.router.shard_of(pair.rid_a) == 1
            ]
            assert expected and _fingerprint(result) == _fingerprint(expected)
            assert elapsed < 0.8, f"the dial held the query: {elapsed:.3f}s"

    def test_a_slow_fault_on_a_remote_shard_stalls_the_scatter(self):
        """``ShardFaults.slow`` on a remote shard sleeps on the admission
        worker before any frame is sent: the deadline cannot cut it
        short, every shard's budget is spent by then, and no hedge is
        sent."""
        faults = ShardFaults()
        with _remote_tier(faults=faults, hedge=HedgePolicy(delay=0.01)) as (
            server, _proxies,
        ):
            assert not server.query(PROBE, timeout=WAIT).partial
            faults.slow(0, 0.3, times=1)
            started = time.monotonic()
            result = server.query(PROBE, deadline=0.1, timeout=WAIT)
            assert time.monotonic() - started >= 0.3
            assert result.shards_failed == (0, 1)
            assert server.health()["hedging"]["issued"] == 0

    def test_idle_connections_follow_the_admission_workers(self):
        """Four workers over two nodes keep a connection each per node
        idle between bursts (the default pool is ``workers + 1``), so
        steady traffic dials nothing new."""
        with _remote_tier(workers=4) as (server, proxies):
            # Warm-up: four queries in flight at once, held by slow
            # replies, so each node has had four connections open.
            for proxy in proxies:
                proxy.delay(0.5)
            futures = [server.submit(PROBE) for _ in range(4)]
            for future in futures:
                assert not future.result(timeout=WAIT).partial
            for proxy in proxies:
                proxy.clear()
            accepted = [proxy.connections for proxy in proxies]
            assert accepted == [4, 4]
            errors: list = []

            def client():
                try:
                    for _ in range(25):
                        assert not server.query(PROBE, timeout=WAIT).partial
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
            assert errors == []
            assert [proxy.connections for proxy in proxies] == accepted


class TestBoundedWaits:
    """Every public entry point returns within the bound its docstring
    states while one node drops SYNs and another delays its replies 5 s
    (connect and request timeouts 0.5 s, no retry policy)."""

    CONNECT = REQUEST = 0.5
    SLACK = 0.4  # scheduling headroom, below any one bound

    def _tier(self, **kwargs):
        return _remote_tier(
            nodes=3,
            remote_connect_timeout=self.CONNECT,
            remote_request_timeout=self.REQUEST,
            **kwargs,
        )

    @pytest.mark.parametrize("add_lands_on", ["dropping", "delayed"])
    def test_every_entry_point_is_bounded(self, blackhole_port, add_lands_on):
        with self._tier(heartbeat_interval=0.1) as (server, proxies):
            # The next insert's shard gets the fault under test.
            target = server.router.shard_of(len(server))
            other, healthy = [sid for sid in range(3) if sid != target]
            dropping, delayed = (
                (target, other) if add_lands_on == "dropping" else (other, target)
            )
            _drop_syns(server, dropping, proxies[dropping], blackhole_port)
            proxies[delayed].delay(5.0)
            lost = tuple(sorted((dropping, delayed)))
            in_flight: list = []

            def drain():
                in_flight.append(server.submit(PROBE))  # no deadline
                return server.drain(timeout=self.REQUEST)

            table = [
                ("query", lambda: server.query(
                    PROBE, deadline=self.REQUEST, timeout=WAIT
                ), self.REQUEST),
                ("add", lambda: server.add("a record"), self.CONNECT + self.REQUEST),
                ("health", server.health, self.REQUEST),
                ("counters_snapshot", server.counters_snapshot, self.REQUEST),
                ("reindex", lambda: server.reindex(timeout=self.REQUEST), self.REQUEST),
                ("drain", drain, self.REQUEST),
            ]
            outcome, took = {}, {}
            for name, call, bound in table:
                started = time.monotonic()
                try:
                    outcome[name] = call()
                except Exception as exc:  # noqa: BLE001 — checked below
                    outcome[name] = exc
                took[name] = time.monotonic() - started
            assert all(
                took[name] < bound + self.SLACK for name, _, bound in table
            ), f"waits past their bounds: {took}"

            assert outcome["query"].shards_failed == lost
            assert outcome["query"].shards_ok == (healthy,)
            assert isinstance(outcome["add"], ShardUnavailable)
            rows = outcome["health"]["shards"]
            assert [sid for sid, row in enumerate(rows) if "error" in row] == list(lost)
            assert outcome["health"]["index"]["counters"]  # the healthy node's
            assert outcome["counters_snapshot"] == outcome["health"]["index"]["counters"]
            assert isinstance(outcome["reindex"], (ReindexTimeout, ShardUnavailable))
            assert in_flight[0].result(timeout=WAIT).shards_failed == lost

    def test_drain_ends_a_ping_in_flight_without_recording_it(self):
        """A ping held by a slow node ends when drain closes the
        clients: drain does not wait for it, and it counts neither as a
        failed beat nor on the breaker."""
        with _remote_tier(
            heartbeat_interval=0.05,
            remote_request_timeout=WAIT,
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, cooldown_seconds=60.0
            ),
        ) as (server, proxies):
            proxies[0].delay(5.0)
            time.sleep(0.2)  # a ping to the slow node is now waiting
            started = time.monotonic()
            assert server.drain(timeout=WAIT)
            assert time.monotonic() - started < self.SLACK
            slow = server._shards[0]
            assert slow.heartbeats_failed == 0
            assert slow.breaker.state == "closed"

    def test_health_waits_one_bound_however_many_nodes_are_slow(self):
        """Two delayed nodes cost ``health()`` and ``counters_snapshot()``
        one request timeout, not one each."""
        with self._tier() as (server, proxies):
            healthy = server._shards[2].index.begin_counters().result()
            assert healthy
            for proxy in proxies[:2]:
                proxy.delay(5.0)
            for name in ("health", "counters_snapshot"):
                started = time.monotonic()
                answer = getattr(server, name)()
                elapsed = time.monotonic() - started
                assert elapsed < 2 * self.REQUEST, (
                    f"{name} waited {elapsed:.2f}s: once per slow node"
                )
                if name == "health":
                    rows = answer["shards"]
                    assert ["error" in row for row in rows] == [True, True, False]
                    answer = answer["index"]["counters"]
                assert answer == healthy


class TestServerLifecycle:
    def test_drain_stops_shard_pools(self):
        server = _server()
        assert server.drain(timeout=WAIT) is True
        for shard in server._shards:
            for thread in shard.pool._threads:
                thread.join(WAIT)
                assert not thread.is_alive()

    def test_double_stop_is_idempotent(self):
        server = _server()
        assert server.stop(timeout=WAIT) is True
        assert server.stop(timeout=WAIT) is True
        for shard in server._shards:
            assert shard.pool._stopped

    def test_stop_after_failed_start_is_noop_and_start_retryable(self):
        class _FlakyStart(ShardedIndexServer):
            fail_next = True

            def _on_start(self):
                if self.fail_next:
                    raise RuntimeError("shard pool refused to spawn")
                super()._on_start()

        server = _FlakyStart(
            OverlapPredicate(2), shards=2, tokenizer=tokenize_words
        )
        for text in TEXTS:
            server.add(text)
        with pytest.raises(RuntimeError, match="refused to spawn"):
            server.start()
        # Nothing was built, so stop has nothing to tear down — and a
        # second stop is equally a no-op.
        assert server.stop(timeout=WAIT) is True
        assert server.stop(timeout=WAIT) is True
        # The fixed configuration starts and serves.
        server.fail_next = False
        server.start()
        try:
            result = server.query(PROBE, timeout=WAIT)
            assert not result.partial
        finally:
            assert server.stop(timeout=WAIT) is True

    def test_overload_sheds_with_typed_error(self):
        gate = threading.Event()
        parked = threading.Semaphore(0)

        def wedge(seconds: float) -> None:
            parked.release()
            assert gate.wait(WAIT)

        faults = ShardFaults(sleep=wedge)
        server = _server(workers=1, queue_limit=1, faults=faults)
        try:
            faults.slow(0, 1.0)
            accepted = [server.submit(PROBE)]
            assert parked.acquire(timeout=WAIT)  # the only worker is wedged
            accepted.append(server.submit(PROBE))  # fills the queue
            with pytest.raises(ServerOverloaded):
                for _ in range(4):
                    accepted.append(server.submit(PROBE))
            gate.set()
            for future in accepted:
                assert future.result(timeout=WAIT).partial is False
            assert server.health()["shed"] >= 1
        finally:
            gate.set()
            server.drain(timeout=WAIT)

    def test_counters_aggregate_across_shards(self):
        server = _server()
        try:
            server.query(PROBE, timeout=WAIT)
            aggregate = server.counters_snapshot()
            by_hand: dict = {}
            for shard in server._shards:
                for name, value in shard.index.counters_snapshot().items():
                    by_hand[name] = by_hand.get(name, 0) + value
            assert aggregate == by_hand
            # One query probes every shard exactly once.
            assert aggregate["probes"] == 3
            assert aggregate["candidates_checked"] > 0
        finally:
            server.drain(timeout=WAIT)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shard_workers": 0},
            {"query_cache": -1},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShardedIndexServer(OverlapPredicate(2), **kwargs)

    def test_health_shape(self):
        server = _server(query_cache=4, breaker_factory=CircuitBreaker)
        try:
            server.query(PROBE, timeout=WAIT)
            health = server.health()
            assert health["records"] == len(TEXTS)
            assert health["router"]["shards"] == 3
            assert len(health["shards"]) == 3
            for row in health["shards"]:
                assert set(row) == {
                    "shard", "records", "epoch", "binding", "breaker",
                    "cache", "latency", "probes", "hedges", "hedge_wins",
                    "failures", "remote", "retries", "reconnects",
                    "quarantined",
                }
                assert row["remote"] is False
                assert row["quarantined"] is None
                assert row["retries"] == 0
                assert row["reconnects"] == 0
            assert health["index"]["records"] == len(TEXTS)
        finally:
            server.drain(timeout=WAIT)
