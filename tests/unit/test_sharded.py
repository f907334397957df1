"""ShardedIndexServer: routing, exactness, fault domains, accounting."""

import threading

import pytest

from repro import OverlapPredicate
from repro.core.results import MatchPair
from repro.core.service import SimilarityIndex
from repro.runtime.errors import (
    PartialResult,
    RidDesync,
    ServerOverloaded,
    ShardUnavailable,
)
from repro.runtime.faults import ShardFaults
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
        server = ShardedIndexServer(
            OverlapPredicate(2), shards=3, tokenizer=tokenize_words
        )
        rids = [server.add(text, payload=f"p{i}") for i, text in enumerate(TEXTS)]
        assert rids == list(range(len(TEXTS)))
        assert len(server) == len(TEXTS)
        assert [server.payload(rid) for rid in rids] == [
            f"p{i}" for i in range(len(TEXTS))
        ]

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
