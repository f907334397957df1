"""IndexServer: admission control, deadlines, retries, breaker, drain."""

import threading

import pytest

from repro import OverlapPredicate
from repro.core.service import SimilarityIndex
from repro.runtime.errors import CircuitOpen, JoinTimeout, ServerOverloaded
from repro.runtime.faults import FakeClock
from repro.serving import CircuitBreaker, IndexServer, RetryPolicy
from repro.serving.breaker import CLOSED as BREAKER_CLOSED
from repro.serving.server import CLOSED, SERVING
from repro.text.tokenizers import tokenize_words

#: Bound for operations that should be immediate; only hit on deadlock.
WAIT = 10.0


def _real_index() -> SimilarityIndex:
    index = SimilarityIndex(OverlapPredicate(2), tokenizer=tokenize_words)
    index.add("efficient set joins on similarity predicates")
    index.add("completely different words entirely")
    return index


class _ScriptedIndex:
    """Index double whose ``query`` behaviour is scripted per call."""

    def __init__(self):
        self.gate: threading.Event | None = None
        self.started = threading.Semaphore(0)
        self.failures_left = 0
        self.exc = OSError("injected index failure")
        self.calls = 0
        self._lock = threading.Lock()

    def query(self, item, context=None):
        with self._lock:
            self.calls += 1
            failing = self.failures_left > 0
            if failing:
                self.failures_left -= 1
        self.started.release()
        if self.gate is not None:
            assert self.gate.wait(WAIT)
        if failing:
            raise self.exc
        if context is not None:
            context.start()
            from repro.utils.counters import CostCounters

            context.tick(CostCounters(), check_memory=False)
        return [item]

    def __len__(self):
        return 0

    def counters_snapshot(self):
        return {"unknown_query_tokens": 0}


class TestEndToEnd:
    def test_server_results_match_direct_queries(self):
        index = _real_index()
        with IndexServer(index, workers=3) as server:
            queries = ["set joins similarity", "different words entirely", "zzz qqq"]
            futures = [server.submit(q) for q in queries]
            for query, future in zip(queries, futures):
                assert future.result(timeout=WAIT) == index.query(query)

    def test_add_is_visible_after_drain_and_restart(self):
        index = _real_index()
        server = IndexServer(index, workers=1, query_cache=8).start()
        try:
            before = server.query("efficient joins set", timeout=WAIT)
            index.add("efficient joins set appended later")
            server.drain(timeout=WAIT)
            server.start()
            after = server.query("efficient joins set", timeout=WAIT)
            assert after == index.query("efficient joins set")
            assert len(after) == len(before) + 1
        finally:
            server.drain(timeout=WAIT)

    def test_sync_wrapper(self):
        with IndexServer(_real_index(), workers=1) as server:
            [match] = server.query("set joins similarity", timeout=WAIT)
            assert match.rid_a == 0

    def test_submit_before_start_and_after_drain_sheds(self):
        server = IndexServer(_real_index())
        with pytest.raises(ServerOverloaded, match="not started"):
            server.submit("set joins similarity")
        server.start()
        server.drain(timeout=WAIT)
        assert server.state == CLOSED
        with pytest.raises(ServerOverloaded):
            server.submit("set joins similarity")

    def test_deadline_and_context_are_mutually_exclusive(self):
        from repro.runtime.context import JoinContext

        with IndexServer(_real_index()) as server:
            with pytest.raises(ValueError):
                server.submit("x", deadline=1.0, context=JoinContext())


class TestOverload:
    def test_full_queue_sheds_with_typed_error(self):
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        server = IndexServer(scripted, workers=1, queue_limit=2).start()
        try:
            blocked = server.submit("a")  # occupies the worker
            assert scripted.started.acquire(timeout=WAIT)
            queued = [server.submit("b"), server.submit("c")]  # fills the queue
            with pytest.raises(ServerOverloaded) as err:
                server.submit("d")
            assert err.value.queue_limit == 2
            assert server.health()["shed"] == 1
            scripted.gate.set()
            for future in [blocked] + queued:
                future.result(timeout=WAIT)
        finally:
            scripted.gate.set()
            server.drain(timeout=WAIT)

    def test_shed_request_never_reaches_the_index(self):
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        server = IndexServer(scripted, workers=1, queue_limit=1).start()
        try:
            server.submit("a")
            assert scripted.started.acquire(timeout=WAIT)
            server.submit("b")
            with pytest.raises(ServerOverloaded):
                server.submit("c")
            scripted.gate.set()
            server.drain(timeout=WAIT)
            assert scripted.calls == 2  # "c" was shed at admission
        finally:
            scripted.gate.set()
            server.drain(timeout=WAIT)


class TestDeadlines:
    def test_deadline_expired_while_queued_times_out_without_breaker_blame(self):
        clock = FakeClock()
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        server = IndexServer(
            scripted, workers=1, queue_limit=4, breaker=breaker, clock=clock
        ).start()
        try:
            server.submit("blocker")
            assert scripted.started.acquire(timeout=WAIT)
            doomed = server.submit("doomed", deadline=5.0)
            clock.advance(6.0)  # expires in the queue
            scripted.gate.set()
            with pytest.raises(JoinTimeout):
                doomed.result(timeout=WAIT)
            # Queue-expiry is overload, not dependency failure: the
            # breaker (threshold 1!) must still be closed.
            assert breaker.state == BREAKER_CLOSED
            assert server.health()["failed"] == 1
        finally:
            scripted.gate.set()
            server.drain(timeout=WAIT)

    def test_default_deadline_applies(self):
        clock = FakeClock()
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        server = IndexServer(
            scripted, workers=1, queue_limit=4, default_deadline=2.0, clock=clock
        ).start()
        try:
            server.submit("blocker")
            assert scripted.started.acquire(timeout=WAIT)
            doomed = server.submit("doomed")
            clock.advance(3.0)
            scripted.gate.set()
            with pytest.raises(JoinTimeout):
                doomed.result(timeout=WAIT)
        finally:
            scripted.gate.set()
            server.drain(timeout=WAIT)


class TestRetries:
    def test_transient_failure_retried_to_success(self):
        scripted = _ScriptedIndex()
        scripted.failures_left = 2
        policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
        with IndexServer(scripted, workers=1, retry_policy=policy) as server:
            assert server.submit("q").result(timeout=WAIT) == ["q"]
            health = server.health()
        assert scripted.calls == 3
        assert health["retried"] == 2
        assert health["completed"] == 1

    def test_exhausted_retries_fail_the_request(self):
        scripted = _ScriptedIndex()
        scripted.failures_left = 99
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
        with IndexServer(scripted, workers=1, retry_policy=policy) as server:
            with pytest.raises(OSError):
                server.submit("q").result(timeout=WAIT)
            assert server.health()["failed"] == 1


class TestBreakerIntegration:
    def test_consecutive_failures_trip_then_fail_fast(self):
        clock = FakeClock()
        scripted = _ScriptedIndex()
        scripted.failures_left = 2
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        with IndexServer(scripted, workers=1, breaker=breaker, clock=clock) as server:
            for _ in range(2):
                with pytest.raises(OSError):
                    server.submit("q").result(timeout=WAIT)
            # Tripped: the next request fails fast, never touching the index.
            with pytest.raises(CircuitOpen):
                server.submit("q").result(timeout=WAIT)
            assert scripted.calls == 2
            # Cooldown elapses; the half-open trial succeeds and closes.
            clock.advance(30.0)
            assert server.submit("q").result(timeout=WAIT) == ["q"]
            assert server.health()["breaker"] == {
                "state": "closed",
                "times_opened": 1,
            }


class TestHealth:
    def test_reports_all_operational_fields(self):
        with IndexServer(_real_index(), workers=2) as server:
            server.query("set joins similarity", timeout=WAIT)
            health = server.health()
        assert health["state"] == SERVING  # snapshot taken before drain
        assert health["workers"] == 2
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["completed"] == 1
        assert health["breaker"] is None
        assert health["latency"]["count"] == 1
        assert health["latency"]["p50_seconds"] is not None
        assert health["latency"]["p99_seconds"] is not None
        assert health["index"]["records"] == 2
        assert "unknown_query_tokens" in health["index"]["counters"]
        assert health["pool"] == {
            "busy": 0,
            "total": 2,
            "saturation": 0.0,
        }

    def test_pool_saturation_tracks_busy_workers(self):
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        server = IndexServer(scripted, workers=2, queue_limit=8).start()
        try:
            idle = server.health()["pool"]
            assert (idle["busy"], idle["total"], idle["saturation"]) == (0, 2, 0.0)
            futures = [server.submit(str(i)) for i in range(2)]
            for _ in futures:
                assert scripted.started.acquire(timeout=WAIT)
            saturated = server.health()["pool"]
            assert (saturated["busy"], saturated["total"]) == (2, 2)
            assert saturated["saturation"] == 1.0
            scripted.gate.set()
            for future in futures:
                future.result(timeout=WAIT)
        finally:
            scripted.gate.set()
            server.drain(timeout=WAIT)
        assert server.health()["pool"]["busy"] == 0


class TestDrain:
    def test_drain_completes_admitted_work(self):
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()
        server = IndexServer(scripted, workers=1, queue_limit=8).start()
        futures = [server.submit(str(i)) for i in range(4)]
        assert scripted.started.acquire(timeout=WAIT)

        release = threading.Timer(0.1, scripted.gate.set)
        release.start()
        try:
            assert server.drain(timeout=WAIT) is True
        finally:
            release.cancel()
        assert server.state == CLOSED
        assert [f.result(timeout=0) for f in futures] == [["0"], ["1"], ["2"], ["3"]]

    def test_timed_out_drain_fails_leftovers_and_still_closes(self):
        scripted = _ScriptedIndex()
        scripted.gate = threading.Event()  # never set: worker stays wedged
        server = IndexServer(scripted, workers=1, queue_limit=8).start()
        wedged = server.submit("wedged")
        assert scripted.started.acquire(timeout=WAIT)
        queued = server.submit("queued")
        assert server.drain(timeout=0.2) is False
        assert server.state == CLOSED
        # The queued request's caller is unblocked with a typed error...
        with pytest.raises(ServerOverloaded, match="draining"):
            queued.result(timeout=0)
        # ...and unwedging the worker lets the in-flight one finish.
        scripted.gate.set()
        assert wedged.result(timeout=WAIT) == ["wedged"]

    def test_double_drain_is_idempotent(self):
        server = IndexServer(_real_index()).start()
        assert server.drain(timeout=WAIT) is True
        assert server.drain(timeout=WAIT) is True

    def test_double_stop_is_idempotent(self):
        server = IndexServer(_real_index()).start()
        assert server.stop(timeout=WAIT) is True
        assert server.stop(timeout=WAIT) is True
        assert server.state == CLOSED

    def test_stop_of_never_started_server_is_noop(self):
        server = IndexServer(_real_index())
        assert server.stop(timeout=WAIT) is True
        assert server.state == CLOSED

    def test_stop_after_failed_start_is_noop_and_start_retryable(self):
        class _FlakyStart(IndexServer):
            fail_next = True

            def _on_start(self):
                if self.fail_next:
                    raise RuntimeError("executor refused to spawn")

        server = _FlakyStart(_real_index())
        with pytest.raises(RuntimeError, match="refused to spawn"):
            server.start()
        assert server.state == CLOSED
        # A failed start leaves nothing behind to tear down...
        assert server.stop(timeout=WAIT) is True
        # ...and the fixed configuration can start (and serve) again.
        server.fail_next = False
        server.start()
        try:
            assert server.query(
                "efficient set joins similarity", timeout=WAIT
            )
        finally:
            assert server.stop(timeout=WAIT) is True


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            IndexServer(_real_index(), workers=0)
        with pytest.raises(ValueError):
            IndexServer(_real_index(), queue_limit=0)
