"""Network chaos soak: the remote shard tier under transport faults.

A three-shard front end (one local, two remote nodes) takes threaded
query traffic while a :class:`NetworkFaults` proxy in front of one
node works through the wire failure taxonomy — connections refused,
frames corrupted, responses truncated, responses delayed past the
deadline, connections killed mid-response — and finally the node
itself is killed and restarted at a *new* address.

The invariants are the tentpole's contract, checked continuously:

* every answer is either complete or partial with the **exact** failed
  shard set — never silently short, never blaming a healthy shard;
* ``require_complete=True`` surfaces loss as a typed
  :class:`PartialResult` carrying the same exact accounting;
* transient corruption is absorbed by reconnect-retries (the answers
  stay byte-identical to a fault-free reference server);
* after the node restart + proxy retarget, heartbeats close the
  breaker and the tier returns to fully-complete answers with no
  manual intervention.

Everything is time-bounded: a hang is a failed wait, not a hung job.
A failure carries the run's per-phase timeline (the faulted shard's
breaker state, its heartbeat tallies, the last query's lost shards), so
a flake that cannot be reproduced still says where it went wrong.
"""

import threading
import time

import pytest

from repro.core.service import SimilarityIndex
from repro.predicates import JaccardPredicate
from repro.runtime.errors import PartialResult
from repro.runtime.faults import NetworkFaults
from repro.serving import CircuitBreaker, IndexServer, RetryPolicy, ShardedIndexServer
from repro.serving.transport import ShardServer
from repro.text.tokenizers import tokenize_words

pytestmark = pytest.mark.soak

WAIT = 30.0

VOCAB = [
    "join", "set", "similarity", "predicate", "merge", "probe", "index",
    "record", "cluster", "threshold", "overlap", "cosine", "weight",
]


def _texts(n: int = 36) -> list[str]:
    import random

    rng = random.Random(17)
    return [
        " ".join(rng.sample(VOCAB, rng.randint(3, 7))) for _ in range(n)
    ]


def _fingerprint(matches) -> list:
    return [(m.rid_a, m.rid_b, m.similarity) for m in matches]


def _wait_until(predicate, timeout: float = WAIT, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _node(texts_for_node=()) -> ShardServer:
    index = SimilarityIndex(JaccardPredicate(0.4), tokenizer=tokenize_words)
    for text in texts_for_node:
        index.add(text)
    return ShardServer(index).start()


class TestNetworkChaos:
    SHARDS = 3
    FAULTED = 1  # the shard whose node sits behind the proxy

    def _build(self):
        """single reference + front end with shard 1 behind a proxy."""
        texts = _texts()
        self.texts = texts
        self.timeline: list[str] = []
        self.started = time.monotonic()
        self.last_failed = None

        index = SimilarityIndex(JaccardPredicate(0.4), tokenizer=tokenize_words)
        for text in texts:
            index.add(text)
        self.single = IndexServer(index, workers=2).start()

        self.node_a = _node()   # faulted via proxy (shard 1)
        self.node_b = _node()   # healthy remote (shard 2)
        self.proxy = NetworkFaults(*self.node_a.address).start()

        self.server = ShardedIndexServer(
            JaccardPredicate(0.4),
            shards=self.SHARDS,
            tokenizer=tokenize_words,
            workers=4,
            shard_workers=2,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.01, sleep=time.sleep
            ),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=3, cooldown_seconds=0.2
            ),
            shard_endpoints=[
                "local",
                f"127.0.0.1:{self.proxy.port}",
                f"127.0.0.1:{self.node_b.port}",
            ],
            heartbeat_interval=0.05,
            remote_connect_timeout=0.5,
            remote_request_timeout=2.0,
        )
        for text in texts:
            self.server.add(text)
        self.server.start()
        self.queries = texts[:8] + ["probe tokens that match nothing"]
        self.reference = {
            probe: _fingerprint(self.single.query(probe, timeout=WAIT))
            for probe in self.queries
        }

    def _teardown(self):
        self.server.drain(timeout=WAIT)
        self.single.drain(timeout=WAIT)
        self.proxy.stop()
        self.node_a.stop()
        self.node_b.stop()

    def _query(self, probe, **kwargs):
        result = self.server.query(probe, timeout=WAIT, **kwargs)
        self.last_failed = result.shards_failed
        return result

    def _mark(self, phase: str) -> None:
        """One timeline row, read off the faulted shard itself: a
        ``health()`` call would send its own traffic through the proxy
        and could take an armed fault."""
        shard = self.server._shards[self.FAULTED]
        self.timeline.append(
            f"{time.monotonic() - self.started:7.3f}s {phase}:"
            f" breaker {shard.breaker.state},"
            f" heartbeats {shard.heartbeats_ok} ok/{shard.heartbeats_failed} failed,"
            f" last shards_failed {self.last_failed}"
        )

    def _assert_all_complete_and_exact(self):
        for probe in self.queries:
            result = self._query(probe)
            assert not result.partial, (
                f"lost shards {result.shards_failed} with no fault armed"
            )
            assert _fingerprint(result) == self.reference[probe]

    def test_full_taxonomy_then_restart(self):
        self._build()
        try:
            self._mark("phase 0: baseline")
            # Phase 0: fault-free baseline — identical to the reference.
            self._assert_all_complete_and_exact()

            self._mark("phase 1: refuse")
            # Phase 1: connections refused. Retries burn out, the shard
            # is lost with exact accounting; require_complete raises
            # the same accounting as a typed error.
            self.proxy.refuse(times=1000)
            self.proxy.sever()  # a dead node resets pooled connections too
            result = self._query(self.queries[0])
            assert result.partial
            assert result.shards_failed == (self.FAULTED,)
            assert result.shards_ok == (0, 2)
            with pytest.raises(PartialResult) as info:
                self.server.submit(
                    self.queries[1], require_complete=True
                ).result(timeout=WAIT)
            assert info.value.shards_failed == (self.FAULTED,)
            assert self.proxy.injected["refuse"] > 0
            self.proxy.clear()

            self._mark("phase 1: refusals cleared")
            # The breaker likely tripped on the refusals; heartbeats
            # are its trial traffic, so recovery needs no queries.
            assert _wait_until(self._all_complete), (
                "tier did not recover after refusals cleared"
            )
            self._assert_all_complete_and_exact()

            self._mark("phase 2: corrupt")
            # Phase 2: corrupted frames — absorbed by reconnect-retry,
            # answers stay exact. One armed fault at a time: a single
            # corruption can land on a query response or a heartbeat
            # ping, but either way it cannot exhaust the 3-attempt
            # retry budget or trip the threshold-3 breaker, so every
            # answer must come back complete.
            before = self._client_counters()
            for probe in self.queries[:3]:
                self.proxy.corrupt(times=1)
                result = self._query(probe)
                assert not result.partial
                assert _fingerprint(result) == self.reference[probe]
                assert _wait_until(lambda: not self.proxy.pending)
            after = self._client_counters()
            assert after["reconnects"] > before["reconnects"]
            assert after["retries"] > before["retries"]
            assert self.proxy.injected["corrupt"] == 3
            self.proxy.clear()

            self._mark("phase 3: truncate")
            # Phase 3: truncated responses — the torn frame surfaces as
            # a connection error, also retried to success.
            for probe in self.queries[:2]:
                self.proxy.truncate(nbytes=8, times=1)
                result = self._query(probe)
                assert not result.partial
                assert _fingerprint(result) == self.reference[probe]
                assert _wait_until(lambda: not self.proxy.pending)
            assert self.proxy.injected["truncate"] == 2
            self.proxy.clear()

            self._mark("phase 4: delay")
            # Phase 4: responses delayed past the query deadline — the
            # slow shard is lost, not the query. The deadline bounds the
            # scatter-gather; the generous future wait just collects it.
            self.proxy.delay(seconds=5.0, times=1000)
            result = self._query(self.queries[0], deadline=1.0)
            assert result.partial
            assert result.shards_failed == (self.FAULTED,)
            self.proxy.clear()
            assert _wait_until(self._all_complete)

            self._mark("phase 5: kill")
            # Phase 5: connections killed mid-response under threaded
            # traffic: every answer is either complete-and-exact or
            # partial blaming exactly the faulted shard.
            self.proxy.kill(times=10)
            errors: list = []
            outcomes: list = []

            def worker(probe):
                try:
                    result = self._query(probe)
                    if result.partial:
                        outcomes.append(("partial", result.shards_failed))
                        assert result.shards_failed == (self.FAULTED,)
                    else:
                        outcomes.append(("complete", ()))
                        assert _fingerprint(result) == self.reference[probe]
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(probe,))
                for probe in self.queries * 3
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
            assert errors == []
            assert len(outcomes) == len(self.queries) * 3
            self.proxy.clear()
            assert _wait_until(self._all_complete)

            self._mark("phase 6: node killed")
            # Phase 6: node killed outright, then restarted at a NEW
            # address with the same shard state. The proxy retargets;
            # heartbeats find the recovered node, close the breaker,
            # and the tier returns to complete answers by itself.
            self.node_a.stop()
            assert _wait_until(
                lambda: self._query(self.queries[0]).shards_failed == (self.FAULTED,)
            ), "killed node was never detected"

            self._mark("phase 6: death detected")
            # While the node is still down, the breaker's half-open
            # trial slot goes to a heartbeat ping — which fails and is
            # counted. (While the circuit is open pings are *skipped*,
            # so this is the only window that can record a miss.)
            assert _wait_until(
                lambda: self.server.health()["shards"][self.FAULTED][
                    "heartbeats"
                ]["failed"] > 0
            ), "no failed heartbeat was recorded against the dead node"

            shard_records = [
                text
                for rid, text in enumerate(self.texts)
                if self.server.router.shard_of(rid) == self.FAULTED
            ]
            self._mark("phase 6: node restarted")
            self.node_a = _node(shard_records)  # same state, new port
            self.proxy.retarget(*self.node_a.address)
            assert _wait_until(self._all_complete), (
                "tier did not reconnect after node restart"
            )
            self._assert_all_complete_and_exact()

            self._mark("phase 6: recovered")
            # Accounting sanity: reconnects and heartbeat failures were
            # observed and surfaced in health.
            health = self.server.health()
            row = health["shards"][self.FAULTED]
            assert row["remote"]
            assert row["reconnects"] > 0
            assert row["heartbeats"]["failed"] > 0
            assert row["heartbeats"]["ok"] > 0
            assert health["reconnects"] >= row["reconnects"]
        except AssertionError as exc:
            self._mark("failed")
            raise AssertionError(
                f"{exc}\n--- timeline ---\n" + "\n".join(self.timeline)
            ) from exc
        finally:
            self._teardown()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _all_complete(self) -> bool:
        result = self._query(self.queries[0])
        return not result.partial and (
            _fingerprint(result) == self.reference[self.queries[0]]
        )

    def _client_counters(self) -> dict:
        row = self.server.health()["shards"][self.FAULTED]
        return {"retries": row["retries"], "reconnects": row["reconnects"]}
