"""Soak: a cached server stays exact while an adder races readers.

Every served index keeps its cached answers across ``add`` and extends
a hit with a probe of the records appended since. Four reader threads
repeat a small pool of queries — so most of their answers come from the
cache, extended past whatever the adding thread landed meanwhile —
while one thread adds records, some of them carrying words the pool's
queries held before any record did. The tiers: ``IndexServer``,
``ShardedIndexServer`` over one and two local shards, and over one
loopback ``ShardServer`` node.

Afterwards every answer is checked against a brute-force Jaccard scan.
An ``IndexServer`` answer must equal the scan of the records with rid
below its ``rid_b`` (the record count it answers). A sharded answer is
gathered from shards probed one after another, so it must hold exactly
the matches among the records added before the query was sent, and
only true matches among those whose add began before it returned. A
stale answer misses matches, and an extension applied twice or from
the wrong watermark repeats or skips some.
"""

import random
import threading
import time

import pytest

from repro import JaccardPredicate, SimilarityIndex
from repro.serving import IndexServer, ShardedIndexServer
from repro.serving.transport import ShardServer

pytestmark = pytest.mark.soak

#: Every blocking wait in this module is bounded by this; it is only
#: ever reached when something deadlocked.
WAIT = 30.0

N_READERS = 4
N_ADDS = 300
WORDS = [f"w{i}" for i in range(14)]
#: In queries from the start; only the adder's later records hold them.
LATE = ["late0", "late1"]


def _record(rng: random.Random, pool) -> list[str]:
    return rng.sample(pool, rng.randint(2, 5))


def _brute_force(query: list[str], records: list[list[str]]) -> list[tuple]:
    """Jaccard >= 0.5 over ``records``, in rid order, as the service
    reports it: ``(rid, |q & s| / |q | s|)``."""
    probe = set(query)
    found = []
    for rid, record in enumerate(records):
        inter = len(probe & set(record))
        union = len(probe) + len(record) - inter
        if inter and 2 * inter >= union:
            found.append((rid, inter / union))
    return found


def _serve(tier: str):
    """``(server, add, node)``: the tier under test, started, and how
    records reach it (``node`` is the loopback shard node, if any)."""
    predicate = JaccardPredicate(0.5)
    if tier == "index":
        index = SimilarityIndex(predicate)
        server = IndexServer(index, workers=4, query_cache=16)
        return server.start(), index.add, None
    node = None
    endpoints = None
    if tier == "remote":
        node = ShardServer(SimilarityIndex(predicate)).start()
        endpoints = [f"127.0.0.1:{node.port}"]
    server = ShardedIndexServer(
        predicate,
        shards=2 if tier == "sharded-2" else 1,
        workers=4,
        query_cache=16,
        shard_endpoints=endpoints,
    )
    return server.start(), server.add, node


@pytest.mark.parametrize("tier", ["index", "sharded-1", "sharded-2", "remote"])
def test_cached_answers_match_brute_force_under_adds(tier):
    rng = random.Random(11)
    records = [_record(rng, WORDS) for _ in range(40)]
    queries = [_record(rng, WORDS) for _ in range(6)]
    queries += [["late0", "w1", "w2"], ["late1", "late0", "w3"]]
    pending = [_record(rng, WORDS + LATE) for _ in range(N_ADDS)]

    server, add, node = _serve(tier)
    for record in records:
        add(record)
    #: Records whose add has returned; ``records`` gains each record
    #: before its add starts.
    added = [len(records)]
    done = threading.Event()
    errors: list[BaseException] = []
    answers: list[list] = [[] for _ in range(N_READERS)]

    def reader(slot: int) -> None:
        order = random.Random(slot)
        try:
            while not done.is_set():
                query = order.choice(queries)
                before = added[0]
                answer = server.query(query, timeout=WAIT)
                answers[slot].append((query, answer, before, len(records)))
        except BaseException as exc:  # noqa: BLE001 — fail the test
            errors.append(exc)

    def adder() -> None:
        try:
            for record in pending:
                records.append(record)
                add(record)
                added[0] += 1
                time.sleep(0.001)  # let the readers hit between adds
        except BaseException as exc:  # noqa: BLE001 — fail the test
            errors.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(N_READERS)
    ]
    threads.append(threading.Thread(target=adder, daemon=True))
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive(), "soak thread deadlocked"
        assert errors == []
        health = server.health()
    finally:
        done.set()
        server.drain(timeout=WAIT)
        if node is not None:
            node.stop()

    checked = 0
    for log in answers:
        for query, answer, before, started in log:
            got = [(m.rid_a, m.similarity) for m in answer]
            if tier == "index":
                seen = answer.records
                assert all(m.rid_b == seen for m in answer)
                assert got == _brute_force(query, records[:seen]), (query, seen)
            else:
                truth = _brute_force(query, records[:started])
                assert [m for m in got if m[0] < before] == [
                    m for m in truth if m[0] < before
                ], (query, before)
                assert all(m in truth for m in got), (query, started)
                assert got == sorted(set(got)), query  # no repeats
            checked += 1
    assert checked >= N_READERS
    caches = [row["cache"] for row in health.get("shards", [health])]
    assert sum(cache["patched"] for cache in caches) > 0
    for cache in caches:
        assert cache["patched"] <= cache["hits"]
