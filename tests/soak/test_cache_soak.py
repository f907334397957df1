"""Soak: a cached IndexServer stays exact while an adder races readers.

The server keeps its cached answers across ``add`` and extends a hit
with a probe of the records appended since. Four reader threads repeat
a small pool of queries — so most of their answers come from the cache,
extended past whatever the adding thread landed meanwhile — while one
thread adds records, some of them carrying words the pool's queries
held before any record did. Afterwards every answer is checked against
a brute-force Jaccard scan of the records with rid below its ``rid_b``
(the record count it answers): a stale answer misses matches, and an
extension applied twice or from the wrong watermark repeats or skips
some.
"""

import random
import threading
import time

import pytest

from repro import JaccardPredicate, SimilarityIndex
from repro.serving import IndexServer

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


def test_cached_answers_match_brute_force_under_adds():
    rng = random.Random(11)
    records = [_record(rng, WORDS) for _ in range(40)]
    queries = [_record(rng, WORDS) for _ in range(6)]
    queries += [["late0", "w1", "w2"], ["late1", "late0", "w3"]]
    pending = [_record(rng, WORDS + LATE) for _ in range(N_ADDS)]

    index = SimilarityIndex(JaccardPredicate(0.5))
    for record in records:
        index.add(record)
    server = IndexServer(index, workers=4, query_cache=16).start()
    done = threading.Event()
    errors: list[BaseException] = []
    answers: list[list] = [[] for _ in range(N_READERS)]

    def reader(slot: int) -> None:
        order = random.Random(slot)
        try:
            while not done.is_set():
                query = order.choice(queries)
                answers[slot].append((query, server.query(query, timeout=WAIT)))
        except BaseException as exc:  # noqa: BLE001 — fail the test
            errors.append(exc)

    def adder() -> None:
        try:
            for record in pending:
                index.add(record)
                records.append(record)
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
        stats = server.health()["cache"]
    finally:
        done.set()
        server.drain(timeout=WAIT)

    checked = 0
    for log in answers:
        for query, answer in log:
            seen = answer.records
            assert all(m.rid_b == seen for m in answer)
            got = [(m.rid_a, m.similarity) for m in answer]
            assert got == _brute_force(query, records[:seen]), (query, seen)
            checked += 1
    assert checked >= N_READERS
    assert stats["patched"] > 0
    assert stats["patched"] <= stats["hits"]
