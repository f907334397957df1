"""Memory-mapped columnar postings: open-time, residency, probe work.

Compares the three index backends on the same join — the in-memory
``ScoredInvertedIndex``, the zero-copy mapped columns
(``index_backend='mmap'``), and the mapped varbyte skip blocks
(``index_backend='mmap-varbyte'``) — and measures what the mapped
format exists for:
opening a persisted index is O(directory) (milliseconds regardless of
posting volume) and serving faults in only the postings a query stream
actually touches, not the file.
"""

import os
import tempfile
import time

from harness import citation_words, run_join
from repro import JaccardPredicate, OverlapPredicate
from repro.core.service import SimilarityIndex
from repro.storage.mmap_index import MappedInvertedIndex

N = 2000
THRESHOLD = 15
SERVE_QUERIES = 64


def _open_ms(opener, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        opened = opener()
        elapsed = time.perf_counter() - started
        opened.close()
        best = min(best, elapsed)
    return best * 1000.0


def test_substrates_probe_work_and_wall(benchmark, report):
    data = citation_words(N)
    predicate = OverlapPredicate(THRESHOLD)

    def run():
        return [
            run_join(
                "probe-count-optmerge", data, predicate, index_backend=backend
            )
            for backend in ("memory", "mmap", "mmap-varbyte")
        ]

    memory, mapped, varbyte = benchmark.pedantic(run, rounds=1, iterations=1)

    def tuples(result):
        return sorted((p.rid_a, p.rid_b, p.similarity) for p in result.pairs)

    assert tuples(mapped) == tuples(memory) == tuples(varbyte)
    report(
        "mmap: probe work by index substrate",
        "in-memory ScoredInvertedIndex",
        work=memory.counters.total_work(),
        pairs=len(memory.pairs),
        seconds=memory.elapsed_seconds,
    )
    report(
        "mmap: probe work by index substrate",
        "mapped columns (zero-copy)",
        work=mapped.counters.total_work(),
        pairs=len(mapped.pairs),
        seconds=mapped.elapsed_seconds,
    )
    report(
        "mmap: probe work by index substrate",
        "mapped varbyte blocks",
        work=varbyte.counters.total_work(),
        pairs=len(varbyte.pairs),
        seconds=varbyte.elapsed_seconds,
    )
    # The mapped columns feed the identical merge: same counted work.
    assert mapped.counters.total_work() == memory.counters.total_work()
    assert varbyte.counters.total_work() == memory.counters.total_work()


def test_open_time_and_residency(benchmark, report, tmp_path):
    data = citation_words(N)
    predicate = OverlapPredicate(THRESHOLD)
    path = str(tmp_path / "join.rpmx")
    run_join(
        "probe-count-optmerge", data, predicate,
        index_backend="mmap", index_path=path,
    )
    file_bytes = os.path.getsize(path)

    open_ms = benchmark.pedantic(
        lambda: _open_ms(lambda: MappedInvertedIndex.open(path)),
        rounds=1, iterations=1,
    )
    index = MappedInvertedIndex.open(path)
    try:
        directory_bytes = index.directory_bytes
        # Touch the postings a small probe stream needs, nothing more.
        for rid in range(SERVE_QUERIES):
            index.probe_lists(data[rid], [1.0] * len(data[rid]))
        resident = index.resident_bytes()
    finally:
        index.close()
    report(
        "mmap: open time and residency",
        f"join index n={N}",
        file_mb=file_bytes / 1e6,
        directory_kb=directory_bytes / 1e3,
        open_ms=open_ms,
        resident_after_64_probes_mb=resident / 1e6,
    )
    assert open_ms < 100.0
    assert resident < file_bytes


def test_serving_open_time(benchmark, report, tmp_path):
    data = citation_words(N)
    predicate = JaccardPredicate(0.7)
    service = SimilarityIndex(predicate)
    for record in data.records:
        service.add(record)
    snap = str(tmp_path / "ix.snap")
    mpath = str(tmp_path / "ix.rpmx")
    service.save(snap)
    service.save(mpath, format="mmap")

    def measure():
        mapped_ms = _open_ms(
            lambda: SimilarityIndex.load(mpath, predicate, mmap=True), rounds=3
        )
        started = time.perf_counter()
        SimilarityIndex.load(snap, predicate)
        snapshot_ms = (time.perf_counter() - started) * 1000.0
        return mapped_ms, snapshot_ms

    mapped_ms, snapshot_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    mapped = SimilarityIndex.load(mpath, predicate, mmap=True)
    try:
        queries = list(data.records[:SERVE_QUERIES])
        for query in queries:
            mapped.query(query)
        resident = mapped._index.resident_bytes()
    finally:
        mapped.close()
    report(
        "mmap: serving open time",
        "load(mmap=True) — map + directory",
        open_ms=mapped_ms,
        resident_after_64_queries_mb=resident / 1e6,
        file_mb=os.path.getsize(mpath) / 1e6,
    )
    report(
        "mmap: serving open time",
        "load() — decode + rebuild",
        open_ms=snapshot_ms,
    )
    assert mapped_ms < 100.0
    assert mapped_ms < snapshot_ms
