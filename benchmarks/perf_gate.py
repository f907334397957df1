"""Perf-regression gate over machine-independent ``work`` counters.

Every suite is one entry in :data:`SUITES`: its committed baseline file
at the repo root, a pinned matrix of cases, the measure function that
runs one case into one report row, and the checks the suite declares.
Each baseline holds two profiles: ``quick`` (n=500, the subset CI
re-runs on every push) and ``full`` (n=2000, the whole matrix).

With ``--check`` the gate re-runs one profile of every selected suite,
writes the fresh reports, and lists every failure of every suite before
exiting non-zero. Every suite gates the same three things:

* pair count — any change is a correctness question, not perf;
* ``work`` — growth above 10% of the committed number fails. Counters
  are a pure function of (dataset, predicate, algorithm), so the
  committed baseline holds on any CI runner; wall-clock is recorded
  for trend-watching but never gates;
* coverage — a case in the committed profile that the run did not
  produce fails, so deleting or renaming a case cannot drop its gate.

Then each suite's declared checks: identity flags that must be present
and true, soundness counters that must be present and zero, per-case
floors and caps, and bounds relative to the committed row.

The suites:

``serial``
    The hot paths of the micro-optimization work: the MergeOpt heap,
    the two-pass probe, the online and cluster probes, the prefix-filter
    scan, and the compressed-postings decode loop
    (``index_backend='mmap-varbyte'``). Work and pairs only.
``bitmap``
    The bitmap-signature candidate filter (:mod:`repro.filters`): each
    case joins unfiltered and with ``bitmap_filter=True``; the matches
    must be identical (``pairs_match``: the filter's soundness
    contract), and the paths the filter exists for carry a floor on the
    verification ``reduction``. Merge-driven candidates already carry
    their weights, so the adaptive controller switches the filter off
    there and those cases have no floor.
``merge``
    The merge-backend knob (:mod:`repro.core.accumulator`): each case
    joins once per backend, ``heap`` and ``accumulator``; the matches
    must be identical, and cases carry floors on the work and (where the
    margin is noise-proof) wall-clock improvement of the accumulator.
``prefix``
    The prefix-filter stack (:mod:`repro.core.positional_filter`): each
    case joins with MergeOpt, the basic prefix filter, and the full
    PPJoin+ positional/suffix stack; all three must agree, and the stack
    must prune at least half of the basic prefix filter's candidates.
    Cases are Jaccard by design: for a constant overlap threshold the
    prefix bound is already tight, so the position filter never fires.
``serve``
    The serving tier (:mod:`repro.serving`): each case streams the same
    queries through a single-index :class:`IndexServer`, an in-process
    :class:`ShardedIndexServer`, and a front end whose shards are all
    :class:`ShardServer` nodes on loopback; all three answer streams
    must be identical. The sharded merge work gates; latencies are
    recorded only.
``mmap``
    The memory-mapped columnar index (:mod:`repro.storage.mmap_index`):
    each case joins on the in-memory, ``mmap`` and ``mmap-varbyte``
    backends, whose matches must be bit-identical, and serves a pinned
    query stream off a ``save(format='mmap')`` file, whose answers must
    match the live index. ``load(mmap=True)`` open time stays under an
    absolute ceiling (open is O(directory)), and the bytes resident
    after the stream — a deterministic counter, not an RSS sample —
    may grow at most 10% and must stay below the file size.
``approx``
    The approximate join mode (:mod:`repro.approx`): each case runs the
    exact positional-filter join (ground truth), Probe-Cluster (the
    exact default it competes with), and the LSH join seeded with
    :data:`BENCHMARK_SEED` at ``target_recall=0.9``. Recall must reach
    the target, every emitted pair must re-verify independently (zero
    ``false_positives``), and the work ratio against the exact join
    must stay at or below one half.

With ``--report`` the gate prints a compact trajectory table across
every committed BENCH file (each suite plus ``BENCH_parallel.json``)
and exits; nothing is run. Missing or unreadable files are skipped
with a warning.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py --quick --check            # gate every suite, quick (CI)
    PYTHONPATH=src python benchmarks/perf_gate.py --check                    # gate every suite, full
    PYTHONPATH=src python benchmarks/perf_gate.py --suite mmap --check       # gate one suite
    PYTHONPATH=src python benchmarks/perf_gate.py --suite merge              # rewrite BENCH_merge.json
    PYTHONPATH=src python benchmarks/perf_gate.py --report                   # cross-BENCH trajectory table

``--suite`` repeats; rewriting a baseline (no ``--check``) requires it.
``--output DIR`` writes the reports there instead of the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import traceback
from typing import Callable, NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import BENCHMARK_SEED, dataset_by_name  # noqa: E402

from repro import (  # noqa: E402
    JaccardPredicate,
    OverlapPredicate,
    make_algorithm,
    similarity_join,
)
from repro.core.service import SimilarityIndex  # noqa: E402
from repro.serving import IndexServer, ShardedIndexServer  # noqa: E402
from repro.serving.transport import ShardServer  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARALLEL_BASELINE = os.path.join(REPO_ROOT, "BENCH_parallel.json")

#: Allowed relative growth of a case's ``work`` counter before the gate
#: fails. Counters are deterministic, so any growth is a real algorithmic
#: regression; 10% of headroom absorbs intentional small trade-offs that
#: a PR should call out explicitly by re-baselining.
TOLERANCE = 0.10

_PROFILES = {"quick": 500, "full": 2000}

#: Queries per serving measurement: the first K corpus records re-asked
#: as probes.
_QUERIES = 64

#: Absolute ceiling on ``load(mmap=True)`` open time, milliseconds.
#: Open cost is O(directory) — parse the header and JSON directory,
#: map the file — and measures ~2ms where the snapshot decode+rebuild
#: path takes ~75ms, so 100ms (the acceptance bound for multi-hundred-
#: MB files) is noise-proof on any CI runner. The committed baseline's
#: ``open_ms`` is additionally honored as 3x headroom where tighter.
_MMAP_OPEN_CEILING_MS = 100.0

#: Dict-shaped mirror of ``CostCounters.total_work`` for servers that
#: report ``counters_snapshot()`` instead of a counters object.
_WORK_COUNTERS = (
    "heap_pops", "list_items_touched", "binary_searches",
    "pairs_generated", "pairs_verified",
)


# ----------------------------------------------------------------------
# Measure functions: one case in, one report row out
# ----------------------------------------------------------------------


def _join_once(dataset, predicate, algorithm, **knobs):
    """One join; ``knobs`` are :func:`make_algorithm`'s backend/filter knobs."""
    return make_algorithm(algorithm, **knobs).join(dataset, predicate)


def _tuples(result) -> list[tuple]:
    """A join's matches as sorted ``(rid_a, rid_b, similarity)`` tuples."""
    return sorted((p.rid_a, p.rid_b, p.similarity) for p in result.pairs)


def _answer(matches) -> list[tuple]:
    """One served answer as comparable ``(rid, similarity)`` tuples."""
    return [(m.rid_a, round(m.similarity, 12)) for m in matches]


def _saving(new, base) -> float:
    """``1 - new / base``, rounded for the report; 0 when base is 0."""
    return round(1.0 - new / base, 4) if base else 0.0


def _run_case(dataset, predicate, algorithm, index_backend):
    result = _join_once(dataset, predicate, algorithm, index_backend=index_backend)
    return {
        "work": result.counters.total_work(),
        "pairs": len(result.pairs),
        "seconds": round(result.elapsed_seconds, 4),
    }


def _run_bitmap_case(dataset, predicate, algorithm):
    """One unfiltered + one filtered run; the filter must not change matches."""
    plain = _join_once(dataset, predicate, algorithm)
    filtered = _join_once(dataset, predicate, algorithm, bitmap_filter=True)
    return {
        "work": filtered.counters.total_work(),
        "pairs": len(filtered.pairs),
        "pairs_match": _tuples(plain) == _tuples(filtered),
        "pairs_verified_unfiltered": plain.counters.pairs_verified,
        "pairs_verified": filtered.counters.pairs_verified,
        "bitmap_checks": filtered.counters.bitmap_checks,
        "bitmap_rejects": filtered.counters.bitmap_rejects,
        "reduction": _saving(
            filtered.counters.pairs_verified, plain.counters.pairs_verified
        ),
        "seconds": round(filtered.elapsed_seconds, 4),
    }


def _run_merge_case(dataset, predicate, algorithm):
    """One heap + one accumulator run; the backends must agree on matches."""
    heap = _join_once(dataset, predicate, algorithm, merge_backend="heap")
    acc = _join_once(dataset, predicate, algorithm, merge_backend="accumulator")
    heap_work = heap.counters.total_work()
    acc_work = acc.counters.total_work()
    return {
        "work": acc_work,
        "pairs": len(acc.pairs),
        "pairs_match": _tuples(heap) == _tuples(acc),
        "heap_work": heap_work,
        "heap_seconds": round(heap.elapsed_seconds, 4),
        "accum_scans": acc.counters.accum_scans,
        "accum_writes": acc.counters.accum_writes,
        "gallop_steps": acc.counters.gallop_steps,
        "work_improvement": _saving(acc_work, heap_work),
        "wallclock_improvement": _saving(acc.elapsed_seconds, heap.elapsed_seconds),
        "seconds": round(acc.elapsed_seconds, 4),
    }


def _run_prefix_case(dataset, predicate):
    """MergeOpt vs basic prefix vs the full stack; matches must agree."""
    mergeopt = _join_once(dataset, predicate, "probe-count-sort")
    prefix = _join_once(dataset, predicate, "prefix-filter")
    stack = _join_once(dataset, predicate, "positional-filter")
    return {
        "work": stack.counters.total_work(),
        "pairs": len(stack.pairs),
        "pairs_match": _tuples(mergeopt) == _tuples(prefix) == _tuples(stack),
        "candidates_prefix": prefix.counters.candidates_checked,
        "candidates_stack": stack.counters.candidates_checked,
        "reduction": _saving(
            stack.counters.candidates_checked, prefix.counters.candidates_checked
        ),
        "rejections_position": stack.counters.candidate_rejections_position,
        "rejections_suffix": stack.counters.candidate_rejections_suffix,
        "suffix_recursions": stack.counters.extra.get("suffix_recursions", 0),
        "prefix_work": prefix.counters.total_work(),
        "mergeopt_work": mergeopt.counters.total_work(),
        "prefix_seconds": round(prefix.elapsed_seconds, 4),
        "mergeopt_seconds": round(mergeopt.elapsed_seconds, 4),
        "seconds": round(stack.elapsed_seconds, 4),
    }


def _snapshot_work(counters: dict) -> int:
    return sum(counters.get(name, 0) for name in _WORK_COUNTERS)


def _percentile_ms(latencies: list[float], p: float) -> float:
    """Nearest-rank percentile of a latency sample, in milliseconds."""
    ordered = sorted(latencies)
    rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * len(ordered))) - 1))
    return round(ordered[rank] * 1000.0, 3)


def _stream(server, queries) -> tuple[list[float], list[list[tuple]]]:
    """Send each query through ``server``; return (latencies, answers)."""
    latencies, answers = [], []
    for query in queries:
        started = time.perf_counter()
        result = server.query(query, timeout=60.0)
        latencies.append(time.perf_counter() - started)
        assert not getattr(result, "partial", False), "benchmark run lost a shard"
        answers.append(_answer(result))
    return latencies, answers


def _run_serve_case(dataset, predicate, shards):
    """The same query stream through all three serving tiers.

    Single-index, in-process sharded, and remote-sharded (every shard a
    :class:`ShardServer` node on loopback) must answer identically; the
    remote latencies are recorded alongside the in-process ones so the
    per-query cost of the wire hop is visible in the baseline.
    """
    records = list(dataset.records)
    queries = records[:_QUERIES]

    def sharded_server(**kwargs):
        server = ShardedIndexServer(
            predicate, shards=shards, workers=2, shard_workers=2, **kwargs
        )
        for record in records:
            server.add(record)
        return server.start()

    index = SimilarityIndex(predicate)
    for record in records:
        index.add(record)
    single = IndexServer(index, workers=2).start()
    sharded = sharded_server()
    nodes = [ShardServer(SimilarityIndex(predicate)).start() for _ in range(shards)]
    remote = sharded_server(
        shard_endpoints=[f"127.0.0.1:{node.port}" for node in nodes]
    )

    try:
        single_before = _snapshot_work(index.counters_snapshot())
        single_latencies, single_answers = _stream(single, queries)
        single_work = _snapshot_work(index.counters_snapshot()) - single_before

        sharded_before = _snapshot_work(sharded.counters_snapshot())
        run_started = time.perf_counter()
        sharded_latencies, sharded_answers = _stream(sharded, queries)
        seconds = time.perf_counter() - run_started
        sharded_work = _snapshot_work(sharded.counters_snapshot()) - sharded_before

        remote_latencies, remote_answers = _stream(remote, queries)
    finally:
        for server in (single, sharded, remote):
            server.drain(timeout=30.0)
        for node in nodes:
            node.stop()

    return {
        "work": sharded_work,
        "single_work": single_work,
        "pairs": sum(len(answer) for answer in sharded_answers),
        "pairs_match": sharded_answers == single_answers,
        "remote_pairs_match": remote_answers == single_answers,
        "queries": len(queries),
        "single_p50_ms": _percentile_ms(single_latencies, 50.0),
        "single_p99_ms": _percentile_ms(single_latencies, 99.0),
        "sharded_p50_ms": _percentile_ms(sharded_latencies, 50.0),
        "sharded_p99_ms": _percentile_ms(sharded_latencies, 99.0),
        "remote_p50_ms": _percentile_ms(remote_latencies, 50.0),
        "remote_p99_ms": _percentile_ms(remote_latencies, 99.0),
        "seconds": round(seconds, 4),
    }


def _run_mmap_case(dataset, predicate, algorithm):
    """The same join on all three index backends + a mapped serving pass.

    The raw and varbyte mapped runs must both be bit-identical to the
    in-memory run (pairs *and* similarities). The serving pass measures
    open time (best of 3) and the deterministic residency counter —
    directory bytes plus postings the query stream touched — off a
    ``save(format='mmap')`` file.
    """
    memory = _join_once(dataset, predicate, algorithm)
    mapped = _join_once(dataset, predicate, algorithm, index_backend="mmap")
    disk = _join_once(dataset, predicate, algorithm, index_backend="mmap-varbyte")

    service = SimilarityIndex(predicate)
    for record in dataset.records:
        service.add(record)
    with tempfile.TemporaryDirectory(prefix="repro-mmap-gate-") as tmp:
        path = os.path.join(tmp, "serve.rpmx")
        service.save(path, format="mmap")
        file_bytes = os.path.getsize(path)
        open_ms = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            opened = SimilarityIndex.load(path, predicate, mmap=True)
            open_ms = min(open_ms, (time.perf_counter() - started) * 1000.0)
            opened.close()
        opened = SimilarityIndex.load(path, predicate, mmap=True)
        try:
            queries = list(dataset.records[:_QUERIES])
            serve_match = [_answer(service.query(q)) for q in queries] == [
                _answer(opened.query(q)) for q in queries
            ]
            directory_bytes = opened._index.directory_bytes
            resident_bytes = opened._index.resident_bytes()
        finally:
            opened.close()

    return {
        "work": mapped.counters.total_work(),
        "pairs": len(mapped.pairs),
        "pairs_match": _tuples(mapped) == _tuples(memory) == _tuples(disk),
        "serve_match": serve_match,
        "memory_work": memory.counters.total_work(),
        "disk_work": disk.counters.total_work(),
        "open_ms": round(open_ms, 3),
        "file_bytes": file_bytes,
        "directory_bytes": directory_bytes,
        "resident_bytes": resident_bytes,
        "memory_seconds": round(memory.elapsed_seconds, 4),
        "seconds": round(mapped.elapsed_seconds, 4),
    }


def _run_approx_case(dataset, predicate, target_recall):
    """Exact ground truth vs the seeded approximate join.

    Recall is measured against the positional-filter pair set (exact by
    construction), soundness by re-verifying every emitted pair with a
    freshly bound predicate — independent of the join's own verifier —
    and the work ratio against the exact baseline's ``total_work()``.
    Probe-Cluster work is recorded alongside for context.
    """
    exact = _join_once(dataset, predicate, "positional-filter")
    cluster = _join_once(dataset, predicate, "probe-cluster")
    approx = similarity_join(
        dataset,
        predicate,
        mode="approx",
        target_recall=target_recall,
        seed=BENCHMARK_SEED,
    )
    truth = {(p.rid_a, p.rid_b) for p in exact.pairs}
    emitted = {(p.rid_a, p.rid_b) for p in approx.pairs}
    recall = len(emitted & truth) / len(truth) if truth else 1.0
    bound = predicate.bind(dataset)
    false_positives = sum(
        1
        for a, b in emitted
        if (a, b) not in truth or not bound.verify(a, b)[0]
    )
    exact_work = exact.counters.total_work()
    approx_work = approx.counters.total_work()
    return {
        "work": approx_work,
        "pairs": len(approx.pairs),
        "exact_pairs": len(truth),
        "recall": round(recall, 4),
        "recall_estimate": round(approx.extra.get("recall_estimate", 0.0), 4),
        "false_positives": false_positives,
        "exact_work": exact_work,
        "cluster_work": cluster.counters.total_work(),
        "work_ratio": round(approx_work / exact_work, 4) if exact_work else 0.0,
        "repetitions": approx.extra.get("approx_repetitions"),
        "jaccard_floor": approx.extra.get("approx_jaccard_floor"),
        "exact_seconds": round(exact.elapsed_seconds, 4),
        "seconds": round(approx.elapsed_seconds, 4),
    }


# ----------------------------------------------------------------------
# The suite table
# ----------------------------------------------------------------------


class Case(NamedTuple):
    """One pinned case; ``measure(dataset, predicate, *args)`` runs it.

    ``name`` joins baseline and fresh rows — never rename casually.
    """

    name: str
    dataset: str
    predicate: type
    threshold: float
    args: tuple = ()
    #: Row field -> pinned minimum / maximum for this case.
    floors: dict = {}
    caps: dict = {}
    #: Part of the ``quick`` profile CI re-runs on every push.
    quick: bool = False


class Bound(NamedTuple):
    """A ceiling relative to the committed row's value of a field.

    The limit is ``min(ceiling, max(committed * factor, minimum))``, or
    ``ceiling`` alone when the committed row lacks the field.
    """

    factor: float
    minimum: float = 0.0
    ceiling: float = float("inf")

    def limit(self, committed) -> float:
        if committed is None:
            return self.ceiling
        return min(self.ceiling, max(committed * self.factor, self.minimum))


class Suite(NamedTuple):
    name: str
    #: Committed baseline at the repo root, and its ``kind`` string.
    file: str
    kind: str
    cases: tuple
    measure: Callable[..., dict]
    #: One-line summary of a row for progress output and ``--report``.
    note: Callable[[dict], str]
    #: Flag -> what ``False`` means; each must be present and true.
    flags: dict = {}
    #: Counter -> what a non-zero count means; each must be present and 0.
    zeros: dict = {}
    #: Field -> :class:`Bound` against the committed row.
    bounds: dict = {}
    #: ``(field, other)``: ``row[field]`` must stay below ``row[other]``.
    below: tuple = ()


_SUITES = (
    Suite(
        "serial", "BENCH_serial.json", "serial-perf-baseline",
        (
            Case("heap-merge/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count-optmerge", None), quick=True),
            Case("heap-merge/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, ("probe-count-optmerge", None)),
            Case("two-pass/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count", None), quick=True),
            Case("online/address-3grams/overlap-30", "address-3grams", OverlapPredicate, 30, ("probe-count-online", None)),
            Case("cluster/citation-words/overlap-15", "citation-words", OverlapPredicate, 15, ("probe-cluster", None)),
            Case("prefix-filter/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("prefix-filter", None), quick=True),
            Case("compressed/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count-optmerge", "mmap-varbyte"), quick=True),
        ),
        _run_case,
        lambda row: f"pairs={row.get('pairs', 0)}",
    ),
    Suite(
        "bitmap", "BENCH_bitmap.json", "bitmap-perf-baseline",
        (
            Case("bitmap/prefix-filter/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("prefix-filter",), floors={"reduction": 0.25}, quick=True),
            Case("bitmap/prefix-filter/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, ("prefix-filter",), floors={"reduction": 0.25}),
            Case("bitmap/two-pass/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count",), quick=True),
            Case("bitmap/cluster/citation-words/overlap-15", "citation-words", OverlapPredicate, 15, ("probe-cluster",)),
            Case("bitmap/positional-filter/address-3grams/jaccard-0.6", "address-3grams", JaccardPredicate, 0.6, ("positional-filter",), floors={"reduction": 0.9}, quick=True),
        ),
        _run_bitmap_case,
        lambda row: f"reduction={row.get('reduction', 0.0):.1%}",
        flags={
            "pairs_match": "the filtered join emitted different matches than"
            " the unfiltered join (the bitmap filter is UNSOUND)",
        },
    ),
    Suite(
        "merge", "BENCH_merge.json", "merge-perf-baseline",
        (
            Case("merge/two-pass/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count",), floors={"work_improvement": 0.40, "wallclock_improvement": 0.25}, quick=True),
            Case("merge/optmerge/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count-optmerge",), floors={"work_improvement": 0.25}, quick=True),
            Case("merge/optmerge/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, ("probe-count-optmerge",), floors={"work_improvement": 0.30, "wallclock_improvement": 0.25}),
            Case("merge/online-sort/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count-sort",), floors={"work_improvement": 0.25}),
            Case("merge/online/address-3grams/overlap-30", "address-3grams", OverlapPredicate, 30, ("probe-count-online",), quick=True),
        ),
        _run_merge_case,
        lambda row: (
            f"work {row.get('work_improvement', 0.0):+.1%}"
            f" wall {row.get('wallclock_improvement', 0.0):+.1%}"
        ),
        flags={
            "pairs_match": "the accumulator backend emitted different matches"
            " than the heap backend (the merge backends are NOT equivalent)",
        },
    ),
    Suite(
        "prefix", "BENCH_prefix.json", "prefix-stack-perf-baseline",
        (
            Case("prefix-stack/citation-words/jaccard-0.7", "citation-words", JaccardPredicate, 0.7, floors={"reduction": 0.50}, quick=True),
            Case("prefix-stack/citation-words/jaccard-0.8", "citation-words", JaccardPredicate, 0.8, floors={"reduction": 0.50}),
            Case("prefix-stack/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, floors={"reduction": 0.50}, quick=True),
            Case("prefix-stack/address-3grams/jaccard-0.7", "address-3grams", JaccardPredicate, 0.7, floors={"reduction": 0.50}),
        ),
        _run_prefix_case,
        lambda row: (
            f"candidates {row.get('candidates_prefix', 0)}"
            f" -> {row.get('candidates_stack', 0)}"
            f" ({row.get('reduction', 0.0):.1%})"
        ),
        flags={
            "pairs_match": "the filter stack emitted different matches than"
            " MergeOpt / the basic prefix filter (a filter layer is UNSOUND)",
        },
    ),
    Suite(
        "mmap", "BENCH_mmap.json", "mmap-perf-baseline",
        (
            Case("mmap/optmerge/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count-optmerge",), quick=True),
            Case("mmap/two-pass/citation-words/overlap-12", "citation-words", OverlapPredicate, 12, ("probe-count",), quick=True),
            Case("mmap/optmerge/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, ("probe-count-optmerge",)),
        ),
        _run_mmap_case,
        lambda row: (
            f"open {row.get('open_ms', 0.0)}ms"
            f" resident {row.get('resident_bytes', 0) / 1e6:.2f}MB"
            f" / {row.get('file_bytes', 0) / 1e6:.2f}MB file"
        ),
        flags={
            "pairs_match": "a mapped join (raw or varbyte) emitted different"
            " matches than the in-memory index (the mapped columns are NOT a"
            " drop-in)",
            "serve_match": "the mapped service answered differently than the"
            " live index (serving off the mapped file is NOT exact)",
        },
        bounds={
            # Open is O(directory), so an absolute ceiling is noise-proof.
            "open_ms": Bound(3.0, minimum=25.0, ceiling=_MMAP_OPEN_CEILING_MS),
            # Residency is a deterministic counter (directory + touched
            # postings), so it gates like work: no silent growth past 10%.
            "resident_bytes": Bound(1 + TOLERANCE),
        },
        # Zero-copy serving must never materialize the whole index.
        below=(("resident_bytes", "file_bytes"),),
    ),
    Suite(
        "serve", "BENCH_serve.json", "serve-perf-baseline",
        (
            Case("serve/citation-words/overlap-12/shards-4", "citation-words", OverlapPredicate, 12, (4,), quick=True),
            Case("serve/citation-words/overlap-12/shards-2", "citation-words", OverlapPredicate, 12, (2,)),
            Case("serve/citation-3grams/jaccard-0.7/shards-4", "citation-3grams", JaccardPredicate, 0.7, (4,)),
        ),
        _run_serve_case,
        lambda row: (
            f"p50 {row.get('sharded_p50_ms', 0.0)}ms"
            f" (single {row.get('single_p50_ms', 0.0)}ms,"
            f" remote {row.get('remote_p50_ms', 0.0)}ms)"
            f" p99 {row.get('sharded_p99_ms', 0.0)}ms"
        ),
        flags={
            "pairs_match": "the sharded server answered differently than the"
            " single-index server (scatter-gather is NOT exact)",
            "remote_pairs_match": "the remote-sharded server answered"
            " differently than the single-index server (the wire transport"
            " is NOT exact)",
        },
    ),
    Suite(
        "approx", "BENCH_approx.json", "approx-perf-baseline",
        (
            Case("approx/citation-words/jaccard-0.7", "citation-words", JaccardPredicate, 0.7, (0.9,), floors={"recall": 0.9}, caps={"work_ratio": 0.5}, quick=True),
            Case("approx/citation-3grams/jaccard-0.7", "citation-3grams", JaccardPredicate, 0.7, (0.9,), floors={"recall": 0.9}, caps={"work_ratio": 0.5}, quick=True),
        ),
        _run_approx_case,
        lambda row: (
            f"recall={row.get('recall', 0.0):.4f}"
            f" fp={row.get('false_positives', 0)}"
            f" ratio={row.get('work_ratio', 0.0):.3f} of exact"
        ),
        zeros={
            "false_positives": "emitted pair(s) failed independent exact"
            " re-verification (the approximate mode must never emit a false"
            " positive)",
        },
    ),
)

#: Every gate suite, by ``--suite`` name.
SUITES = {suite.name: suite for suite in _SUITES}


# ----------------------------------------------------------------------
# Run, check, report
# ----------------------------------------------------------------------


def run_profile(suite: Suite, profile: str) -> dict:
    n = _PROFILES[profile]
    cases = {}
    started = time.perf_counter()
    print(f"{suite.name} matrix [{profile}] n={n}:")
    for case in suite.cases:
        if profile == "quick" and not case.quick:
            continue
        dataset = dataset_by_name(case.dataset, n)
        row = suite.measure(dataset, case.predicate(case.threshold), *case.args)
        cases[case.name] = row
        flags = "".join(f" {flag}={row[flag]}" for flag in suite.flags)
        print(
            f"  {case.name:<48} work={row['work']:<12}"
            f" {suite.note(row)}{flags} {row['seconds']:.3f}s"
        )
    return {
        "n": n,
        "cases": cases,
        "total_seconds": round(time.perf_counter() - started, 3),
    }


def _report_shell(suite: Suite, profiles: dict) -> dict:
    return {
        "schema": 1,
        "kind": suite.kind,
        "seed": BENCHMARK_SEED,
        "tolerance": TOLERANCE,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "profiles": profiles,
    }


def check(suite: Suite, fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Return gate failures; empty means the gate passes."""
    base_profile = baseline.get("profiles", {}).get(profile)
    if base_profile is None:
        return [f"baseline has no {profile!r} profile; re-generate it"]
    if base_profile.get("n") != fresh["n"]:
        return [
            f"baseline {profile} n={base_profile.get('n')} != run n={fresh['n']};"
            " re-generate the baseline"
        ]
    base_cases = base_profile.get("cases", {})
    failures = [
        f"{name}: in the committed {profile} profile but not run"
        " (a removed or renamed case must be re-baselined, not dropped)"
        for name in sorted(set(base_cases) - set(fresh["cases"]))
    ]
    declared = {case.name: case for case in suite.cases}
    for name, row in fresh["cases"].items():
        base = base_cases.get(name)
        if base is None:
            print(f"  NEW CASE (work not gated): {name}")
        else:
            if row["pairs"] != base["pairs"]:
                failures.append(
                    f"{name}: pair count changed {base['pairs']} -> {row['pairs']}"
                    " (correctness, not perf — investigate before re-baselining)"
                )
            allowed = base["work"] * (1 + TOLERANCE)
            if row["work"] > allowed:
                ratio = row["work"] / base["work"]
                failures.append(
                    f"{name}: work regressed {base['work']} -> {row['work']}"
                    f" ({ratio:.2%} of baseline, tolerance {1 + TOLERANCE:.0%})"
                )
            elif row["work"] != base["work"]:
                print(
                    f"  work drift within tolerance: {name}"
                    f" {base['work']} -> {row['work']}"
                )
        for flag, meaning in suite.flags.items():
            if row.get(flag) is not True:
                failures.append(f"{name}: {flag}={row.get(flag, 'missing')}: {meaning}")
        for counter, meaning in suite.zeros.items():
            if row.get(counter) != 0:
                failures.append(
                    f"{name}: {counter}={row.get(counter, 'missing')}: {meaning}"
                )
        case = declared.get(name)
        for field, floor in (case.floors if case else {}).items():
            if field not in row or row[field] < floor:
                failures.append(
                    f"{name}: {field}={row.get(field, 'missing')}"
                    f" fell below the pinned floor {floor}"
                )
        for field, cap in (case.caps if case else {}).items():
            if field not in row or row[field] > cap:
                failures.append(
                    f"{name}: {field}={row.get(field, 'missing')}"
                    f" exceeded the pinned cap {cap}"
                )
        for field, bound in suite.bounds.items():
            committed = (base or {}).get(field)
            limit = bound.limit(committed)
            if field not in row or row[field] > limit:
                failures.append(
                    f"{name}: {field}={row.get(field, 'missing')} exceeded"
                    f" {limit:g} (committed {committed})"
                )
        for field, other in suite.below:
            if not row.get(field, float("inf")) < row.get(other, float("-inf")):
                failures.append(
                    f"{name}: {field}={row.get(field, 'missing')} is not below"
                    f" {other}={row.get(other, 'missing')}"
                )
    return failures


def _load_json(path: str) -> dict | None:
    """Read a BENCH file, or skip-and-warn when absent or unreadable.

    The report is a trajectory view, not a gate: a clone that only has
    some baselines (or a truncated file from an interrupted rewrite)
    still gets a table for everything that parses.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(
            f"warning: {os.path.basename(path)} unreadable ({exc}) — skipping",
            file=sys.stderr,
        )
        return None


def report_trajectory() -> int:
    """Print one compact table over every committed BENCH file."""
    entries: list[tuple[str, str, dict, str]] = []
    for suite in SUITES.values():
        data = _load_json(os.path.join(REPO_ROOT, suite.file)) or {}
        for profile_name, profile in sorted(data.get("profiles", {}).items()):
            for case, row in sorted(profile.get("cases", {}).items()):
                entries.append(
                    (suite.name, f"{case} [{profile_name}]", row, suite.note(row))
                )
    # BENCH_parallel.json keeps bench_parallel.py's own schema: one serial
    # run plus one row per worker count.
    parallel = _load_json(PARALLEL_BASELINE)
    if parallel is not None:
        case = f"{parallel.get('algorithm')}/{parallel.get('dataset')}"
        entries.append(("parallel", f"{case} [serial]", parallel.get("serial", {}), ""))
        entries += [
            (
                "parallel",
                f"{case} [workers={row.get('workers')}]",
                row,
                f"speedup={row.get('speedup', 0.0):.2f}x",
            )
            for row in parallel.get("parallel", [])
        ]

    if not entries:
        print("no BENCH files found at the repo root", file=sys.stderr)
        return 1
    rows = [("bench", "case", "work", "wall", "")] + [
        (bench, case, str(row.get("work", "-")), f"{row.get('seconds', 0.0):.3f}s", note)
        for bench, case, row, note in entries
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for bench, case, work, wall, note in rows:
        line = (
            f"{bench:<{widths[0]}}  {case:<{widths[1]}}"
            f"  {work:>{widths[2]}}  {wall:>{widths[3]}}"
        )
        print(f"{line}  {note}" if note else line)
    return 0


def _write_json(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", action="append", choices=list(SUITES),
        help="suite to run; repeatable (default with --check: every suite)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="quick profile only (n=500, CI)"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed baselines instead of rewriting them",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print a compact trajectory table across every committed BENCH"
        " file and exit; missing or unreadable files are skipped",
    )
    parser.add_argument(
        "--output", default=REPO_ROOT,
        help="directory for the reports written: BENCH_*.fresh.json with"
        " --check, else the rewritten baselines (default: the repo root)",
    )
    args = parser.parse_args(argv)
    if args.report:
        return report_trajectory()
    if not args.check and not args.suite:
        parser.error("rewriting baselines needs an explicit --suite")
    suites = [SUITES[name] for name in dict.fromkeys(args.suite or SUITES)]

    if not args.check:
        # Baseline (re)generation: quick-only if asked, else both profiles.
        names = ["quick"] if args.quick else ["quick", "full"]
        for suite in suites:
            output = os.path.join(args.output, suite.file)
            profiles = {name: run_profile(suite, name) for name in names}
            _write_json(output, _report_shell(suite, profiles))
            print(f"baseline written to {output}")
        return 0

    profile = "quick" if args.quick else "full"
    failures = []
    for suite in suites:
        baseline_path = os.path.join(REPO_ROOT, suite.file)
        if not os.path.exists(baseline_path):
            failures.append(f"{suite.name}: no committed baseline at {baseline_path}")
            continue
        try:
            fresh = run_profile(suite, profile)
        except Exception as exc:  # one crashed suite must not hide the others
            traceback.print_exc()
            failures.append(f"{suite.name}: run crashed: {exc!r}")
            continue
        fresh_name = suite.file.replace(".json", ".fresh.json")
        _write_json(
            os.path.join(args.output, fresh_name),
            _report_shell(suite, {profile: fresh}),
        )
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures += [
            f"{suite.name}: {line}" for line in check(suite, fresh, baseline, profile)
        ]
    if failures:
        print(f"PERF GATE FAILED ({len(failures)} failure(s)):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"perf gate passed: {', '.join(suite.name for suite in suites)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
