"""Perf-regression gate over machine-independent ``work`` counters.

Runs a pinned matrix of (dataset, predicate, algorithm) cases covering
every hot path the micro-optimization work touches — the MergeOpt heap
(``heap_merge``), the two-pass probe, the prefix-filter candidate scan,
and the compressed-postings decode loop (``index_backend=
'mmap-varbyte'``) — and records each case's ``work`` counter (heap pops
+ list touches + searches + generated and verified pairs) plus
wall-clock into ``BENCH_serial.json`` at the repo root.

The baseline file holds two profiles: ``quick`` (n=500, the subset CI
re-runs on every push) and ``full`` (n=2000, the whole matrix). With
``--check`` the gate re-runs one profile and fails on any ``work``
regression above 10% versus the committed numbers. Only counters gate:
they are a pure function of (dataset, predicate, algorithm) and
therefore identical on every machine, so the committed baseline is
valid on any CI runner. Wall-clock is recorded for trend-watching but
never fails the gate.

With ``--bitmap`` the gate instead covers the bitmap-signature
candidate filter (:mod:`repro.filters`): every case runs each join
twice — unfiltered and with ``bitmap_filter=True`` — asserts the two
pair sets are identical (the filter's soundness contract), and records
the filtered run's ``work`` plus the verification-count reduction into
``BENCH_bitmap.json``. Cases with a pinned ``min_reduction`` addition-
ally fail the gate when the filter stops pruning at least that share
of verifications (the headline win this optimization exists for).

With ``--merge`` the gate covers the merge-backend knob
(:mod:`repro.core.accumulator`): every case runs the join once per
backend — ``heap`` and ``accumulator`` — asserts the two pair sets are
identical (the knob's correctness contract), and records the
accumulator run's ``work`` plus both improvement ratios into
``BENCH_merge.json``. Cases carry pinned floors on the work-proxy and
(where stable) wall-clock improvement — the headline win this backend
exists for must not silently erode.

With ``--prefix`` the gate covers the prefix-filter stack
(:mod:`repro.core.positional_filter`): every case runs the same join
three ways — MergeOpt (``probe-count-sort``), the basic prefix filter,
and the full PPJoin+ positional/suffix stack — asserts all three pair
sets are identical (the stack is pure pruning), and records the
stack's ``work`` plus the candidate-count reduction over the basic
prefix filter into ``BENCH_prefix.json``. Every case carries a pinned
floor on ``1 - candidates(stack) / candidates(prefix)`` — the extra
filter layers must keep pruning at least that share of candidates.
Cases are Jaccard workloads by design: for a constant overlap
threshold the prefix bound is already tight (``upper >= overlap + 1 +
(t - 1) >= t``), so the position filter provably never fires there.

With ``--serve`` the gate covers the serving tier
(:mod:`repro.serving`): every case runs the same query stream through
a single-index :class:`IndexServer`, an in-process
:class:`ShardedIndexServer`, and a remote-sharded front end whose
shards are all :class:`ShardServer` nodes on loopback, asserts all
three answer streams are identical (the tier's exactness contract,
now spanning the wire transport), and records the sharded run's
merge-work counters plus client-observed p50/p99 for every tier into
``BENCH_serve.json``. Work counters and answer identity gate hard;
the latencies — including the local-vs-remote comparison — are
machine-dependent and recorded for trend-watching only.

With ``--mmap`` the gate covers the memory-mapped columnar index
(:mod:`repro.storage.mmap_index`): every case runs the same join on
all three substrates — the in-memory index, the zero-copy mapped
columns (``index_backend='mmap'``), and the varbyte skip-block columns
(``index_backend='mmap-varbyte'``, reported as ``disk_work``) —
asserts both mapped runs' matches are *bit-identical* to the in-memory
run (pairs and similarities; the substrate contract), then measures
what the format exists for: ``SimilarityIndex.load(mmap=True)`` open
time must stay under an absolute ceiling (open cost is O(directory), so
the bound is noise-proof on any runner) and the bytes resident after a
pinned query stream — directory plus touched postings, a deterministic
counter, not an RSS sample — gates against ``BENCH_mmap.json`` like
any other work counter.

With ``--approx`` the gate covers the approximate join mode
(:mod:`repro.approx`): every case runs the exact positional-filter
join (ground truth), the exact Probe-Cluster join (the default the
approximate mode competes against), and the seeded LSH approximate
join at ``target_recall=0.9``, then gates three things at once —
measured recall against the exact pair set must stay at or above the
target, every emitted pair must *independently* re-verify exactly
(zero false positives, the mode's soundness contract), and the
approximate run's ``work`` must stay at or below half the exact
positional-filter baseline's (the speedup this mode exists for) —
into ``BENCH_approx.json``. The seed is :data:`BENCHMARK_SEED`, so
recall and work are deterministic and the committed numbers hold on
any runner.

With ``--report`` the gate prints a compact trajectory table across
every committed BENCH file (serial / parallel / bitmap / merge /
prefix / mmap / serve / approx) and exits; nothing is run. Missing or
unreadable BENCH files are skipped with a warning — a fresh clone that
has only some baselines still gets a table for what exists.

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py                 # rewrite baseline (both profiles)
    PYTHONPATH=src python benchmarks/perf_gate.py --check         # gate full profile
    PYTHONPATH=src python benchmarks/perf_gate.py --quick --check # gate quick profile (CI)
    PYTHONPATH=src python benchmarks/perf_gate.py --bitmap          # rewrite bitmap baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --bitmap --check  # gate bitmap paths
    PYTHONPATH=src python benchmarks/perf_gate.py --merge           # rewrite merge baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --merge --check   # gate merge backends
    PYTHONPATH=src python benchmarks/perf_gate.py --prefix          # rewrite prefix-stack baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --prefix --check  # gate the filter stack
    PYTHONPATH=src python benchmarks/perf_gate.py --serve           # rewrite serve baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --serve --check   # gate sharded serving
    PYTHONPATH=src python benchmarks/perf_gate.py --mmap            # rewrite mmap baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --mmap --check    # gate the mapped index
    PYTHONPATH=src python benchmarks/perf_gate.py --approx          # rewrite approx baseline
    PYTHONPATH=src python benchmarks/perf_gate.py --approx --check  # gate recall/soundness/speedup
    PYTHONPATH=src python benchmarks/perf_gate.py --report          # cross-BENCH trajectory table
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import BENCHMARK_SEED, dataset_by_name  # noqa: E402

from repro import JaccardPredicate, OverlapPredicate, similarity_join  # noqa: E402
from repro.core.service import SimilarityIndex  # noqa: E402
from repro.serving import IndexServer, ShardedIndexServer  # noqa: E402
from repro.serving.transport import ShardServer  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_serial.json")
BITMAP_BASELINE = os.path.join(REPO_ROOT, "BENCH_bitmap.json")
MERGE_BASELINE = os.path.join(REPO_ROOT, "BENCH_merge.json")
PARALLEL_BASELINE = os.path.join(REPO_ROOT, "BENCH_parallel.json")
PREFIX_BASELINE = os.path.join(REPO_ROOT, "BENCH_prefix.json")
SERVE_BASELINE = os.path.join(REPO_ROOT, "BENCH_serve.json")
MMAP_BASELINE = os.path.join(REPO_ROOT, "BENCH_mmap.json")
APPROX_BASELINE = os.path.join(REPO_ROOT, "BENCH_approx.json")

#: Allowed relative growth of a case's ``work`` counter before the gate
#: fails. Counters are deterministic, so any growth is a real algorithmic
#: regression; 10% of headroom absorbs intentional small trade-offs that
#: a PR should call out explicitly by re-baselining.
TOLERANCE = 0.10

_PREDICATES = {
    "overlap": OverlapPredicate,
    "jaccard": JaccardPredicate,
}

#: (case-name, dataset, predicate, threshold, algorithm, index_backend).
#: Names are the join keys between baseline and fresh runs — never
#: rename casually.
_CASES = [
    ("heap-merge/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count-optmerge", None),
    ("heap-merge/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, "probe-count-optmerge", None),
    ("two-pass/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count", None),
    ("online/address-3grams/overlap-30", "address-3grams", "overlap", 30, "probe-count-online", None),
    ("cluster/citation-words/overlap-15", "citation-words", "overlap", 15, "probe-cluster", None),
    ("prefix-filter/citation-words/overlap-12", "citation-words", "overlap", 12, "prefix-filter", None),
    ("compressed/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count-optmerge", "mmap-varbyte"),
]

#: Subset exercised under ``--quick`` (CI): one case per optimized module.
_QUICK_CASES = {
    "heap-merge/citation-words/overlap-12",
    "two-pass/citation-words/overlap-12",
    "prefix-filter/citation-words/overlap-12",
    "compressed/citation-words/overlap-12",
}

#: Bitmap-filter gate matrix: (case-name, dataset, predicate, threshold,
#: algorithm, min_reduction). ``min_reduction`` is the pinned floor on
#: ``1 - pairs_verified(filtered) / pairs_verified(unfiltered)`` — the
#: paths the filter exists for must keep pruning; ``None`` means the
#: case only gates work/pairs (merge-driven candidates already carry
#: their weights, so the adaptive controller rightly switches the
#: filter off there and no reduction is expected).
_BITMAP_CASES = [
    ("bitmap/prefix-filter/citation-words/overlap-12", "citation-words", "overlap", 12, "prefix-filter", 0.25),
    ("bitmap/prefix-filter/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, "prefix-filter", 0.25),
    ("bitmap/two-pass/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count", None),
    ("bitmap/cluster/citation-words/overlap-15", "citation-words", "overlap", 15, "probe-cluster", None),
]

#: Bitmap cases exercised under ``--quick`` (CI).
_BITMAP_QUICK_CASES = {
    "bitmap/prefix-filter/citation-words/overlap-12",
    "bitmap/two-pass/citation-words/overlap-12",
}

#: Merge-backend gate matrix: (case-name, dataset, predicate, threshold,
#: algorithm, min_work_improvement, min_wall_improvement). Improvements
#: are ``1 - accumulator / heap``; the work floor is machine-independent
#: (pure counters), the wall floor comes from paired same-process runs
#: and is pinned only where the margin is wide enough to be noise-proof.
_MERGE_CASES = [
    ("merge/two-pass/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count", 0.40, 0.25),
    ("merge/optmerge/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count-optmerge", 0.25, None),
    ("merge/optmerge/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, "probe-count-optmerge", 0.30, 0.25),
    ("merge/online-sort/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count-sort", 0.25, None),
]

#: Merge cases exercised under ``--quick`` (CI).
_MERGE_QUICK_CASES = {
    "merge/two-pass/citation-words/overlap-12",
    "merge/optmerge/citation-words/overlap-12",
}

#: Prefix-stack gate matrix: (case-name, dataset, predicate, threshold,
#: min_candidate_reduction). Each case runs probe-count-sort (MergeOpt),
#: prefix-filter, and positional-filter; all three must emit identical
#: pairs, and the stack must prune at least ``min_candidate_reduction``
#: of the basic prefix filter's candidates. All cases are Jaccard: the
#: position filter needs a size-dependent threshold to fire at all.
_PREFIX_CASES = [
    ("prefix-stack/citation-words/jaccard-0.7", "citation-words", "jaccard", 0.7, 0.50),
    ("prefix-stack/citation-words/jaccard-0.8", "citation-words", "jaccard", 0.8, 0.50),
    ("prefix-stack/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, 0.50),
    ("prefix-stack/address-3grams/jaccard-0.7", "address-3grams", "jaccard", 0.7, 0.50),
]

#: Prefix-stack cases exercised under ``--quick`` (CI).
_PREFIX_QUICK_CASES = {
    "prefix-stack/citation-words/jaccard-0.7",
    "prefix-stack/citation-3grams/jaccard-0.7",
}

#: Serving-tier gate matrix: (case-name, dataset, predicate, threshold,
#: shards). Each case streams the same queries through a single-index
#: IndexServer and a ShardedIndexServer and must get identical answers;
#: the sharded run's merge-work counters gate hard (deterministic per
#: dataset/predicate/shard-count), the p50/p99 are informational.
_SERVE_CASES = [
    ("serve/citation-words/overlap-12/shards-4", "citation-words", "overlap", 12, 4),
    ("serve/citation-words/overlap-12/shards-2", "citation-words", "overlap", 12, 2),
    ("serve/citation-3grams/jaccard-0.7/shards-4", "citation-3grams", "jaccard", 0.7, 4),
]

#: Serve cases exercised under ``--quick`` (CI).
_SERVE_QUICK_CASES = {
    "serve/citation-words/overlap-12/shards-4",
}

#: Queries per serve case: the first K corpus records re-asked as probes.
_SERVE_QUERIES = 64

#: Mapped-index gate matrix: (case-name, dataset, predicate, threshold,
#: algorithm). Each case joins on all three index backends (in-memory,
#: mapped columns, mapped varbyte blocks) and serves a pinned query
#: stream off a ``save(format='mmap')`` file.
_MMAP_CASES = [
    ("mmap/optmerge/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count-optmerge"),
    ("mmap/two-pass/citation-words/overlap-12", "citation-words", "overlap", 12, "probe-count"),
    ("mmap/optmerge/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, "probe-count-optmerge"),
]

#: Mmap cases exercised under ``--quick`` (CI).
_MMAP_QUICK_CASES = {
    "mmap/optmerge/citation-words/overlap-12",
    "mmap/two-pass/citation-words/overlap-12",
}

#: Approximate-mode gate matrix: (case-name, dataset, predicate,
#: threshold, target_recall, min_recall, max_work_ratio). Each case
#: runs positional-filter (exact ground truth), probe-cluster (the
#: competing exact default, informational), and the seeded approximate
#: join; measured recall against the exact pair set must reach
#: ``min_recall``, every emitted pair must independently re-verify
#: (zero false positives), and ``work(approx) / work(exact)`` must stay
#: at or below ``max_work_ratio``. Both citation shapes are covered:
#: All-words (short sets, dense matches) and All-3grams (long sets,
#: where path hashing prunes hardest).
_APPROX_CASES = [
    ("approx/citation-words/jaccard-0.7", "citation-words", "jaccard", 0.7, 0.9, 0.9, 0.5),
    ("approx/citation-3grams/jaccard-0.7", "citation-3grams", "jaccard", 0.7, 0.9, 0.9, 0.5),
]

#: Approx cases exercised under ``--quick`` (CI): both — the matrix is
#: only two cases and recall/soundness are the headline contract.
_APPROX_QUICK_CASES = {name for name, *_ in _APPROX_CASES}

#: Absolute ceiling on ``load(mmap=True)`` open time, milliseconds.
#: Open cost is O(directory) — parse the header and JSON directory,
#: map the file — and measures ~2ms where the snapshot decode+rebuild
#: path takes ~75ms, so 100ms (the acceptance bound for multi-hundred-
#: MB files) is noise-proof on any CI runner. The committed baseline's
#: ``open_ms`` is additionally honored as 3x headroom where tighter.
_MMAP_OPEN_CEILING_MS = 100.0

#: Queries per mmap serving measurement: the first K corpus records.
_MMAP_QUERIES = 64

#: Dict-shaped mirror of ``CostCounters.total_work`` for servers that
#: report ``counters_snapshot()`` instead of a counters object.
_WORK_COUNTERS = (
    "heap_pops", "list_items_touched", "binary_searches",
    "pairs_generated", "pairs_verified",
)

_PROFILES = {"quick": 500, "full": 2000}


def _join_once(
    dataset,
    predicate,
    algorithm,
    bitmap_filter=None,
    merge_backend=None,
    index_backend=None,
):
    from repro import make_algorithm

    instance = make_algorithm(algorithm)
    instance.bitmap_filter = bitmap_filter
    if merge_backend is not None:
        instance.merge_backend = merge_backend
    if index_backend is not None:
        instance.index_backend = index_backend
    return instance.join(dataset, predicate)


def _run_case(dataset_name, predicate_name, threshold, algorithm, index_backend, n):
    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
    result = _join_once(dataset, predicate, algorithm, index_backend=index_backend)
    return {
        "work": result.counters.total_work(),
        "pairs": len(result.pairs),
        "seconds": round(result.elapsed_seconds, 4),
    }


def _run_bitmap_case(dataset_name, predicate_name, threshold, algorithm, n):
    """One unfiltered + one filtered run; the filter must not change pairs."""
    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
    plain = _join_once(dataset, predicate, algorithm)
    filtered = _join_once(dataset, predicate, algorithm, bitmap_filter=True)
    pairs_match = sorted((p.rid_a, p.rid_b) for p in plain.pairs) == sorted(
        (p.rid_a, p.rid_b) for p in filtered.pairs
    )
    base_verified = plain.counters.pairs_verified
    reduction = (
        1.0 - filtered.counters.pairs_verified / base_verified
        if base_verified
        else 0.0
    )
    return {
        "work": filtered.counters.total_work(),
        "pairs": len(filtered.pairs),
        "pairs_match": pairs_match,
        "pairs_verified_unfiltered": base_verified,
        "pairs_verified": filtered.counters.pairs_verified,
        "bitmap_checks": filtered.counters.bitmap_checks,
        "bitmap_rejects": filtered.counters.bitmap_rejects,
        "reduction": round(reduction, 4),
        "seconds": round(filtered.elapsed_seconds, 4),
    }


def _run_merge_case(dataset_name, predicate_name, threshold, algorithm, n):
    """One heap + one accumulator run; the backends must agree on pairs."""
    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
    heap = _join_once(dataset, predicate, algorithm, merge_backend="heap")
    acc = _join_once(dataset, predicate, algorithm, merge_backend="accumulator")
    pairs_match = sorted((p.rid_a, p.rid_b) for p in heap.pairs) == sorted(
        (p.rid_a, p.rid_b) for p in acc.pairs
    )
    heap_work = heap.counters.total_work()
    acc_work = acc.counters.total_work()
    return {
        "work": acc_work,
        "pairs": len(acc.pairs),
        "pairs_match": pairs_match,
        "heap_work": heap_work,
        "heap_seconds": round(heap.elapsed_seconds, 4),
        "accum_scans": acc.counters.accum_scans,
        "accum_writes": acc.counters.accum_writes,
        "gallop_steps": acc.counters.gallop_steps,
        "work_improvement": round(1.0 - acc_work / heap_work, 4) if heap_work else 0.0,
        "wallclock_improvement": round(
            1.0 - acc.elapsed_seconds / heap.elapsed_seconds, 4
        )
        if heap.elapsed_seconds
        else 0.0,
        "seconds": round(acc.elapsed_seconds, 4),
    }


def _run_prefix_case(dataset_name, predicate_name, threshold, n):
    """MergeOpt vs basic prefix vs the full stack; pairs must agree."""
    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
    mergeopt = _join_once(dataset, predicate, "probe-count-sort")
    prefix = _join_once(dataset, predicate, "prefix-filter")
    stack = _join_once(dataset, predicate, "positional-filter")
    canonical = sorted((p.rid_a, p.rid_b) for p in mergeopt.pairs)
    pairs_match = (
        sorted((p.rid_a, p.rid_b) for p in prefix.pairs) == canonical
        and sorted((p.rid_a, p.rid_b) for p in stack.pairs) == canonical
    )
    base_candidates = prefix.counters.candidates_checked
    reduction = (
        1.0 - stack.counters.candidates_checked / base_candidates
        if base_candidates
        else 0.0
    )
    return {
        "work": stack.counters.total_work(),
        "pairs": len(stack.pairs),
        "pairs_match": pairs_match,
        "candidates_prefix": base_candidates,
        "candidates_stack": stack.counters.candidates_checked,
        "reduction": round(reduction, 4),
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


def _run_serve_case(dataset_name, predicate_name, threshold, shards, n):
    """The same query stream through all three serving tiers.

    Single-index, in-process sharded, and remote-sharded (every shard a
    :class:`ShardServer` node on loopback) must answer identically; the
    remote latencies are recorded alongside the in-process ones so the
    per-query cost of the wire hop is visible in the baseline.
    """
    dataset = dataset_by_name(dataset_name, n)
    records = list(dataset.records)
    queries = records[:_SERVE_QUERIES]

    index = SimilarityIndex(_PREDICATES[predicate_name](threshold))
    for record in records:
        index.add(record)
    single = IndexServer(index, workers=2).start()

    sharded = ShardedIndexServer(
        _PREDICATES[predicate_name](threshold),
        shards=shards,
        workers=2,
        shard_workers=2,
    )
    for record in records:
        sharded.add(record)
    sharded.start()

    nodes = [
        ShardServer(
            SimilarityIndex(_PREDICATES[predicate_name](threshold))
        ).start()
        for _ in range(shards)
    ]
    remote = ShardedIndexServer(
        _PREDICATES[predicate_name](threshold),
        shards=shards,
        workers=2,
        shard_workers=2,
        shard_endpoints=[f"127.0.0.1:{node.port}" for node in nodes],
    )
    for record in records:
        remote.add(record)
    remote.start()

    try:
        single_before = _snapshot_work(index.counters_snapshot())
        single_latencies, single_answers = [], []
        for query in queries:
            started = time.perf_counter()
            matches = single.query(query, timeout=60.0)
            single_latencies.append(time.perf_counter() - started)
            single_answers.append(
                [(m.rid_a, round(m.similarity, 12)) for m in matches]
            )
        single_work = _snapshot_work(index.counters_snapshot()) - single_before

        sharded_before = _snapshot_work(sharded.counters_snapshot())
        sharded_latencies, sharded_answers = [], []
        run_started = time.perf_counter()
        for query in queries:
            started = time.perf_counter()
            result = sharded.query(query, timeout=60.0)
            sharded_latencies.append(time.perf_counter() - started)
            assert not result.partial, "benchmark run lost a shard"
            sharded_answers.append(
                [(m.rid_a, round(m.similarity, 12)) for m in result]
            )
        seconds = time.perf_counter() - run_started
        sharded_work = _snapshot_work(sharded.counters_snapshot()) - sharded_before

        remote_latencies, remote_answers = [], []
        for query in queries:
            started = time.perf_counter()
            result = remote.query(query, timeout=60.0)
            remote_latencies.append(time.perf_counter() - started)
            assert not result.partial, "benchmark run lost a remote shard"
            remote_answers.append(
                [(m.rid_a, round(m.similarity, 12)) for m in result]
            )
    finally:
        single.drain(timeout=30.0)
        sharded.drain(timeout=30.0)
        remote.drain(timeout=30.0)
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


def _run_mmap_case(dataset_name, predicate_name, threshold, algorithm, n):
    """The same join on all three index backends + a mapped serving pass.

    The raw and varbyte mapped runs must both be bit-identical to the
    in-memory run (pairs *and* similarities). The serving pass measures
    open time (best of 3) and the deterministic residency counter —
    directory bytes plus postings the query stream touched — off a
    ``save(format='mmap')`` file.
    """
    import tempfile

    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
    memory = _join_once(dataset, predicate, algorithm)
    mapped = _join_once(dataset, predicate, algorithm, index_backend="mmap")
    disk = _join_once(dataset, predicate, algorithm, index_backend="mmap-varbyte")

    def tuples(result):
        return sorted((p.rid_a, p.rid_b, p.similarity) for p in result.pairs)

    pairs_match = tuples(mapped) == tuples(memory) == tuples(disk)

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
            queries = list(dataset.records[:_MMAP_QUERIES])
            live_answers = [
                [(m.rid_a, round(m.similarity, 12)) for m in service.query(q)]
                for q in queries
            ]
            mapped_answers = [
                [(m.rid_a, round(m.similarity, 12)) for m in opened.query(q)]
                for q in queries
            ]
            serve_match = mapped_answers == live_answers
            directory_bytes = opened._index.directory_bytes
            resident_bytes = opened._index.resident_bytes()
        finally:
            opened.close()

    return {
        "work": mapped.counters.total_work(),
        "pairs": len(mapped.pairs),
        "pairs_match": pairs_match,
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


def _run_approx_case(dataset_name, predicate_name, threshold, target_recall, n):
    """Exact ground truth vs the seeded approximate join.

    Recall is measured against the positional-filter pair set (exact by
    construction), soundness by re-verifying every emitted pair with a
    freshly bound predicate — independent of the join's own verifier —
    and the work ratio against the exact baseline's ``total_work()``.
    Probe-Cluster work is recorded alongside for context.
    """
    dataset = dataset_by_name(dataset_name, n)
    predicate = _PREDICATES[predicate_name](threshold)
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


def run_profile(
    profile: str,
    bitmap: bool = False,
    merge: bool = False,
    serve: bool = False,
    prefix: bool = False,
    mmap: bool = False,
    approx: bool = False,
) -> dict:
    n = _PROFILES[profile]
    cases = {}
    started = time.perf_counter()
    label = (
        "bitmap"
        if bitmap
        else "merge"
        if merge
        else "serve"
        if serve
        else "prefix-stack"
        if prefix
        else "mmap"
        if mmap
        else "approx"
        if approx
        else "perf"
    )
    print(f"{label} matrix [{profile}] n={n}:")
    if approx:
        for name, dataset_name, predicate_name, threshold, target, _, _ in _APPROX_CASES:
            if profile == "quick" and name not in _APPROX_QUICK_CASES:
                continue
            cases[name] = _run_approx_case(
                dataset_name, predicate_name, threshold, target, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" recall={row['recall']:.4f}"
                f" fp={row['false_positives']}"
                f" ratio={row['work_ratio']:.3f}"
                f" ({row['seconds']:.3f}s vs exact {row['exact_seconds']:.3f}s)"
            )
    elif mmap:
        for name, dataset_name, predicate_name, threshold, algorithm in _MMAP_CASES:
            if profile == "quick" and name not in _MMAP_QUICK_CASES:
                continue
            cases[name] = _run_mmap_case(
                dataset_name, predicate_name, threshold, algorithm, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" match={row['pairs_match']}"
                f" serve_match={row['serve_match']}"
                f" open={row['open_ms']}ms"
                f" resident {row['resident_bytes']}/{row['file_bytes']}B"
                f" {row['seconds']:.3f}s"
            )
    elif prefix:
        for name, dataset_name, predicate_name, threshold, _ in _PREFIX_CASES:
            if profile == "quick" and name not in _PREFIX_QUICK_CASES:
                continue
            cases[name] = _run_prefix_case(
                dataset_name, predicate_name, threshold, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" match={row['pairs_match']}"
                f" candidates {row['candidates_prefix']}"
                f" -> {row['candidates_stack']}"
                f" reduction={row['reduction']:.1%}"
                f" {row['seconds']:.3f}s"
            )
    elif serve:
        for name, dataset_name, predicate_name, threshold, shards in _SERVE_CASES:
            if profile == "quick" and name not in _SERVE_QUICK_CASES:
                continue
            cases[name] = _run_serve_case(
                dataset_name, predicate_name, threshold, shards, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" match={row['pairs_match']}"
                f" remote_match={row['remote_pairs_match']}"
                f" p50 {row['sharded_p50_ms']}ms vs {row['single_p50_ms']}ms"
                f" p99 {row['sharded_p99_ms']}ms vs {row['single_p99_ms']}ms"
                f" remote p50 {row['remote_p50_ms']}ms"
                f" p99 {row['remote_p99_ms']}ms"
            )
    elif merge:
        for name, dataset_name, predicate_name, threshold, algorithm, _, _ in _MERGE_CASES:
            if profile == "quick" and name not in _MERGE_QUICK_CASES:
                continue
            cases[name] = _run_merge_case(
                dataset_name, predicate_name, threshold, algorithm, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" improvement={row['work_improvement']:.1%}"
                f" wall={row['wallclock_improvement']:.1%}"
                f" {row['seconds']:.3f}s"
            )
    elif bitmap:
        for name, dataset_name, predicate_name, threshold, algorithm, _ in _BITMAP_CASES:
            if profile == "quick" and name not in _BITMAP_QUICK_CASES:
                continue
            cases[name] = _run_bitmap_case(
                dataset_name, predicate_name, threshold, algorithm, n
            )
            row = cases[name]
            print(
                f"  {name:<48} work={row['work']:<12}"
                f" pairs={row['pairs']:<6} reduction={row['reduction']:.1%}"
                f" {row['seconds']:.3f}s"
            )
    else:
        for name, dataset_name, predicate_name, threshold, algorithm, backend in _CASES:
            if profile == "quick" and name not in _QUICK_CASES:
                continue
            cases[name] = _run_case(
                dataset_name, predicate_name, threshold, algorithm, backend, n
            )
            print(
                f"  {name:<45} work={cases[name]['work']:<12}"
                f" pairs={cases[name]['pairs']:<6} {cases[name]['seconds']:.3f}s"
            )
    return {
        "n": n,
        "cases": cases,
        "total_seconds": round(time.perf_counter() - started, 3),
    }


def _report_shell(
    profiles: dict,
    bitmap: bool = False,
    merge: bool = False,
    serve: bool = False,
    prefix: bool = False,
    mmap: bool = False,
    approx: bool = False,
) -> dict:
    kind = (
        "bitmap-perf-baseline"
        if bitmap
        else "merge-perf-baseline"
        if merge
        else "serve-perf-baseline"
        if serve
        else "prefix-stack-perf-baseline"
        if prefix
        else "mmap-perf-baseline"
        if mmap
        else "approx-perf-baseline"
        if approx
        else "serial-perf-baseline"
    )
    return {
        "schema": 1,
        "kind": kind,
        "seed": BENCHMARK_SEED,
        "tolerance": TOLERANCE,
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "profiles": profiles,
    }


def check(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Return gate failures; empty means the gate passes."""
    base_profile = baseline.get("profiles", {}).get(profile)
    if base_profile is None:
        return [f"baseline has no {profile!r} profile; re-generate it"]
    if base_profile.get("n") != fresh["n"]:
        return [
            f"baseline {profile} n={base_profile.get('n')} != run n={fresh['n']};"
            " re-generate the baseline"
        ]
    failures = []
    base_cases = base_profile.get("cases", {})
    for name, row in fresh["cases"].items():
        base = base_cases.get(name)
        if base is None:
            print(f"  NEW CASE (not gated): {name}")
            continue
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
    return failures


def check_bitmap(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the bitmap-filter cases: soundness first, then perf."""
    failures = check(fresh, baseline, profile)
    floors = {name: floor for name, _, _, _, _, floor in _BITMAP_CASES}
    for name, row in fresh["cases"].items():
        if not row.get("pairs_match", True):
            failures.append(
                f"{name}: filtered join emitted different pairs than the"
                " unfiltered join (bitmap filter is UNSOUND)"
            )
        floor = floors.get(name)
        if floor is not None and row["reduction"] < floor:
            failures.append(
                f"{name}: verification reduction {row['reduction']:.1%}"
                f" fell below the pinned floor {floor:.0%}"
            )
    return failures


def check_merge(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the merge-backend cases: identity first, then improvement."""
    failures = check(fresh, baseline, profile)
    work_floors = {name: floor for name, _, _, _, _, floor, _ in _MERGE_CASES}
    wall_floors = {name: floor for name, _, _, _, _, _, floor in _MERGE_CASES}
    for name, row in fresh["cases"].items():
        if not row.get("pairs_match", True):
            failures.append(
                f"{name}: accumulator backend emitted different pairs than"
                " the heap backend (merge backends are NOT equivalent)"
            )
        floor = work_floors.get(name)
        if floor is not None and row["work_improvement"] < floor:
            failures.append(
                f"{name}: work improvement {row['work_improvement']:.1%}"
                f" fell below the pinned floor {floor:.0%}"
            )
        floor = wall_floors.get(name)
        if floor is not None and row["wallclock_improvement"] < floor:
            failures.append(
                f"{name}: wall-clock improvement"
                f" {row['wallclock_improvement']:.1%}"
                f" fell below the pinned floor {floor:.0%}"
            )
    return failures


def check_prefix(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the filter-stack cases: pair identity, then pruning floors."""
    failures = check(fresh, baseline, profile)
    floors = {name: floor for name, _, _, _, floor in _PREFIX_CASES}
    for name, row in fresh["cases"].items():
        if not row.get("pairs_match", True):
            failures.append(
                f"{name}: the filter stack emitted different pairs than"
                " MergeOpt / the basic prefix filter (a filter layer is"
                " UNSOUND)"
            )
        floor = floors.get(name)
        if floor is not None and row["reduction"] < floor:
            failures.append(
                f"{name}: candidate reduction {row['reduction']:.1%}"
                f" fell below the pinned floor {floor:.0%}"
            )
    return failures


def check_mmap(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the mapped index: bit-identity, open-time, residency."""
    failures = check(fresh, baseline, profile)
    base_cases = baseline.get("profiles", {}).get(profile, {}).get("cases", {})
    for name, row in fresh["cases"].items():
        if not row.get("pairs_match", True):
            failures.append(
                f"{name}: a mapped join (raw or varbyte) emitted different"
                " matches than the in-memory index (the mapped columns are"
                " NOT a drop-in)"
            )
        if not row.get("serve_match", True):
            failures.append(
                f"{name}: the mapped service answered differently than the"
                " live index (serving off the mapped file is NOT exact)"
            )
        base = base_cases.get(name)
        # Open time: O(directory), so an absolute ceiling is noise-proof;
        # honor the committed number with 3x headroom where it's tighter.
        ceiling_ms = _MMAP_OPEN_CEILING_MS
        if base is not None and "open_ms" in base:
            ceiling_ms = min(ceiling_ms, max(base["open_ms"] * 3.0, 25.0))
        if row["open_ms"] > ceiling_ms:
            failures.append(
                f"{name}: load(mmap=True) took {row['open_ms']}ms,"
                f" ceiling {ceiling_ms:.1f}ms (open must stay O(directory))"
            )
        # Residency is a deterministic counter (directory + touched
        # postings), so it gates like work: no silent growth past 10%.
        if base is not None and "resident_bytes" in base:
            allowed = base["resident_bytes"] * (1 + TOLERANCE)
            if row["resident_bytes"] > allowed:
                failures.append(
                    f"{name}: resident bytes regressed"
                    f" {base['resident_bytes']} -> {row['resident_bytes']}"
                    f" (tolerance {1 + TOLERANCE:.0%}; the query stream is"
                    " faulting in more of the file)"
                )
        if row["resident_bytes"] >= row["file_bytes"]:
            failures.append(
                f"{name}: resident bytes {row['resident_bytes']} reached the"
                f" file size {row['file_bytes']} (zero-copy serving is"
                " materializing the whole index)"
            )
    return failures


def check_serve(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the serving cases: answer identity first, then merge work."""
    failures = check(fresh, baseline, profile)
    for name, row in fresh["cases"].items():
        if not row.get("pairs_match", True):
            failures.append(
                f"{name}: sharded server answered differently than the"
                " single-index server (scatter-gather is NOT exact)"
            )
        if not row.get("remote_pairs_match", True):
            failures.append(
                f"{name}: remote-sharded server answered differently than"
                " the single-index server (the wire transport is NOT exact)"
            )
    return failures


def check_approx(fresh: dict, baseline: dict, profile: str) -> list[str]:
    """Gate the approximate mode: soundness, recall floor, work ratio."""
    failures = check(fresh, baseline, profile)
    recall_floors = {name: floor for name, _, _, _, _, floor, _ in _APPROX_CASES}
    ratio_caps = {name: cap for name, _, _, _, _, _, cap in _APPROX_CASES}
    for name, row in fresh["cases"].items():
        if row.get("false_positives", 0):
            failures.append(
                f"{name}: {row['false_positives']} emitted pair(s) failed"
                " independent exact re-verification (the approximate mode"
                " is UNSOUND — it must never emit a false positive)"
            )
        floor = recall_floors.get(name)
        if floor is not None and row["recall"] < floor:
            failures.append(
                f"{name}: measured recall {row['recall']:.4f} fell below"
                f" the pinned floor {floor} (target_recall no longer met)"
            )
        cap = ratio_caps.get(name)
        if cap is not None and row["work_ratio"] > cap:
            failures.append(
                f"{name}: work ratio {row['work_ratio']:.3f} vs the exact"
                f" positional-filter baseline exceeded the cap {cap}"
                " (the speedup this mode exists for has eroded)"
            )
    return failures


# ----------------------------------------------------------------------
# Cross-BENCH trajectory report
# ----------------------------------------------------------------------


def _load_json(path: str) -> dict | None:
    """Read a BENCH file, or skip-and-warn when absent or unreadable.

    The report is a trajectory view, not a gate: a clone that only has
    some baselines (or a truncated file from an interrupted rewrite)
    still gets a table for everything that parses.
    """
    if not os.path.exists(path):
        print(
            f"warning: {os.path.basename(path)} not found — skipping",
            file=sys.stderr,
        )
        return None
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
    rows: list[tuple[str, str, str, str, str]] = []

    def add_profile_cases(bench: str, data: dict | None, extra=None):
        if data is None:
            return
        for profile_name, profile in sorted(data.get("profiles", {}).items()):
            for case, row in sorted(profile.get("cases", {}).items()):
                note = extra(row) if extra is not None else ""
                rows.append(
                    (
                        bench,
                        f"{case} [{profile_name}]",
                        str(row.get("work", "-")),
                        f"{row.get('seconds', 0.0):.3f}s",
                        note,
                    )
                )

    add_profile_cases("serial", _load_json(DEFAULT_BASELINE))
    add_profile_cases(
        "bitmap",
        _load_json(BITMAP_BASELINE),
        lambda row: f"reduction={row.get('reduction', 0.0):.1%}",
    )
    add_profile_cases(
        "merge",
        _load_json(MERGE_BASELINE),
        lambda row: (
            f"work {row.get('work_improvement', 0.0):+.1%}"
            f" wall {row.get('wallclock_improvement', 0.0):+.1%}"
        ),
    )
    add_profile_cases(
        "prefix",
        _load_json(PREFIX_BASELINE),
        lambda row: (
            f"candidates {row.get('candidates_prefix', 0)}"
            f" -> {row.get('candidates_stack', 0)}"
            f" ({row.get('reduction', 0.0):.1%})"
        ),
    )
    add_profile_cases(
        "mmap",
        _load_json(MMAP_BASELINE),
        lambda row: (
            f"open {row.get('open_ms', 0.0)}ms"
            f" resident {row.get('resident_bytes', 0) / 1e6:.2f}MB"
            f" / {row.get('file_bytes', 0) / 1e6:.2f}MB file"
        ),
    )
    add_profile_cases(
        "serve",
        _load_json(SERVE_BASELINE),
        lambda row: (
            f"p50 {row.get('sharded_p50_ms', 0.0)}ms"
            f" (single {row.get('single_p50_ms', 0.0)}ms)"
            f" p99 {row.get('sharded_p99_ms', 0.0)}ms"
        ),
    )
    add_profile_cases(
        "approx",
        _load_json(APPROX_BASELINE),
        lambda row: (
            f"recall={row.get('recall', 0.0):.4f}"
            f" fp={row.get('false_positives', 0)}"
            f" ratio={row.get('work_ratio', 0.0):.3f} of exact"
        ),
    )
    parallel = _load_json(PARALLEL_BASELINE)
    if parallel is not None:
        case = f"{parallel.get('algorithm')}/{parallel.get('dataset')}"
        serial = parallel.get("serial", {})
        rows.append(
            (
                "parallel",
                f"{case} [serial]",
                str(serial.get("work", "-")),
                f"{serial.get('seconds', 0.0):.3f}s",
                "",
            )
        )
        for row in parallel.get("parallel", []):
            rows.append(
                (
                    "parallel",
                    f"{case} [workers={row.get('workers')}]",
                    str(row.get("work", "-")),
                    f"{row.get('seconds', 0.0):.3f}s",
                    f"speedup={row.get('speedup', 0.0):.2f}x",
                )
            )

    if not rows:
        print("no BENCH files found at the repo root", file=sys.stderr)
        return 1
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    header = ("bench", "case", "work", "wall", "")
    widths = [max(w, len(h)) for w, h in zip(widths, header[:4])]
    print(
        f"{header[0]:<{widths[0]}}  {header[1]:<{widths[1]}}"
        f"  {header[2]:>{widths[2]}}  {header[3]:>{widths[3]}}"
    )
    for bench, case, work, wall, note in rows:
        line = (
            f"{bench:<{widths[0]}}  {case:<{widths[1]}}"
            f"  {work:>{widths[2]}}  {wall:>{widths[3]}}"
        )
        print(f"{line}  {note}" if note else line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="quick profile only (n=500, CI)"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the baseline instead of rewriting it",
    )
    parser.add_argument(
        "--bitmap", action="store_true",
        help="run the bitmap-filter matrix against BENCH_bitmap.json"
        " (each case runs unfiltered + filtered and must emit identical pairs)",
    )
    parser.add_argument(
        "--merge", action="store_true",
        help="run the merge-backend matrix against BENCH_merge.json"
        " (each case runs per backend and must emit identical pairs)",
    )
    parser.add_argument(
        "--prefix", action="store_true",
        help="run the prefix-filter-stack matrix against BENCH_prefix.json"
        " (each case runs MergeOpt, prefix-filter, and positional-filter"
        " and all three must emit identical pairs)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="run the sharded-serving matrix against BENCH_serve.json"
        " (each case streams identical queries through the single and"
        " sharded servers and must get identical answers)",
    )
    parser.add_argument(
        "--mmap", action="store_true",
        help="run the mapped-index matrix against BENCH_mmap.json"
        " (each case joins on the memory, mmap, and mmap-varbyte index"
        " backends — matches must be bit-identical — and gates"
        " load(mmap=True) open time and post-query residency)",
    )
    parser.add_argument(
        "--approx", action="store_true",
        help="run the approximate-mode matrix against BENCH_approx.json"
        " (each case measures recall against the exact pair set,"
        " independently re-verifies every emitted pair, and gates the"
        " work ratio vs the exact positional-filter baseline)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print a compact trajectory table across every committed"
        " BENCH file (serial/parallel/bitmap/merge/serve/approx) and"
        " exit; missing or unreadable files are skipped with a warning",
    )
    parser.add_argument("--baseline", default=None)
    parser.add_argument(
        "--output", default=None,
        help="where to write the fresh report when checking"
        " (default: BENCH_*.fresh.json beside the baseline)",
    )
    args = parser.parse_args(argv)
    if args.report:
        return report_trajectory()
    if sum(
        (args.bitmap, args.merge, args.serve, args.prefix, args.mmap, args.approx)
    ) > 1:
        parser.error(
            "--bitmap, --merge, --serve, --prefix, --mmap, and --approx"
            " are mutually exclusive"
        )
    baseline_path = args.baseline or (
        BITMAP_BASELINE
        if args.bitmap
        else MERGE_BASELINE
        if args.merge
        else SERVE_BASELINE
        if args.serve
        else PREFIX_BASELINE
        if args.prefix
        else MMAP_BASELINE
        if args.mmap
        else APPROX_BASELINE
        if args.approx
        else DEFAULT_BASELINE
    )
    checker = (
        check_bitmap
        if args.bitmap
        else check_merge
        if args.merge
        else check_serve
        if args.serve
        else check_prefix
        if args.prefix
        else check_mmap
        if args.mmap
        else check_approx
        if args.approx
        else check
    )
    fresh_name = (
        "BENCH_bitmap.fresh.json"
        if args.bitmap
        else "BENCH_merge.fresh.json"
        if args.merge
        else "BENCH_serve.fresh.json"
        if args.serve
        else "BENCH_prefix.fresh.json"
        if args.prefix
        else "BENCH_mmap.fresh.json"
        if args.mmap
        else "BENCH_approx.fresh.json"
        if args.approx
        else "BENCH_serial.fresh.json"
    )

    if args.check:
        profile = "quick" if args.quick else "full"
        fresh = run_profile(
            profile,
            bitmap=args.bitmap,
            merge=args.merge,
            serve=args.serve,
            prefix=args.prefix,
            mmap=args.mmap,
            approx=args.approx,
        )
        if not os.path.exists(baseline_path):
            print(f"FAIL: no committed baseline at {baseline_path}", file=sys.stderr)
            return 2
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        output = args.output or os.path.join(
            os.path.dirname(baseline_path) or ".", fresh_name
        )
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(
                _report_shell(
                    {profile: fresh},
                    bitmap=args.bitmap, merge=args.merge,
                    serve=args.serve, prefix=args.prefix, mmap=args.mmap,
                    approx=args.approx,
                ),
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        failures = checker(fresh, baseline, profile)
        if failures:
            print(
                f"PERF GATE FAILED ({len(failures)} regression(s)):", file=sys.stderr
            )
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("perf gate passed: work counters at or below committed baseline")
        return 0

    # Baseline (re)generation: quick-only if asked, else both profiles.
    names = ["quick"] if args.quick else ["quick", "full"]
    report = _report_shell(
        {
            name: run_profile(
                name,
                bitmap=args.bitmap,
                merge=args.merge,
                serve=args.serve,
                prefix=args.prefix,
                mmap=args.mmap,
                approx=args.approx,
            )
            for name in names
        },
        bitmap=args.bitmap,
        merge=args.merge,
        serve=args.serve,
        prefix=args.prefix,
        mmap=args.mmap,
        approx=args.approx,
    )
    output = args.output or baseline_path
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
