"""Three answers to "the index does not fit in memory", compared.

The paper's own answer is partitioning (ClusterMem, §4); it notes two
orthogonal IR directions (§4/§6): compressing the index, and keeping
the index on disk. All three are implemented in this repo — the last
two as the mapped index backends (raw ``mmap`` columns and the
compressed ``mmap-varbyte`` blocks) — and this bench runs them on the
same workload so the trade-off triangle (memory footprint vs wall time
vs disk footprint) is visible in one table. The in-memory Probe-Cluster
run anchors the comparison.
"""

import os

from harness import citation_words, run_join
from repro import ClusterMemJoin, MemoryBudget, OverlapPredicate

N = 2000
THRESHOLD = 15
EXPERIMENT = "memory strategies: partition vs compress vs disk (citation n=2000, T=15)"
MAPPED = {
    "disk-resident index (mmap)": "mmap",
    "compressed index (mmap-varbyte)": "mmap-varbyte",
}


def test_memory_strategies(benchmark, report, tmp_path):
    data = citation_words(N)
    predicate = OverlapPredicate(THRESHOLD)
    paths = {label: str(tmp_path / f"{backend}.rpmx") for label, backend in MAPPED.items()}

    def run_all():
        results = {}
        results["in-memory probe-cluster"] = run_join("probe-cluster", data, predicate)
        results["clustermem @10% budget"] = ClusterMemJoin(
            MemoryBudget.fraction_of_full(data, 0.1)
        ).join(data, predicate)
        for label, backend in MAPPED.items():
            results[label] = run_join(
                "probe-count-optmerge", data, predicate,
                index_backend=backend, index_path=paths[label],
            )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reference = results["in-memory probe-cluster"].pair_set()
    full_entries = data.total_word_occurrences()
    for label, result in results.items():
        assert result.pair_set() == reference, label
        if label.startswith("clustermem"):
            phase1 = result.counters.extra["phase1_index_entries"]
            memory_note = f"{phase1}/{full_entries} entries"
        elif label in paths:
            # Mapped: the directory plus every touched posting list.
            memory_note = (
                f"{result.counters.index_entries} entries resident;"
                f" {os.path.getsize(paths[label])}B file"
            )
        else:
            memory_note = f"{result.counters.index_entries} entries resident"
        report(
            EXPERIMENT,
            label,
            seconds=result.elapsed_seconds,
            memory=memory_note,
            pairs=len(result.pairs),
        )
