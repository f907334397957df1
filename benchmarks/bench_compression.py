"""§4/§6 side experiment: index compression memory/CPU trade-off.

The paper: compression "would contribute to pushing the limit upto
which we can hold the index in memory" and is orthogonal to the
ClusterMem partitioning. Runs the same two-pass MergeOpt join over the
raw mapped index (``index_backend='mmap'``, 8-byte id columns) and the
varbyte one (``index_backend='mmap-varbyte'``, gap-coded skip blocks),
and sets the two index files' sizes against the probe cost.
"""

import os

from harness import citation_words, run_join
from repro import OverlapPredicate

N = 2000
THRESHOLD = 15
BACKENDS = {
    "mmap-varbyte": "compressed (varbyte+skips)",
    "mmap": "raw columns (8B/posting)",
}


def test_compressed_index_footprint_and_cost(benchmark, report, tmp_path):
    data = citation_words(N)
    predicate = OverlapPredicate(THRESHOLD)
    paths = {backend: str(tmp_path / f"{backend}.rpmx") for backend in BACKENDS}

    def run():
        return {
            backend: run_join(
                "probe-count-optmerge", data, predicate,
                index_backend=backend, index_path=path,
            )
            for backend, path in paths.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert results["mmap-varbyte"].pair_set() == results["mmap"].pair_set()
    sizes = {backend: os.path.getsize(path) for backend, path in paths.items()}
    for backend, label in BACKENDS.items():
        report(
            "compression: index footprint vs probe cost",
            label,
            index_bytes=sizes[backend],
            compression_ratio=sizes["mmap"] / sizes[backend],
            seconds=results[backend].elapsed_seconds,
        )
    assert sizes["mmap-varbyte"] <= 0.5 * sizes["mmap"]
