"""Parallel-join benchmark: serial vs sharded wall-clock + exactness.

Runs the pinned citation workload serially and under ``parallel_join``
with increasing worker counts, asserts the pair sets are identical, and
records wall-clock, speedup, each worker's wall time
(``shard_seconds``, in shard order — how evenly the shards split the
scan), and the machine-independent ``work`` counters into
``BENCH_parallel.json`` at the repo root.

Wall-clock numbers are machine-dependent by nature; the report embeds
the machine profile (cpu count, platform, python) so the perf
trajectory across commits is interpretable. Speedup requires physical
cores: on a single-core runner the sharded run pays the fork +
replicated index-build cost with nothing to parallelize against, and
the recorded speedup will honestly say so.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py           # full (n=4000)
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick   # CI (n=1000)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import BENCHMARK_SEED, dataset_by_name  # noqa: E402

from repro import OverlapPredicate, parallel_join, similarity_join  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_parallel.json")

DATASET = "citation-words"
THRESHOLD = 15
ALGORITHM = "probe-count-optmerge"


def machine_profile() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def run(n: int, worker_counts: list[int], repeats: int) -> dict:
    dataset = dataset_by_name(DATASET, n)
    predicate = OverlapPredicate(THRESHOLD)

    def best_of(fn):
        results = [fn() for _ in range(repeats)]
        return min(results, key=lambda r: r.elapsed_seconds)

    serial = best_of(lambda: similarity_join(dataset, predicate, algorithm=ALGORITHM))
    serial_pairs = serial.pair_set()
    report = {
        "schema": 1,
        "kind": "parallel-benchmark",
        "dataset": f"{DATASET}-{n}",
        "seed": BENCHMARK_SEED,
        "predicate": predicate.name,
        "algorithm": ALGORITHM,
        "repeats": repeats,
        "machine": machine_profile(),
        "serial": {
            "seconds": round(serial.elapsed_seconds, 4),
            "work": serial.counters.total_work(),
            "pairs": len(serial.pairs),
        },
        "parallel": [],
    }
    for workers in worker_counts:
        result = best_of(
            lambda w=workers: parallel_join(
                dataset, predicate, algorithm=ALGORITHM, workers=w
            )
        )
        exact = result.pair_set() == serial_pairs
        if not exact:
            print(
                f"FATAL: workers={workers} pair set diverges from serial",
                file=sys.stderr,
            )
        report["parallel"].append(
            {
                "workers": workers,
                "seconds": round(result.elapsed_seconds, 4),
                "speedup": round(serial.elapsed_seconds / result.elapsed_seconds, 3),
                "shard_seconds": [
                    round(seconds, 4) for seconds in result.extra["shard_seconds"]
                ],
                "work": result.counters.total_work(),
                "pairs": len(result.pairs),
                "exact_match": exact,
            }
        )
    report["exact"] = all(row["exact_match"] for row in report["parallel"])
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small dataset for CI (n=1000)"
    )
    parser.add_argument("--n", type=int, default=None, help="override record count")
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="worker counts to benchmark (default 1 2 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs per configuration; best-of is reported (default 1)",
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (1000 if args.quick else 4000)
    report = run(n, args.workers, max(1, args.repeats))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    serial = report["serial"]
    print(f"{report['dataset']} {report['predicate']} {report['algorithm']}")
    print(f"  serial     {serial['seconds']:8.3f}s  work={serial['work']}")
    for row in report["parallel"]:
        marker = "" if row["exact_match"] else "  PAIR-SET MISMATCH"
        print(
            f"  workers={row['workers']:<2} {row['seconds']:8.3f}s"
            f"  speedup={row['speedup']:.2f}x  work={row['work']}"
            f"  shards={row['shard_seconds']}{marker}"
        )
    print(f"wrote {args.output}")
    return 0 if report["exact"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
