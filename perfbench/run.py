"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload join-mergeopt --seed 42 --seconds 20 --trace 0

Workloads (closed loops, load from this one process and the worker or
node processes it starts):

* ``join-mergeopt``   probe-count-optmerge self-join, merge-heavy
* ``join-filter-par`` positional filter + bitmap filter, 2 workers
* ``serve-mixed``     IndexServer, 2 clients, ~90% queries / ~10% adds
* ``serve-remote``    2 shard nodes on loopback, 1 client, cache off

Prints a human-readable report (every end-to-end figure with its unit
and sample count) and a machine record, then, as the last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. Metric names and units come
from ``BENCHMARK.json``; a layer a workload does not use reads 0. Exits
non-zero when any operation or check failed, and without a result when
the program's sources are missing.

``--pin`` fingerprints a join workload's output at ``--seed`` (after
cross-checking a second exact algorithm) into ``perfbench/pins.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join-mergeopt", "join-filter-par", "serve-mixed", "serve-remote")


def _bootstrap() -> str | None:
    """Import the program from this checkout's ``src``; an error
    message when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return f"no program sources at {src}"
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def _schema() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    problem = _bootstrap()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    import joins
    import serve
    from measure import machine_record

    if args.pin:
        print(joins.pin(args.workload, args.seed))
        return 0
    runners = {
        "join-mergeopt": lambda *a: joins.run("join-mergeopt", *a),
        "join-filter-par": lambda *a: joins.run("join-filter-par", *a),
        "serve-mixed": serve.run_mixed,
        "serve-remote": serve.run_remote,
    }
    schema = _schema()
    try:
        out = runners[args.workload](args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — no result line for a crashed run
        traceback.print_exc()
        return 1

    declared = schema["per_layer"] if args.trace else schema["end_to_end"]
    values = out.layers if args.trace else out.e2e
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not args.trace:
            out.fail(f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in out.lines:
        print(line)
    print("# machine " + json.dumps(machine_record(out.client_threads, out.processes)))
    for error in out.errors[:10]:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = out.failed == 0 and out.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(out.attempted, 1),
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
