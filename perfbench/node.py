"""One shard node for the serve-remote workload, in its own process.

Usage: ``python3 perfbench/node.py --threshold 0.8 --trace 0|1``

Hosts an empty :class:`SimilarityIndex` behind a
:class:`~repro.serving.transport.ShardServer` on an ephemeral loopback
port, prints ``port <n>``, and serves until its stdin is closed. It then
stops the server and prints one JSON line. With ``--trace 1`` the line
carries the node-side duration of every ``SimilarityIndex.query`` in
arrival order (``query_ns``), which lets the launcher split each round
trip into node compute and wire time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter_ns


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    from repro import JaccardPredicate, SimilarityIndex
    from repro.serving import ShardServer

    served: list[int] = []
    if args.trace:
        original = SimilarityIndex.query

        def query(index, item, context=None):
            start = perf_counter_ns()
            try:
                return original(index, item, context)
            finally:
                served.append(perf_counter_ns() - start)

        SimilarityIndex.query = query

    node = ShardServer(SimilarityIndex(JaccardPredicate(args.threshold))).start()
    try:
        print(f"port {node.port}", flush=True)
        sys.stdin.read()
    finally:
        node.stop()
    print(json.dumps({"query_ns": served}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
