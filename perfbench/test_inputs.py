"""Benchmark-owned checks: inputs are pure functions of (workload, seed),
tail percentiles need the sample to support them, and the layer
arithmetic of the trace closes.

    python3 -m pytest perfbench -q

Run as a script (``python3 perfbench/test_inputs.py <workload> <seed>``)
it prints the digest of that workload's generated inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
import joins  # noqa: E402
import serve  # noqa: E402
from measure import min_samples  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

WORKLOADS = ("join-mergeopt", "join-filter-par", "serve-mixed", "serve-remote")


def input_digest(workload: str, seed: int) -> str:
    if workload in joins.JOINS:
        data = [d.records for d in joins.corpora(joins.JOINS[workload], seed)]
    elif workload == "serve-mixed":
        data = serve.mixed_data(seed)
    else:
        data = serve.remote_data(seed)
    return inputs.digest(data)


def _digest_in_process(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, __file__, workload, str(seed)],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env=env,
    )
    return done.stdout.strip()


def test_same_seed_gives_byte_identical_inputs_in_separate_processes():
    for workload in WORKLOADS:
        first = _digest_in_process(workload, inputs.DEFAULT_SEED, "1")
        second = _digest_in_process(workload, inputs.DEFAULT_SEED, "2")
        assert first == second, workload


def test_different_seed_gives_different_inputs():
    for workload in WORKLOADS:
        assert input_digest(workload, 42) != input_digest(workload, 43), workload


def test_tail_percentiles_need_ten_samples_beyond_them():
    assert min_samples(99.0) == 1000
    assert min_samples(90.0) == 100


def _analyse(spans):
    tracer = Tracer()
    tracer.spans = [Span(*s) for s in spans]
    return tracer.analyse()


def test_self_time_subtracts_children_and_closes():
    # op 0..100 > a 10..60 > b 20..30; a leaf is charged inside a.
    tracer = Tracer()
    tracer.spans = [Span(1, 1, 0, "op", 0, 100), Span(1, 2, 1, "a", 10, 60), Span(1, 3, 2, "b", 20, 30)]
    tracer.leaves[(2, "leaf")] = [3, 5]
    analysis = tracer.analyse()
    assert analysis.self_ns["a"] == 50 - 10 - 5
    assert analysis.self_ns["b"] == 10
    assert analysis.self_ns["leaf"] == 5
    assert analysis.unattributed_ns == 50
    assert analysis.closes()


def test_concurrent_children_are_not_counted_twice():
    # Two shard probes overlap inside one scatter span: their 160ms of
    # busy time covers 80ms of wall time, and only that is attributed.
    ms = 1_000_000
    analysis = _analyse([(1, 1, 0, "op", 0, 100 * ms), (1, 2, 1, "s", 0, 100 * ms), (1, 3, 2, "p", 10 * ms, 90 * ms), (1, 4, 2, "p", 10 * ms, 90 * ms)])
    assert analysis.self_ns["p"] == 160 * ms
    assert abs(analysis.attributed_ns - 100 * ms) < 1
    assert analysis.closes()
    assert analysis.unattributed_frac() == 0.0


def test_child_outside_its_parent_fails_the_closure_check():
    ms = 1_000_000
    analysis = _analyse([(1, 1, 0, "op", 0, 100 * ms), (1, 2, 1, "a", 10 * ms, 60 * ms), (1, 3, 2, "b", 50 * ms, 200 * ms)])
    assert not analysis.closes()


if __name__ == "__main__":
    print(input_digest(sys.argv[1], int(sys.argv[2])))
