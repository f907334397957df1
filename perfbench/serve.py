"""Serving workloads: serve-mixed and serve-remote.

Both are closed loops: each client thread sends its next operation only
after the previous one returned. Latency is measured by the client,
around the public calls (``submit(...).result()`` and
``SimilarityIndex.add``). A seeded sample of query answers is kept and
re-verified by brute force after the timed loop.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import median
from time import perf_counter, perf_counter_ns

from repro import JaccardPredicate, SimilarityIndex
from repro.serving import IndexServer, ShardedIndexServer

import inputs
from layers import install_serve_layers
from measure import highest_supported, min_samples, peak_rss_mb, percentile, supports
from outcome import Outcome
from tracing import NullTracer, Tracer

NODE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "node.py")

#: Index/server/node builds per run; setup_s is the median.
SETUP_REPEATS = 7
#: Client-side bound on one operation; exceeding it is a failure.
OP_TIMEOUT = 30.0
#: One query answer in this many is kept for re-verification.
SAMPLE_EVERY = 16
#: The closed loop pauses for a machine-speed sample this often ...
SEGMENT_S = 1.0
#: ... and throughput is counted per window of this many seconds ...
WINDOW_S = 0.5
#: ... and reported as the median window when there are this many.
MIN_WINDOWS = 8


@dataclass(frozen=True)
class MixedSpec:
    n: int = 4000
    holdout: int = 1500
    clients: int = 2
    stream_length: int = 6000
    add_share: float = 0.1
    zipf_s: float = 0.8
    threshold: float = 0.7
    workers: int = 2
    cache: int = 512


@dataclass(frozen=True)
class RemoteSpec:
    n: int = 4000
    passes: int = 3
    threshold: float = 0.8
    shards: int = 2
    workers: int = 2
    shard_workers: int = 2


MIXED = MixedSpec()
REMOTE = RemoteSpec()


@dataclass
class ClientLog:
    """One client's record; the per-phase fields are taken by
    :func:`_phase`, ``position`` and the answer records carry over."""

    position: int = 0
    queries: list = field(default_factory=list)
    adds: list = field(default_factory=list)
    #: perf_counter() at the end of every successful operation.
    ends: list = field(default_factory=list)
    failures: int = 0
    errors: list = field(default_factory=list)
    #: (query tokens, [(rid, similarity), ...]) of sampled answers.
    samples: list = field(default_factory=list)
    #: rid -> tokens of every acknowledged add.
    added: dict = field(default_factory=dict)

    def failed(self, what: str) -> None:
        self.failures += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def take(self):
        taken = (self.queries, self.adds, self.ends, self.failures, self.errors)
        self.queries, self.adds, self.ends, self.failures, self.errors = [], [], [], 0, []
        return taken


@dataclass
class Phase:
    """Client-observed latencies (ns), wall time, and the operation rate
    of each whole window of one closed-loop phase, all scaled to the
    reference machine speed."""

    wall: float
    queries: list
    adds: list
    windows: list
    raw_wall: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Median over whole windows, so a burst of outside load on the
        machine moves it less than a whole-phase average would."""
        if len(self.windows) >= MIN_WINDOWS:
            return median(self.windows)
        return (len(self.queries) + len(self.adds)) / self.wall

    def __add__(self, other: "Phase") -> "Phase":
        return Phase(
            self.wall + other.wall,
            self.queries + other.queries,
            self.adds + other.adds,
            self.windows + other.windows,
            self.raw_wall + other.raw_wall,
        )


@dataclass
class Traced:
    tracer: Tracer
    analysis: object
    phase: Phase
    #: ``probe()`` snapshots taken just before and after the phase.
    before: dict
    after: dict


def _query(server, tokens, tracer):
    """One client query through the server's public submit path."""
    item = list(tokens)
    with tracer.span("serving.server"):
        tracer.handoff(item)
        try:
            return server.submit(item).result(timeout=OP_TIMEOUT)
        finally:
            tracer.release(item)


def _run_clients(target, logs, seconds: float) -> tuple[float, float]:
    """Run one closed-loop thread per log for ``seconds``; returns the
    start time and the wall time."""
    deadline = perf_counter() + seconds
    threads = [
        threading.Thread(target=target, args=(cid, log, deadline), daemon=True)
        for cid, log in enumerate(logs)
    ]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * OP_TIMEOUT)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    return started, perf_counter() - started


def _sampled(position: int, cid: int, seed: int) -> bool:
    return (position + cid + seed) % SAMPLE_EVERY == 0


# ----------------------------------------------------------------------
# Re-verification
# ----------------------------------------------------------------------


class Checker:
    """Brute-force Jaccard over the pre-stream corpus, bucketed by size."""

    def __init__(self, records, threshold: float):
        self.f = Fraction(str(threshold))
        self.sets = [frozenset(record) for record in records]
        self.by_size: dict[int, list[int]] = {}
        for rid, tokens in enumerate(self.sets):
            self.by_size.setdefault(len(tokens), []).append(rid)

    def matches(self, query: frozenset) -> set:
        m = len(query)
        lo, hi = self.f * m, m / self.f
        found = set()
        for size, rids in self.by_size.items():
            if lo <= size <= hi:
                for rid in rids:
                    if self.qualifies(query, self.sets[rid]):
                        found.add(rid)
        return found

    def qualifies(self, query: frozenset, record) -> bool:
        inter = len(query & record)
        union = len(query) + len(record) - inter
        return inter * self.f.denominator >= self.f.numerator * union

    def wrong_answers(self, samples, added: dict, exact: bool) -> list[str]:
        """Every returned match must verify exactly; no match against
        the pre-stream corpus may be missing (``exact``: and nothing
        beyond it may be returned)."""
        problems = []
        for tokens, answer in samples:
            query = frozenset(tokens)
            returned = set()
            for rid, similarity in answer:
                if rid < len(self.sets):
                    record = self.sets[rid]
                elif rid in added:
                    record = frozenset(added[rid])
                else:
                    problems.append(f"match with unknown rid {rid}")
                    continue
                inter = len(query & record)
                union = len(query) + len(record) - inter
                if not self.qualifies(query, record) or abs(similarity - inter / union) > 1e-12:
                    problems.append(f"rid {rid} returned with similarity {similarity!r}")
                if rid < len(self.sets):
                    returned.add(rid)
            expected = self.matches(query)
            if expected - returned:
                problems.append(f"missing matches {sorted(expected - returned)[:5]}")
            if exact and returned - expected:
                problems.append(f"unexpected matches {sorted(returned - expected)[:5]}")
        return problems


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------


def _ms(values_ns, p: float) -> float:
    return percentile(values_ns, p) / 1e6 if values_ns else 0.0


def _report_latency(out: Outcome, name: str, values_ns, tail: float) -> None:
    """p50, the named tail and the highest percentile the sample
    supports, each with the sample count; the named tail is refused
    unless at least 10 observations lie beyond it."""
    n = len(values_ns)
    if not n:
        out.report(f"{name}_p50_ms refused (no samples)")
        return
    out.report(f"{name}_p50_ms {_ms(values_ns, 50):.3f} ms (n={n})")
    label = f"{name}_p{tail:g}_ms"
    if supports(n, tail):
        out.report(f"{label} {_ms(values_ns, tail):.3f} ms (n={n})")
    else:
        out.report(f"{label} refused: {n} samples < {min_samples(tail)}")
    highest = highest_supported(n)
    if highest is not None and highest != tail:
        out.report(f"{name}_p{highest:g}_ms {_ms(values_ns, highest):.3f} ms (n={n})")


def _queue_ms(analysis, executor: str) -> list[int]:
    """Per query: client-side server span minus the worker's execution."""
    waits = []
    for s in analysis.spans:
        if s.layer != "serving.server":
            continue
        for child in analysis.children.get(s.sid, ()):
            if child.layer == executor:
                waits.append((s.end - s.start) - (child.end - child.start))
    return waits


def _common_layers(traced: Traced, untraced: Phase, executor: str) -> dict:
    """Layer metrics every serving workload reports from its trace."""
    analysis, tracer = traced.analysis, traced.tracer
    ops = len(analysis.roots)
    counts = tracer.counts
    candidates = counts["merge.candidates"]
    verifications = counts["verify.calls"]
    queue = analysis.scaled(_queue_ms(analysis, executor))
    reads = analysis.scaled(tracer.samples["rwlock.read_wait"])
    writes = analysis.scaled(tracer.samples["rwlock.write_wait"])

    def per_op_s(name):
        return analysis.layer_ns(name) / ops / 1e9

    return {
        "merge.calls": counts["merge.calls"] / ops,
        "merge.s": per_op_s("core.merge"),
        "merge.entries_touched": counts["merge.entries"] / ops,
        "merge.candidates": candidates / ops,
        "merge.candidate_yield": counts["verify.true"] / candidates if candidates else 0.0,
        "predicates.bind_s": analysis.self_ns["predicates:bind"] / ops / 1e9,
        "predicates.verify_calls": verifications / ops,
        "predicates.verify_s": analysis.self_ns["predicates:verify"] / ops / 1e9,
        "predicates.verify_yield": counts["verify.true"] / verifications if verifications else 0.0,
        "service.query_ms_p50": _ms(analysis.durations("core.service:query"), 50),
        "service.add_ms_p50": _ms(analysis.durations("core.service:add"), 50),
        "service.self_s": per_op_s("core.service"),
        "rwlock.read_wait_ms_p99": _ms(reads, 99),
        "rwlock.write_wait_ms_p90": _ms(writes, 90),
        "server.queue_ms_p50": _ms(queue, 50),
        "server.queue_ms_p99": _ms(queue, 99),
        "server.shed": traced.after["shed"] - traced.before["shed"],
        "trace.overhead_ratio": untraced.ops_per_s / traced.phase.ops_per_s,
        "trace.unattributed_frac": analysis.unattributed_frac(),
    }


def _phase(out: Outcome, logs, target, seconds: float) -> Phase:
    """Run the closed loop in segments of SEGMENT_S, sampling machine
    speed between segments (clients idle); every latency, wall and
    window rate is scaled by its segment's speed factor."""
    phase = Phase(0.0, [], [], [])
    remaining = seconds
    while remaining > 1e-6:
        before = out.speed.sample()
        started, wall = _run_clients(target, logs, min(SEGMENT_S, remaining))
        factor = out.speed.factor(before, out.speed.sample())
        remaining -= wall
        counts = [0] * int(wall / WINDOW_S)
        for log in logs:
            q, a, ends, failures, errors = log.take()
            phase.queries += [ns * factor for ns in q]
            phase.adds += [ns * factor for ns in a]
            for end in ends:
                slot = int((end - started) / WINDOW_S)
                if slot < len(counts):
                    counts[slot] += 1
            out.attempted += len(q) + len(a) + failures
            out.failed += failures
            out.errors.extend(errors)
        phase.wall += wall * factor
        phase.raw_wall += wall
        phase.windows += [count / (WINDOW_S * factor) for count in counts]
    return phase


def _measure(out: Outcome, logs, client, seconds: float, trace: bool, probe):
    """The closed loop, untraced; with ``trace`` it runs untraced for a
    quarter, traced for half, untraced for the last quarter, so drift
    over the run (the index grows with every add) cancels out of the
    traced-to-untraced overhead ratio."""
    null = NullTracer()

    def untraced(cid, log, deadline):
        client(cid, log, deadline, null)

    if not trace:
        return _phase(out, logs, untraced, seconds), None
    first = _phase(out, logs, untraced, seconds / 4)
    tracer = Tracer()
    before = probe()
    install_serve_layers(tracer)
    try:
        traced = _phase(out, logs, lambda cid, log, deadline: client(cid, log, deadline, tracer), seconds / 2)
    finally:
        tracer.uninstall()
    after = probe()
    last = _phase(out, logs, untraced, seconds / 4)
    analysis = tracer.analyse(traced.wall / traced.raw_wall)
    if not analysis.closes():
        out.fail("layer self times exceed the end-to-end time")
    return first + last, Traced(tracer, analysis, traced, before, after)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def mixed_data(seed: int) -> inputs.MixedInputs:
    spec = MIXED
    return inputs.mixed_inputs(
        seed, spec.n, spec.holdout, spec.clients, spec.stream_length, spec.add_share, spec.zipf_s
    )


def remote_data(seed: int) -> inputs.RemoteInputs:
    return inputs.remote_inputs(seed, REMOTE.n, REMOTE.passes)


def _mixed_setup(seed: int):
    spec = MIXED
    t0 = perf_counter()
    data = mixed_data(seed)
    t1 = perf_counter()
    index = SimilarityIndex(JaccardPredicate(spec.threshold))
    for record in data.records:
        index.add(record)
    t2 = perf_counter()
    server = IndexServer(index, workers=spec.workers, query_cache=spec.cache).start()
    return data, index, server, {"setup": perf_counter() - t0, "datagen": t1 - t0, "build": t2 - t1}


def run_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    spec = MIXED
    out = Outcome(client_threads=spec.clients, processes=1)
    timings = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.drain(timeout=OP_TIMEOUT)
            before = out.speed.sample()
            data, index, server, timing = _mixed_setup(seed)
            factor = out.speed.factor(before, out.speed.sample())
            timings.append({k: v * factor for k, v in timing.items()})
        logs = [ClientLog() for _ in range(spec.clients)]

        def client(cid, log, deadline, tracer):
            stream = data.streams[cid]
            while perf_counter() < deadline:
                kind, tokens = stream[log.position % len(stream)]
                sampled = _sampled(log.position, cid, seed)
                log.position += 1
                t0 = perf_counter_ns()
                try:
                    with tracer.span("op"):
                        if kind == "query":
                            answer = _query(server, tokens, tracer)
                        else:
                            rid = index.add(tokens)
                except Exception as exc:  # noqa: BLE001 — counted as a failure
                    log.failed(f"{kind} raised {type(exc).__name__}: {exc}")
                    continue
                elapsed = perf_counter_ns() - t0
                if kind == "query":
                    log.queries.append(elapsed)
                    if sampled:
                        log.samples.append((tokens, [(m.rid_a, m.similarity) for m in answer]))
                else:
                    log.adds.append(elapsed)
                    log.added[rid] = tokens
                log.ends.append(perf_counter())

        def probe():
            return {"cache": server.cache.stats(), "shed": server.health()["shed"]}

        untraced, traced = _measure(out, logs, client, seconds, trace, probe)
        cache = server.cache.stats()
        out.report(f"cache_hit_ratio {cache['hit_rate']:.4f} (whole run)")
        _report_latency(out, "query", untraced.queries, 99.0)
        _report_latency(out, "add", untraced.adds, 90.0)
        out.report(
            f"ops_per_s {untraced.ops_per_s:.2f} ops/s"
            f" ({len(untraced.queries)} queries, {len(untraced.adds)} adds)"
        )
        out.setups = [t["setup"] for t in timings]
        out.e2e = {
            "ops_per_s": untraced.ops_per_s,
            "latency_p50_ms": _ms(untraced.queries, 50),
        }
        if traced is not None:
            before, after = traced.before["cache"], traced.after["cache"]
            hits = after["hits"] - before["hits"]
            lookups = hits + after["misses"] - before["misses"]
            out.layers = _common_layers(traced, untraced, "serving.server:execute")
            out.layers.update(
                {
                    "datagen.s": median(t["datagen"] for t in timings),
                    "index.entries": index.counters.index_entries,
                    "index.build_s": median(t["build"] for t in timings),
                    "cache.hit_ratio": hits / lookups if lookups else 0.0,
                    "cache.invalidations": after["invalidations"] - before["invalidations"],
                }
            )
    finally:
        if server is not None:
            server.drain(timeout=OP_TIMEOUT)

    checker = Checker(data.records, spec.threshold)
    added = {rid: tokens for log in logs for rid, tokens in log.added.items()}
    samples = [sample for log in logs for sample in log.samples]
    for problem in checker.wrong_answers(samples, added, exact=False):
        out.fail(f"wrong answer: {problem}")
    out.report(f"verified {len(samples)} sampled answers")
    out.finish(peak_rss_mb())
    return out


# ----------------------------------------------------------------------
# serve-remote
# ----------------------------------------------------------------------


class Node:
    """One shard node: ``node.py`` in its own process on loopback."""

    def __init__(self, threshold: float, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, NODE_SCRIPT, "--threshold", str(threshold), "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        box = []
        reader = threading.Thread(target=lambda: box.append(self.proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(timeout)
        if not box or not box[0].startswith("port "):
            raise RuntimeError(f"shard node did not start: {box!r}")
        self.port = int(box[0].split()[1])

    def stop(self) -> dict:
        """Close the node's stdin (its stop signal) and collect its report."""
        report = {}
        try:
            self.proc.stdin.close()
            lines = self.proc.stdout.read().splitlines()
            self.proc.wait(timeout=OP_TIMEOUT)
            if lines:
                report = json.loads(lines[-1])
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return report


def _remote_setup(seed: int, trace: bool):
    spec = REMOTE
    t0 = perf_counter()
    data = remote_data(seed)
    t1 = perf_counter()
    nodes = [Node(spec.threshold, trace) for _ in range(spec.shards)]
    front = None
    try:
        for node in nodes:
            node.wait_ready()
        front = ShardedIndexServer(
            JaccardPredicate(spec.threshold),
            shards=spec.shards,
            workers=spec.workers,
            shard_workers=spec.shard_workers,
            shard_endpoints=[f"127.0.0.1:{node.port}" for node in nodes],
        )
        t2 = perf_counter()
        for record in data.records:
            front.add(record)
        t3 = perf_counter()
        front.start()
    except BaseException:
        _stop_remote(nodes, front)
        raise
    timing = {"setup": perf_counter() - t0, "datagen": t1 - t0, "build": t3 - t2}
    return data, nodes, front, timing


def _stop_remote(nodes, front) -> list[dict]:
    if front is not None:
        front.drain(timeout=OP_TIMEOUT)
    return [node.stop() for node in nodes]


def run_remote(seed: int, seconds: float, trace: bool) -> Outcome:
    spec = REMOTE
    out = Outcome(client_threads=1, processes=1 + spec.shards)
    timings = []
    nodes, front = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if front is not None:
                _stop_remote(nodes, front)
            before = out.speed.sample()
            data, nodes, front, timing = _remote_setup(seed, trace)
            factor = out.speed.factor(before, out.speed.sample())
            timings.append({k: v * factor for k, v in timing.items()})
        logs = [ClientLog()]

        def client(cid, log, deadline, tracer):
            while perf_counter() < deadline:
                tokens = data.queries[log.position % len(data.queries)]
                sampled = _sampled(log.position, cid, seed)
                log.position += 1
                t0 = perf_counter_ns()
                try:
                    with tracer.span("op"):
                        result = _query(front, tokens, tracer)
                except Exception as exc:  # noqa: BLE001 — counted as a failure
                    log.failed(f"query raised {type(exc).__name__}: {exc}")
                    continue
                elapsed = perf_counter_ns() - t0
                if result.partial:
                    log.failed(f"partial result: shards {result.shards_failed} lost")
                    continue
                log.queries.append(elapsed)
                log.ends.append(perf_counter())
                if sampled:
                    log.samples.append((tokens, [(m.rid_a, m.similarity) for m in result]))

        def probe():
            return front.health()

        untraced, traced = _measure(out, logs, client, seconds, trace, probe)
        _report_latency(out, "query", untraced.queries, 99.0)
        out.report(f"ops_per_s {untraced.ops_per_s:.2f} ops/s ({len(untraced.queries)} queries)")
        out.setups = [t["setup"] for t in timings]
        out.e2e = {
            "ops_per_s": untraced.ops_per_s,
            "latency_p50_ms": _ms(untraced.queries, 50),
        }
        if traced is not None:
            analysis, before, after = traced.analysis, traced.before, traced.after
            gathers = []
            for s in analysis.spans:
                if s.layer == "serving.sharded":
                    probes = [c.end - c.start for c in analysis.children.get(s.sid, ())]
                    if probes:
                        gathers.append((s.end - s.start) - max(probes))
            out.layers = _common_layers(traced, untraced, "serving.sharded")
            out.layers.update(
                {
                    "datagen.s": median(t["datagen"] for t in timings),
                    "index.entries": front.counters_snapshot().get("index_entries", 0),
                    "index.build_s": median(t["build"] for t in timings),
                    "sharded.shard_ms_p50": _ms(analysis.durations("serving.sharded:probe"), 50),
                    "sharded.gather_ms_p50": _ms(analysis.scaled(gathers), 50),
                    "sharded.hedges": after["hedging"]["issued"] - before["hedging"]["issued"],
                    "transport.retries": sum(r["retries"] for r in after["shards"])
                    - sum(r["retries"] for r in before["shards"]),
                    "transport.reconnects": after["reconnects"] - before["reconnects"],
                }
            )
    finally:
        reports = _stop_remote(nodes, front)

    if traced is not None:
        out.layers.update(_wire_layers(traced, reports))
    checker = Checker(data.records, spec.threshold)
    for problem in checker.wrong_answers(logs[0].samples, {}, exact=True):
        out.fail(f"wrong answer: {problem}")
    out.report(f"verified {len(logs[0].samples)} sampled answers")
    out.finish(peak_rss_mb())
    return out


def _wire_layers(traced: Traced, reports) -> dict:
    """Split each shard round trip into node compute and the rest.

    Each node reports its query times in arrival order, one per front-end
    probe of its shard (no retries or hedges here), so the probe counts
    before and after the traced phase delimit that phase's node times,
    pair for pair with the traced round trips. When the counts disagree
    the medians are subtracted instead.
    """
    rtt_all, node_all, wire = [], [], []
    rows = zip(traced.before["shards"], traced.after["shards"], reports)
    for before, after, report in rows:
        trips = traced.tracer.samples.get("rtt:" + after["endpoint"], [])
        served = report.get("query_ns", [])[before["probes"]:after["probes"]]
        rtt_all.extend(trips)
        node_all.extend(served)
        if trips and len(served) == len(trips):
            wire.extend(r - s for r, s in zip(trips, served))
    scaled = traced.analysis.scaled
    layers = {
        "transport.rtt_ms_p50": _ms(scaled(rtt_all), 50),
        "service.query_ms_p50": _ms(scaled(node_all), 50),
    }
    layers["transport.wire_ms_p50"] = (
        _ms(scaled(wire), 50)
        if wire
        else layers["transport.rtt_ms_p50"] - layers["service.query_ms_p50"]
    )
    return layers
