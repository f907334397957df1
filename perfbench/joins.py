"""Batch-join workloads: join-mergeopt and join-filter-par.

One operation is one join call. A workload joins each of its seeded
corpora in turn; one pass over them is a *round*, the unit that is
timed. Several corpora per round average out how much one seed's
cluster structure moves the cost. Every call's output is checked
against a second exact algorithm (and, for a pinned seed, against the
pinned fingerprints); the traced run splits the same calls by layer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from repro import JaccardPredicate, parallel_join, similarity_join

import inputs
from layers import install_join_layers
from measure import peak_rss_mb
from outcome import Outcome
from tracing import Tracer

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Set-ups (generating every corpus) per run; setup_s is the median.
SETUP_REPEATS = 9
#: Fewest rounds in the untraced phase, however long they take.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class JoinSpec:
    dataset: str
    n: int
    #: Corpora per round, generated from seeds derived from the run's.
    corpora: int
    threshold: float
    algorithm: str
    workers: int | None
    bitmap_filter: bool
    #: Second exact algorithm run in every invocation.
    reference: str
    #: Exact algorithm a fingerprint is cross-checked against when pinned.
    pin_reference: str


JOINS = {
    # MergeOpt over the full index (paper Fig. 1-2): the merge layer
    # dominates, verification is negligible. The merge work of one
    # citation corpus varies +-15% from seed to seed (how long its
    # frequent-gram lists are), hence six per round.
    "join-mergeopt": JoinSpec(
        dataset="citation-3grams",
        n=700,
        corpora=6,
        threshold=0.7,
        algorithm="probe-count-optmerge",
        workers=None,
        bitmap_filter=False,
        reference="probe-cluster",
        pin_reference="probe-cluster",
    ),
    # Dirty address data: no shared merge at all; the filter stack,
    # the bitmap checks, verification and the parallel engine's
    # prefix replay carry the work. The per-run reference is the online
    # MergeOpt variant (a quarter of the two-pass variant's time here);
    # pins are cross-checked against the two-pass variant.
    "join-filter-par": JoinSpec(
        dataset="address-3grams",
        n=2500,
        corpora=1,
        threshold=0.6,
        algorithm="positional-filter",
        workers=2,
        bitmap_filter=True,
        reference="probe-count-sort",
        pin_reference="probe-count-optmerge",
    ),
}


def fingerprint(pairs) -> str:
    """Hash of the sorted ``(rid_a, rid_b, round(sim, 12))`` triples."""
    rows = sorted((p.rid_a, p.rid_b, round(p.similarity, 12)) for p in pairs)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def load_pins() -> dict:
    try:
        with open(PINS_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def corpora(spec: JoinSpec, seed: int) -> list:
    return [
        inputs.corpus(spec.dataset, spec.n, sub)
        for sub in inputs.sub_seeds(seed, spec.corpora)
    ]


def _serial(spec: JoinSpec, dataset, predicate, algorithm=None):
    return similarity_join(
        dataset,
        predicate,
        algorithm=algorithm or spec.algorithm,
        bitmap_filter=spec.bitmap_filter if algorithm is None else None,
    )


def _call(spec: JoinSpec, dataset, predicate):
    if spec.workers:
        return parallel_join(
            dataset,
            predicate,
            algorithm=spec.algorithm,
            workers=spec.workers,
            bitmap_filter=spec.bitmap_filter,
        )
    return _serial(spec, dataset, predicate)


def _rounds(join, datasets, seconds, min_rounds, expected, out: Outcome, between=None):
    """Join every corpus per round until ``seconds`` passed and
    ``min_rounds`` were made, running ``between()`` after each round.

    Returns ``(walls, raw_walls, results)``: round wall times scaled to
    the reference machine speed, raw, and the last timed round's results.
    A call fails when it raises or its fingerprint differs from
    ``expected``; a round with a failed call is not timed.
    """
    walls, raw_walls, last = [], [], []
    rounds = 0
    started = perf_counter()
    while perf_counter() - started < seconds or rounds < min_rounds:
        rounds += 1
        out.attempted += len(datasets)
        results, raw, scaled = [], 0.0, 0.0
        try:
            # Each call is bracketed on its own: speed drifts within seconds.
            for dataset in datasets:
                result, call_raw, call_scaled = out.speed.timed(lambda: join(dataset))
                results.append(result)
                raw += call_raw
                scaled += call_scaled
        except Exception as exc:  # noqa: BLE001 — every failure is counted
            out.failed += 1
            out.errors.append(f"join raised {type(exc).__name__}: {exc}")
            continue
        wrong = sum(fingerprint(r.pairs) != want for r, want in zip(results, expected))
        if wrong:
            out.failed += wrong
            out.errors.append("join output differs from the reference algorithm")
            continue
        walls.append(scaled)
        raw_walls.append(raw)
        last = results
        if between is not None:
            between()
    return walls, raw_walls, last


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = JOINS[name]
    out = Outcome(client_threads=1, processes=1 + (spec.workers or 0))

    def set_up():
        # Repeats are spread between the timed rounds, so one burst of
        # outside load on the machine cannot slow all of them.
        data, _raw, scaled = out.speed.timed(lambda: corpora(spec, seed))
        out.setups.append(scaled)
        return data

    datasets = set_up()
    predicate = JaccardPredicate(spec.threshold)
    reference = [
        fingerprint(_serial(spec, d, predicate, spec.reference).pairs) for d in datasets
    ]
    pinned = load_pins().get(name, {}).get(str(seed))
    if pinned is not None and pinned != reference:
        out.fail(f"{spec.reference} output differs from the pinned fingerprints")

    walls, raw_walls, results = _rounds(
        lambda d: _call(spec, d, predicate),
        datasets,
        seconds / 2 if trace else seconds,
        1 if trace else MIN_ROUNDS,
        reference,
        out,
        lambda: len(out.setups) < SETUP_REPEATS and set_up(),
    )
    while len(out.setups) < SETUP_REPEATS:
        set_up()
    if walls:
        records = spec.n * spec.corpora
        wall = median(walls)
        out.report(f"records_per_s {records / wall:.1f} records/s ({len(walls)} rounds of {spec.corpora} x n={spec.n})")
        out.report(
            f"join_wall_ms {wall / spec.corpora * 1000:.1f} ms per join"
            f" (raw {median(raw_walls) / spec.corpora * 1000:.1f} ms)"
        )
        out.e2e = {
            "ops_per_s": records / wall,
            "latency_p50_ms": wall / spec.corpora * 1000.0,
        }
        if trace:
            out.layers = _traced(spec, datasets, predicate, seconds / 2, walls, results, reference, out)
            out.layers["datagen.s"] = median(out.setups) / spec.corpora
    out.finish(peak_rss_mb())
    return out


def _traced(spec, datasets, predicate, seconds, walls, results, reference, out) -> dict:
    """Layer split of the same joins from a traced run; counts and
    times are per join call.

    Spans cannot follow forked workers, so a parallel workload's split
    comes from a traced *serial* run of the same joins; the parallel
    metrics compare an untraced serial round with the 2-worker rounds.
    """
    layers = {}
    serial = lambda d: _serial(spec, d, predicate)  # noqa: E731
    if spec.workers:
        base_walls, _raw, base_results = _rounds(serial, datasets, 0.0, 3, reference, out)
        if not base_walls:
            return layers
        serial_wall, parallel_wall = median(base_walls), median(walls)
        layers["parallel.speedup"] = serial_wall / parallel_wall
        layers["parallel.replay_entry_ratio"] = sum(
            r.counters.index_entries for r in results
        ) / sum(r.counters.index_entries for r in base_results)
        layers["parallel.overhead_s"] = (parallel_wall - serial_wall / spec.workers) / spec.corpora
        untraced_wall = serial_wall
    else:
        untraced_wall = median(walls)

    tracer = Tracer()
    install_join_layers(tracer)

    def traced_call(dataset):
        with tracer.span("op"):
            return serial(dataset)

    try:
        traced_walls, traced_raw, traced_results = _rounds(
            traced_call, datasets, seconds, 1, reference, out
        )
    finally:
        tracer.uninstall()
    if not traced_walls:
        return layers
    analysis = tracer.analyse(sum(traced_walls) / sum(traced_raw))
    if not analysis.closes():
        out.fail("layer self times exceed the end-to-end time")
    ops = len(analysis.roots)
    counts = tracer.counts

    def per_op_s(layer):
        return analysis.layer_ns(layer) / ops / 1e9

    def per_call(counter):
        return sum(getattr(r.counters, counter) for r in traced_results) / len(traced_results)

    candidates = counts["merge.candidates"]
    checks = per_call("bitmap_checks")
    verifications = counts["verify.calls"]
    layers.update(
        {
            "index.entries": per_call("index_entries"),
            "index.build_s": per_op_s("core.inverted_index"),
            "merge.calls": counts["merge.calls"] / ops,
            "merge.s": per_op_s("core.merge"),
            "merge.entries_touched": counts["merge.entries"] / ops,
            "merge.candidates": candidates / ops,
            "merge.candidate_yield": counts["verify.true"] / candidates if candidates else 0.0,
            "probe_count.self_s": per_op_s("core.probe_count"),
            "positional.order_s": per_op_s("core.token_order"),
            "positional.self_s": per_op_s("core.positional_filter"),
            "positional.position_rejects": per_call("candidate_rejections_position"),
            "positional.suffix_rejects": per_call("candidate_rejections_suffix"),
            "filters.bitmap_checks": checks,
            "filters.bitmap_reject_ratio": per_call("bitmap_rejects") / checks if checks else 0.0,
            "filters.bitmap_s": per_op_s("filters"),
            "predicates.bind_s": analysis.self_ns["predicates:bind"] / ops / 1e9,
            "predicates.verify_calls": verifications / ops,
            "predicates.verify_s": analysis.self_ns["predicates:verify"] / ops / 1e9,
            "predicates.verify_yield": (
                counts["verify.true"] / verifications if verifications else 0.0
            ),
            "trace.overhead_ratio": median(traced_walls) / untraced_wall,
            "trace.unattributed_frac": analysis.unattributed_frac(),
        }
    )
    return layers


def pin(name: str, seed: int) -> list[str]:
    """Fingerprint the workload's outputs at ``seed`` after cross-checking
    them against the pin-reference algorithm; returns the fingerprints."""
    spec = JOINS[name]
    predicate = JaccardPredicate(spec.threshold)
    got = []
    for dataset in corpora(spec, seed):
        mine = fingerprint(_call(spec, dataset, predicate).pairs)
        if mine != fingerprint(_serial(spec, dataset, predicate, spec.pin_reference).pairs):
            raise SystemExit(f"{name}: {spec.algorithm} and {spec.pin_reference} disagree")
        got.append(mine)
    pins = load_pins()
    pins.setdefault(name, {})[str(seed)] = got
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return got
