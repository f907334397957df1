"""Parent-process side of the parallel sharded join engine.

``parallel_join`` shards a self-join by scan position: worker ``i`` of
``N`` owns the positions ``p`` with ``p % N == i`` of the driven scan
and emits exactly the pairs the serial algorithm emits at those
positions (every other position before its last owned one is replayed
for state; later ones are not scanned). The shards therefore
*partition* the serial pair set, and the deterministic merge below —
deduplicate on RID pair, sort by ``(rid_a, rid_b)`` — returns a result
pair-for-pair identical to :func:`repro.core.join.similarity_join` for
every supported algorithm.

Round-robin ownership rather than contiguous windows is what balances
the shards: an online scan's index grows as it advances, so a late
probe costs more than an early one, and a contiguous split hands the
last worker most of the work (naive's split is skewed the other way).

Deduplication matters beyond belt-and-braces: a worker whose memory
budget trips under the default ``degrade`` policy finishes via the
full-dataset ClusterMem fallback and reports the *complete* pair set;
the merge collapses the overlap, keeping the result exact.

Runtime integration: the parent's :class:`JoinContext` deadline is
forwarded as remaining seconds, its cancellation token is bridged to a
shared ``multiprocessing.Event``, and per-shard checkpoints live in
``<checkpoint_dir>/shard-<i>/`` (see :mod:`repro.parallel.worker` for
the resume protocol). Counters are merged with
:meth:`CostCounters.merge`; note that state-replay work (index builds)
is *performed per worker*, so merged build-side counters scale with the
worker count while probe-side counters match the serial run. Each
worker's wall time lands in ``result.extra["shard_seconds"]``.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import fields as dataclass_fields

import multiprocessing

from repro.core.join import ALGORITHMS, make_algorithm
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.predicates.base import SimilarityPredicate
from repro.runtime.errors import (
    CheckpointMismatch,
    JoinCancelled,
    JoinRuntimeError,
    JoinTimeout,
    MemoryBudgetExceeded,
    SnapshotCorrupted,
    UnsupportedConfiguration,
)
from repro.utils.counters import CostCounters

from repro.parallel.worker import clear_shard_state, run_shard

__all__ = ["PARALLEL_ALGORITHMS", "parallel_join"]

#: Registry names whose algorithms declare ``shardable``: their driven
#: scan can be split over shards. The rest are refused rather than
#: silently run serial.
PARALLEL_ALGORITHMS = frozenset(
    name for name, factory in ALGORITHMS.items() if factory().shardable
)

# How long the parent keeps polling after its own deadline before
# hard-terminating workers that failed to honour theirs.
_DEADLINE_GRACE_SECONDS = 10.0
_POLL_SECONDS = 0.05


def _counters_from_dict(payload: dict) -> CostCounters:
    """Rebuild CostCounters from the flat as_dict() wire form."""
    restored = CostCounters()
    known = {f.name for f in dataclass_fields(CostCounters)} - {"extra"}
    for key, value in payload.items():
        if key in known:
            setattr(restored, key, value)
        else:
            restored.extra[key] = value
    return restored


def _mp_context():
    """Fork when the platform has it (shares the dataset copy-on-write
    and keeps launch cheap); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _raise_shard_error(errors: dict, context) -> None:
    """Re-raise the most meaningful shard failure as its structured type.

    Real faults outrank resource trips, which outrank interruptions —
    sibling shards are cancelled as soon as one fails, so 'cancelled'
    reports are usually just collateral of the primary error.
    """
    by_kind: dict[str, dict] = {}
    for kind, payload in errors.values():
        by_kind.setdefault(kind, payload)
    if "unsupported" in by_kind:
        raise UnsupportedConfiguration(by_kind["unsupported"]["message"])
    if "crash" in by_kind:
        raise JoinRuntimeError(
            f"parallel join worker crashed: {by_kind['crash']['message']}"
        )
    if "corrupt" in by_kind:
        payload = by_kind["corrupt"]
        raise SnapshotCorrupted(payload["path"], payload["detail"])
    if "checkpoint" in by_kind:
        raise CheckpointMismatch(by_kind["checkpoint"]["message"])
    if "memory" in by_kind:
        payload = by_kind["memory"]
        raise MemoryBudgetExceeded(payload["entries"], payload["budget"])
    if "timeout" in by_kind:
        payload = by_kind["timeout"]
        if context is not None and context.deadline_seconds is not None:
            raise JoinTimeout(context.elapsed(), context.deadline_seconds)
        raise JoinTimeout(payload["elapsed"], payload["deadline"])
    if "cancelled" in by_kind:
        if context is not None:
            # The parent trips the shared cancel event when its own
            # deadline expires, so workers may observe "cancelled"
            # before their local deadline fires; report the true cause.
            remaining = context.remaining()
            if remaining is not None and remaining <= 0:
                raise JoinTimeout(context.elapsed(), context.deadline_seconds)
            if context.cancel_token.cancelled:
                raise JoinCancelled(context.cancel_token.reason)
        raise JoinCancelled(by_kind["cancelled"]["reason"])
    raise JoinRuntimeError(f"parallel join failed: {errors!r}")  # pragma: no cover


def parallel_join(
    dataset: Dataset,
    predicate: SimilarityPredicate,
    algorithm: str = "probe-count-optmerge",
    workers: int | None = None,
    context=None,
    batch_size: int = 4096,
    **kwargs,
) -> JoinResult:
    """Exact similarity self-join, sharded over worker processes.

    Pair-for-pair identical to ``similarity_join(dataset, predicate,
    algorithm)`` — same pairs, same similarities — with pairs returned
    in deterministic ``(rid_a, rid_b)`` order.

    Args:
        dataset: the tokenized records (pickled/forked to workers).
        predicate: the join condition.
        algorithm: a member of :data:`PARALLEL_ALGORITHMS`.
        workers: shard count; defaults to ``os.cpu_count()``. Clamped
            to the record count so every worker owns a position.
        context: optional :class:`~repro.runtime.context.JoinContext`.
            Deadline and cancellation propagate to every worker; a
            checkpointer makes each shard resumable under
            ``<directory>/shard-<i>/`` (resume with the *same* worker
            count — a different count is refused).
        batch_size: pairs per queue message when streaming results.
        kwargs: algorithm construction options.

    Raises the same structured errors as a serial join; on
    interruption every worker has flushed its shard checkpoint (when
    configured), so re-invoking with the same arguments resumes.
    :class:`UnsupportedConfiguration` for a non-``shardable`` algorithm
    or an undeclared knob comes before any worker starts.
    """
    # Built once here, before any worker starts, so an unknown kwarg or
    # an unsupported knob fails in the caller's process.
    instance = make_algorithm(algorithm, **kwargs)
    if not instance.shardable:
        raise UnsupportedConfiguration(
            f"algorithm {algorithm!r} does not support sharded execution;"
            f" expected one of {sorted(PARALLEL_ALGORITHMS)}"
            " (run it serially via similarity_join)"
        )
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    workers = max(1, min(workers, len(dataset)))

    start = time.perf_counter()
    if context is not None:
        context.start()
        if context.cancel_token.cancelled:
            raise JoinCancelled(context.cancel_token.reason)
        remaining = context.remaining()
        if remaining is not None and remaining <= 0:
            raise JoinTimeout(context.elapsed(), context.deadline_seconds)
    else:
        remaining = None

    merged_counters = CostCounters()
    if len(dataset) == 0:
        merged_counters.extra["parallel_workers"] = workers
        return JoinResult(
            pairs=[],
            algorithm=f"parallel({algorithm}, workers={workers})",
            predicate=predicate.name,
            counters=merged_counters,
            elapsed_seconds=time.perf_counter() - start,
            extra={"shard_seconds": []},  # no worker started
        )

    checkpoint_base = None
    checkpoint_interval = 1000
    if context is not None and context.checkpointer is not None:
        checkpoint_base = context.checkpointer.directory
        checkpoint_interval = context.checkpointer.interval_records

    mp_ctx = _mp_context()
    cancel_event = mp_ctx.Event()
    result_queue = mp_ctx.Queue()
    processes = []
    for shard in range(workers):
        spec = {
            "shard": shard,
            "n_shards": workers,
            "dataset": dataset,
            "predicate": predicate,
            "algorithm": instance,
            "batch_size": batch_size,
            "deadline_seconds": remaining,
            "memory_budget_entries": (
                context.memory_budget_entries if context is not None else None
            ),
            "on_memory_exceeded": (
                context.on_memory_exceeded if context is not None else "degrade"
            ),
            "checkpoint_dir": (
                os.path.join(checkpoint_base, f"shard-{shard}")
                if checkpoint_base is not None
                else None
            ),
            "checkpoint_interval": checkpoint_interval,
        }
        process = mp_ctx.Process(
            target=run_shard,
            args=(spec, result_queue, cancel_event),
            name=f"repro-join-shard-{shard}",
            daemon=True,
        )
        process.start()
        processes.append(process)

    pending = set(range(workers))
    pair_map: dict[tuple[int, int], MatchPair] = {}
    errors: dict[int, tuple[str, dict]] = {}
    infos: dict[int, dict] = {}

    def _handle(message) -> None:
        kind = message[0]
        shard = message[1]
        if kind == "pairs":
            for rid_a, rid_b, similarity in message[2]:
                key = (rid_a, rid_b)
                if key not in pair_map:
                    pair_map[key] = MatchPair(rid_a, rid_b, similarity)
        elif kind == "done":
            merged_counters.merge(_counters_from_dict(message[2]))
            infos[shard] = message[3]
            pending.discard(shard)
        elif kind == "error":
            errors[shard] = (message[2], message[3])
            pending.discard(shard)
            cancel_event.set()  # no point finishing sibling shards

    try:
        while pending:
            if (
                context is not None
                and context.cancel_token.cancelled
                and not cancel_event.is_set()
            ):
                cancel_event.set()
            overdue = (
                context is not None
                and context.remaining() is not None
                and context.remaining() <= 0
            )
            if overdue and not cancel_event.is_set():
                cancel_event.set()
            if (
                context is not None
                and context.remaining() is not None
                and context.remaining() < -_DEADLINE_GRACE_SECONDS
            ):
                # Workers should have timed out on their own by now;
                # assume they are wedged and reclaim them.
                for process in processes:
                    if process.is_alive():
                        process.terminate()
                raise JoinTimeout(context.elapsed(), context.deadline_seconds)
            try:
                _handle(result_queue.get(timeout=_POLL_SECONDS))
                continue
            except queue_module.Empty:
                pass
            dead = [
                shard for shard in pending if not processes[shard].is_alive()
            ]
            if dead:
                # The exited worker's messages may still be in flight;
                # drain before declaring it crashed.
                try:
                    while True:
                        _handle(result_queue.get_nowait())
                except queue_module.Empty:
                    pass
                for shard in dead:
                    if shard in pending:
                        exitcode = processes[shard].exitcode
                        errors[shard] = (
                            "crash",
                            {"message": f"worker exited with code {exitcode}"},
                        )
                        pending.discard(shard)
                        cancel_event.set()
    finally:
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=1.0)
        result_queue.close()
        result_queue.join_thread()

    if errors:
        _raise_shard_error(errors, context)

    pairs = [pair_map[key] for key in sorted(pair_map)]
    merged_counters.pairs_output = len(pairs)
    merged_counters.extra["parallel_workers"] = workers

    degraded_from = None
    degradation_reason = None
    for shard in sorted(infos):
        info = infos[shard]
        if info.get("degraded_from") and degraded_from is None:
            degraded_from = info["degraded_from"]
            degradation_reason = (
                f"shard {shard}: {info.get('degradation_reason')}"
            )

    if checkpoint_base is not None:
        for shard in range(workers):
            clear_shard_state(os.path.join(checkpoint_base, f"shard-{shard}"))
        context.checkpointer.clear()

    return JoinResult(
        pairs=pairs,
        algorithm=f"parallel({algorithm}, workers={workers})",
        predicate=predicate.name,
        counters=merged_counters,
        elapsed_seconds=time.perf_counter() - start,
        degraded_from=degraded_from,
        degradation_reason=degradation_reason,
        extra={
            "shard_seconds": [
                infos[shard]["elapsed_seconds"] for shard in range(workers)
            ]
        },
    )
