"""Worker-process side of the parallel sharded join engine.

Each worker runs one shard of the self-join on its own copy of the
algorithm instance the parent built and checked: the driven scan with
:meth:`~repro.core.base.SetJoinAlgorithm.set_shard` restricting pair
emission to the positions the shard owns (``p % n_shards == shard``).
State-building work (index inserts, cluster assignment) is replayed for
every other position up to the last owned one, so every worker sees
exactly the serial algorithm's state and its emitted pairs are exactly
the serial pairs of its positions.

Communication with the parent is a single message queue:

* ``("pairs", shard, [(rid_a, rid_b, similarity), ...])`` — result
  batches, streamed as soon as the shard finishes (capped at the
  engine's ``batch_size`` per message);
* ``("done", shard, counters_dict, info_dict)`` — terminal success;
* ``("error", shard, kind, payload)`` — terminal failure, where
  ``kind`` names the structured runtime error so the parent can
  re-raise the right type without unpickling exception objects.

Cancellation flows parent -> worker through a shared
``multiprocessing.Event`` wrapped in an :class:`EventCancellationToken`;
deadlines are passed as the *remaining* seconds at launch and anchored
in the worker's own :class:`~repro.runtime.context.JoinContext`.

When the parent context has a checkpointer, each shard checkpoints into
its own subdirectory, with the shard geometry baked into the algorithm
name (``probe-count@shard2%4``) so a resume with a different worker
count, or of a checkpoint written under the older contiguous-window
geometry (``probe-count@shard2.4``), is refused by
:meth:`JoinCheckpointer.validate` instead of silently producing wrong
pairs. A shard that completes while a sibling is interrupted persists
its finished result as a *done marker* snapshot, so resuming the whole
parallel join replays nothing for already-finished shards.
"""

from __future__ import annotations

import os
import signal
import time

from repro.runtime.checkpoint import JoinCheckpointer, dataset_fingerprint
from repro.runtime.context import CancellationToken, JoinContext
from repro.runtime.errors import (
    CheckpointMismatch,
    JoinCancelled,
    JoinTimeout,
    MemoryBudgetExceeded,
    SnapshotCorrupted,
    UnsupportedConfiguration,
)
from repro.runtime.snapshot import read_snapshot, write_snapshot

__all__ = ["EventCancellationToken", "run_shard", "shard_algorithm_name"]

DONE_MARKER_KIND = "parallel-shard-result"
DONE_MARKER_FILENAME = "shard-done.snap"


class EventCancellationToken(CancellationToken):
    """A cancellation token backed by a shared multiprocessing Event.

    The worker's join loop polls :attr:`cancelled` once per record; the
    parent trips the event from its own process to stop all workers.
    Local ``cancel()`` calls still work (they set the process-local
    latch without touching the shared event).
    """

    __slots__ = ("_event",)

    def __init__(self, event) -> None:
        super().__init__()
        self._event = event

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        if self._event.is_set():
            # Latch locally so the reason survives even if the parent
            # clears the event, and repeat polls skip the IPC check.
            self._cancelled = True
            self.reason = "cancelled by parallel-join parent"
            return True
        return False


def shard_algorithm_name(base_name: str, shard: int, n_shards: int) -> str:
    """Checkpoint identity of one shard of a parallel join.

    ``probe-count@shard2%4`` reads "the positions ``p % 4 == 2``".
    Embedding the shard geometry means a checkpoint written by shard 2
    of 4 can never be resumed as shard 2 of 8 — the owned positions
    differ, so the pair set would be wrong. The ``%`` also sets these
    names apart from the ``@shard2.4`` of contiguous-window shards,
    whose checkpoints must not resume under round-robin ownership.
    ``validate()`` compares names exactly.
    """
    return f"{base_name}@shard{shard}%{n_shards}"


def _done_marker_path(checkpoint_dir: str) -> str:
    return os.path.join(checkpoint_dir, DONE_MARKER_FILENAME)


def _load_done_marker(checkpoint_dir: str, meta: dict):
    """A previously-finished shard result, or None.

    Raises :class:`CheckpointMismatch` when a marker exists but belongs
    to a different invocation (changed dataset, predicate, or shard
    geometry) — resuming past it would silently drop that shard's
    pairs.
    """
    try:
        payload = read_snapshot(_done_marker_path(checkpoint_dir), kind=DONE_MARKER_KIND)
    except FileNotFoundError:
        return None
    mismatches = [
        f"{key} {payload.get(key)!r} != {expected!r}"
        for key, expected in meta.items()
        if payload.get(key) != expected
    ]
    if mismatches:
        raise CheckpointMismatch(
            "shard result marker belongs to a different parallel join: "
            + "; ".join(mismatches)
        )
    return payload


def _write_done_marker(checkpoint_dir: str, meta: dict, pairs, counters, info) -> None:
    payload = dict(meta)
    payload["pairs"] = pairs
    payload["counters"] = counters
    payload["info"] = info
    write_snapshot(_done_marker_path(checkpoint_dir), payload, kind=DONE_MARKER_KIND)


def clear_shard_state(checkpoint_dir: str) -> None:
    """Drop one shard's checkpoint + done marker (parallel join done)."""
    for path in (
        _done_marker_path(checkpoint_dir),
        os.path.join(checkpoint_dir, "join.ckpt"),
    ):
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
    try:
        os.rmdir(checkpoint_dir)
    except OSError:
        pass


def _stream_result(queue, shard: int, pairs, counters, info, batch_size: int) -> None:
    for start in range(0, len(pairs), batch_size):
        queue.put(("pairs", shard, pairs[start : start + batch_size]))
    queue.put(("done", shard, counters, info))


def run_shard(spec: dict, queue, cancel_event) -> None:
    """Process entry point: run one shard and report over ``queue``.

    Never raises — every outcome becomes a terminal queue message, so
    the parent's poll loop is the single place failures are interpreted.
    """
    try:
        # The terminal's Ctrl+C goes to the whole process group; the
        # parent translates it into the cancel event, which is the only
        # interruption channel workers honour (a raw KeyboardInterrupt
        # mid-queue-put could tear the message stream).
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    shard = spec["shard"]
    try:
        _run_shard(spec, queue, cancel_event)
    except JoinTimeout as exc:
        queue.put(
            ("error", shard, "timeout", {"elapsed": exc.elapsed, "deadline": exc.deadline})
        )
    except JoinCancelled as exc:
        queue.put(("error", shard, "cancelled", {"reason": exc.reason}))
    except MemoryBudgetExceeded as exc:
        queue.put(
            ("error", shard, "memory", {"entries": exc.entries, "budget": exc.budget})
        )
    except CheckpointMismatch as exc:
        queue.put(("error", shard, "checkpoint", {"message": str(exc)}))
    except SnapshotCorrupted as exc:
        queue.put(("error", shard, "corrupt", {"path": exc.path, "detail": exc.detail}))
    except UnsupportedConfiguration as exc:
        # Only what needs the bound predicate gets this far: the parent
        # built and checked the algorithm before starting any worker.
        queue.put(("error", shard, "unsupported", {"message": str(exc)}))
    except BaseException as exc:  # noqa: BLE001 - relayed, not swallowed
        queue.put(
            ("error", shard, "crash", {"message": f"{type(exc).__name__}: {exc}"})
        )


def _run_shard(spec: dict, queue, cancel_event) -> None:
    shard = spec["shard"]
    n_shards = spec["n_shards"]
    dataset = spec["dataset"]
    predicate = spec["predicate"]
    batch_size = spec["batch_size"]

    algorithm = spec["algorithm"]
    algorithm.name = shard_algorithm_name(algorithm.name, shard, n_shards)
    algorithm.set_shard(shard, n_shards)

    checkpointer = None
    checkpoint_dir = spec["checkpoint_dir"]
    if checkpoint_dir is not None:
        marker_meta = {
            "algorithm": algorithm.name,
            "predicate": predicate.name,
            "fingerprint": dataset_fingerprint(dataset),
            "n_records": len(dataset),
        }
        finished = _load_done_marker(checkpoint_dir, marker_meta)
        if finished is not None:
            info = dict(finished["info"])
            info["resumed_finished_shard"] = True
            _stream_result(
                queue,
                shard,
                [tuple(pair) for pair in finished["pairs"]],
                finished["counters"],
                info,
                batch_size,
            )
            return
        checkpointer = JoinCheckpointer(
            checkpoint_dir, interval_records=spec["checkpoint_interval"]
        )

    context = JoinContext(
        deadline_seconds=spec["deadline_seconds"],
        cancel_token=EventCancellationToken(cancel_event),
        memory_budget_entries=spec["memory_budget_entries"],
        on_memory_exceeded=spec["on_memory_exceeded"],
        checkpointer=checkpointer,
    )

    start = time.perf_counter()
    result = algorithm.join(dataset, predicate, context=context)
    pairs = [(p.rid_a, p.rid_b, p.similarity) for p in result.pairs]
    counters = result.counters.as_dict()
    info = {
        "degraded_from": result.degraded_from,
        "degradation_reason": result.degradation_reason,
        "elapsed_seconds": time.perf_counter() - start,
    }
    if checkpoint_dir is not None:
        # Persist the finished shard so a resume of the *whole* parallel
        # join (another shard was interrupted) skips this one entirely.
        _write_done_marker(checkpoint_dir, marker_meta, pairs, counters, info)
    _stream_result(queue, shard, pairs, counters, info, batch_size)
