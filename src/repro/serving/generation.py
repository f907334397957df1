"""Zero-downtime index generation builds for the sharded serving tier.

A shard that needs a rebuilt index (rebinding corpus statistics,
compaction after churn, a new filter configuration) must not stop
serving while the replacement is built — for a large shard a build
takes seconds to minutes, and the whole point of sharding is that no
single maintenance operation takes the tier down.

:class:`GenerationBuilder` does the classic two-phase flip:

1. **Build** (no shard locks held): snapshot the live index's records
   via :meth:`SimilarityIndex.export_records` and construct a fresh
   index from them. Queries and adds proceed against the live index
   untouched the whole time.
2. **Flip** (under the shard's writer-preferring RWLock, briefly):
   replay the records that were added *after* the snapshot into the new
   index (the catch-up delta — exact, because adds also hold the shard
   lock, so none can race the flip), swap the shard's index reference,
   and bump the shard's flip epoch. The epoch is half of the shard's
   cache stamp, so the flip empties exactly that shard's
   :class:`~repro.serving.cache.QueryCache` and nobody else's.

In-flight probes keep the old index object alive via their own
reference and finish against it — results are linearized at the moment
the probe grabbed the reference, never torn across generations.

The builder works against anything shard-shaped (``index`` /
``rwlock`` / ``epoch`` / ``begin_reindex()``); the sharded server's
:meth:`~repro.serving.sharded.ShardedIndexServer.reindex` is the
production caller, and tests drive it directly with slow or failing
index factories to pin the zero-downtime and crash-safety claims.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.runtime.errors import ConcurrentMutation

__all__ = ["GenerationBuilder"]


class GenerationBuilder:
    """Builds and atomically installs one shard's next index generation.

    Args:
        shard: the shard to rebuild — needs ``.index`` (a
            :class:`SimilarityIndex`), ``.rwlock`` (guards the index
            *reference*), ``.epoch`` (int, bumped on flip), and
            ``.begin_reindex()`` returning a release callable (or
            raising when a rebuild is already running).
        index_factory: builds the empty next-generation index; must
            share the vocabulary/predicate configuration of the live
            one or the flip would change query results.
        clock: injectable monotonic clock for the build timing stats.

    Use :meth:`start` + :meth:`wait` for a background build, or call
    :meth:`build_and_flip` inline. One builder = one generation; make a
    fresh builder per rebuild.
    """

    def __init__(self, shard, index_factory: Callable[[], object], clock=time.monotonic):
        self.shard = shard
        self.index_factory = index_factory
        self.clock = clock
        self._thread: threading.Thread | None = None
        self.error: BaseException | None = None
        #: Records in the build snapshot (set once phase 1 finishes).
        self.built: int | None = None
        #: Records replayed under the flip lock.
        self.caught_up: int | None = None
        self.flipped = False
        self.seconds: float | None = None

    # ------------------------------------------------------------------

    def start(self) -> "GenerationBuilder":
        """Run :meth:`build_and_flip` on a background daemon thread."""
        if self._thread is not None:
            raise RuntimeError("builder already started")
        self._thread = threading.Thread(
            target=self._run, name="generation-builder", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            self.build_and_flip()
        except BaseException as exc:  # noqa: BLE001 — re-raised by wait()
            self.error = exc

    def wait(self, timeout: float | None = None) -> bool:
        """Join the background build; re-raises its failure, if any.

        Returns False when the build is still running after ``timeout``.
        """
        if self._thread is None:
            raise RuntimeError("builder was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            return False
        if self.error is not None:
            raise self.error
        return True

    # ------------------------------------------------------------------

    def build_and_flip(self) -> None:
        """The two-phase rebuild; see the module docstring.

        Raises :class:`~repro.runtime.errors.ConcurrentMutation` when
        another rebuild of the same shard is already in progress, and
        whatever the index factory or replay raises on failure — in
        which case the shard keeps serving its current generation
        (the swap is the last step; a failed build changes nothing).
        """
        shard = self.shard
        release = shard.begin_reindex()
        started = self.clock()
        try:
            # Phase 1 — build, no shard lock held. The reference grab is
            # the only instant we touch the lock: probes own their
            # references the same way, so a concurrent flip (excluded
            # here by begin_reindex, but the pattern matters) could
            # never hand us a torn index.
            with shard.rwlock.read_locked():
                live = shard.index
            snapshot = live.export_records(0)
            fresh = self.index_factory()
            for tokens, payload in snapshot:
                fresh.add(tokens, payload=payload)
            self.built = len(snapshot)

            # Phase 2 — flip. The write lock excludes adds (they hold
            # the read side for their whole insert), so the catch-up
            # delta below is exact: every record the live index gained
            # since the snapshot, and provably nothing can land between
            # the replay and the swap.
            with shard.rwlock.write_locked():
                delta = shard.index.export_records(self.built)
                for tokens, payload in delta:
                    fresh.add(tokens, payload=payload)
                self.caught_up = len(delta)
                shard.index = fresh
                shard.epoch += 1
            self.flipped = True
        finally:
            self.seconds = self.clock() - started
            release()


class _ReindexGuard:
    """One-at-a-time rebuild latch a shard embeds (see ``begin_reindex``)."""

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()

    def acquire(self, shard_name: str) -> Callable[[], None]:
        if not self._lock.acquire(blocking=False):
            raise ConcurrentMutation("reindex", f"reindex of {shard_name}")
        return self._lock.release
