"""JoinContext: deadlines, cooperative cancellation, memory budgets.

A :class:`JoinContext` travels with one join invocation and is checked
at record granularity by the shared driver loop in
:mod:`repro.core.base`, so every algorithm dispatched through
``similarity_join`` inherits the same interruption semantics:

* **deadline** — wall-clock budget for the join; expiry raises
  :class:`~repro.runtime.errors.JoinTimeout`.
* **cancellation** — a :class:`CancellationToken` another thread (or a
  signal handler) can trip; the join raises
  :class:`~repro.runtime.errors.JoinCancelled` at the next record
  boundary.
* **memory budget** — a cap on live index entries (the paper's unit
  ``M``, word occurrences). When it trips, the default policy degrades
  the join to the budget-respecting ClusterMem algorithm; the strict
  policy raises :class:`~repro.runtime.errors.MemoryBudgetExceeded`.

The clock is injectable (see :class:`repro.runtime.faults.FakeClock`)
so timeout behaviour is deterministic under test.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.runtime.errors import JoinCancelled, JoinTimeout, MemoryBudgetExceeded

__all__ = ["CancellationToken", "JoinContext"]


class CancellationToken:
    """A one-way latch requesting cooperative cancellation.

    ``cancel()`` may be called from any thread or from a signal
    handler; the join observes it at the next record boundary.
    """

    __slots__ = ("_cancelled", "reason")

    def __init__(self) -> None:
        self._cancelled = False
        self.reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self._cancelled else "active"
        return f"CancellationToken({state})"


class JoinContext:
    """Runtime envelope for one join: deadline, cancellation, memory.

    Args:
        deadline_seconds: wall-clock budget, measured from the first
            record processed under this context. ``None`` = unbounded.
        cancel_token: a shared :class:`CancellationToken`; a fresh one
            is created when omitted (reachable as ``.cancel_token``).
        memory_budget_entries: cap on live inverted-index entries (word
            occurrences — the same unit as
            :class:`~repro.core.cluster_mem.MemoryBudget`).
        on_memory_exceeded: ``"degrade"`` (default) re-runs the join
            with ClusterMem under the budget; ``"raise"`` raises
            :class:`MemoryBudgetExceeded` instead.
        checkpointer: a :class:`~repro.runtime.checkpoint.JoinCheckpointer`
            for periodic progress snapshots and resume.
        clock: monotonic-seconds callable; injectable for tests.

    A context may be shared across several joins; the deadline then
    spans all of them (it anchors at first use). Build a fresh context
    per job for per-job deadlines.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        cancel_token: CancellationToken | None = None,
        memory_budget_entries: int | None = None,
        on_memory_exceeded: str = "degrade",
        checkpointer=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {deadline_seconds}")
        if memory_budget_entries is not None and memory_budget_entries < 1:
            raise ValueError(
                f"memory budget must be >= 1 entry, got {memory_budget_entries}"
            )
        if on_memory_exceeded not in ("degrade", "raise"):
            raise ValueError(
                f"on_memory_exceeded must be 'degrade' or 'raise',"
                f" got {on_memory_exceeded!r}"
            )
        self.deadline_seconds = deadline_seconds
        self.cancel_token = cancel_token if cancel_token is not None else CancellationToken()
        self.memory_budget_entries = memory_budget_entries
        self.on_memory_exceeded = on_memory_exceeded
        self.checkpointer = checkpointer
        self.clock = clock
        self._started_at: float | None = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Anchor the deadline; a no-op when already anchored."""
        if self._started_at is None:
            self._started_at = self.clock()

    def elapsed(self) -> float:
        """Seconds since the deadline anchor (0.0 before first use)."""
        if self._started_at is None:
            return 0.0
        return self.clock() - self._started_at

    def remaining(self) -> float | None:
        """Seconds left on the deadline, or None when unbounded."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - self.elapsed()

    def cancel(self, reason: str = "cancelled") -> None:
        """Convenience passthrough to the cancellation token."""
        self.cancel_token.cancel(reason)

    # ------------------------------------------------------------------

    def tick(self, counters, check_memory: bool = True) -> None:
        """One record-granularity runtime check.

        Called by the shared driver loop before each record is
        processed. Raises :class:`JoinCancelled`, :class:`JoinTimeout`,
        or :class:`MemoryBudgetExceeded` (the latter only with
        ``check_memory``; budget-respecting algorithms such as
        ClusterMem disable it because their cumulative insert counters
        intentionally exceed the live-memory budget).
        """
        counters.records_scanned += 1
        if self.cancel_token.cancelled:
            raise JoinCancelled(self.cancel_token.reason)
        if self.deadline_seconds is not None:
            self.start()
            elapsed = self.elapsed()
            if elapsed >= self.deadline_seconds:
                raise JoinTimeout(elapsed, self.deadline_seconds)
        if check_memory and self.memory_budget_entries is not None:
            self.check_entries(counters.index_entries + counters.peak_pair_table)

    def check_entries(self, entries: int) -> None:
        """Raise :class:`MemoryBudgetExceeded` when ``entries`` live
        index entries exceed the memory budget (no-op without one)."""
        budget = self.memory_budget_entries
        if budget is not None and entries > budget:
            raise MemoryBudgetExceeded(entries, budget)

    def for_degraded_run(self) -> "JoinContext":
        """Context for the ClusterMem fallback after a budget trip.

        Shares the cancellation token, clock, and the already-anchored
        deadline (the fallback does not get fresh time); drops the
        memory budget (ClusterMem respects it structurally) and the
        checkpointer (its checkpoints would be keyed to the original
        algorithm).
        """
        clone = JoinContext(
            deadline_seconds=self.deadline_seconds,
            cancel_token=self.cancel_token,
            clock=self.clock,
        )
        clone._started_at = self._started_at
        return clone
