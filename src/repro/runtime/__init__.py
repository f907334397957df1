"""Hardened join runtime: deadlines, cancellation, checkpoint/resume,
crash-safe persistence, and graceful degradation.

The pieces:

* :class:`~repro.runtime.context.JoinContext` /
  :class:`~repro.runtime.context.CancellationToken` — per-join deadline,
  cooperative cancellation, and memory budget, enforced at record
  granularity by the shared driver loop.
* :class:`~repro.runtime.checkpoint.JoinCheckpointer` — periodic
  progress snapshots; an interrupted batch join resumes instead of
  restarting.
* :mod:`~repro.runtime.snapshot` — versioned, checksummed,
  atomically-renamed snapshot files (used by checkpoints and
  :class:`~repro.core.service.SimilarityIndex` persistence).
* :mod:`~repro.runtime.rwlock` — reader–writer lock behind the
  thread-safe :class:`~repro.core.service.SimilarityIndex` (many
  concurrent queries, exclusive mutations).
* :mod:`~repro.runtime.errors` — the structured exception hierarchy.
* :mod:`~repro.runtime.faults` — deterministic fault injection
  (fake clock, failing filesystem, countdown cancellation) for tests.

See ``docs/operations.md`` for the operational guide.
"""

from repro.runtime.checkpoint import (
    CheckpointState,
    JoinCheckpointer,
    dataset_fingerprint,
)
from repro.runtime.context import CancellationToken, JoinContext
from repro.runtime.errors import (
    CheckpointMismatch,
    CircuitOpen,
    ConcurrentMutation,
    DeadlineExceeded,
    FrameChecksumError,
    JoinCancelled,
    JoinInterrupted,
    JoinRuntimeError,
    JoinTimeout,
    MemoryBudgetExceeded,
    PartialResult,
    ReindexTimeout,
    ServerOverloaded,
    ShardUnavailable,
    SnapshotCorrupted,
    SnapshotEncodingError,
    UnsupportedConfiguration,
    WireProtocolError,
)
from repro.runtime.rwlock import NullRWLock, RWLock
from repro.runtime.snapshot import read_snapshot, write_snapshot

__all__ = [
    "CancellationToken",
    "CheckpointMismatch",
    "CheckpointState",
    "CircuitOpen",
    "ConcurrentMutation",
    "DeadlineExceeded",
    "FrameChecksumError",
    "JoinCancelled",
    "JoinCheckpointer",
    "JoinContext",
    "JoinInterrupted",
    "JoinRuntimeError",
    "JoinTimeout",
    "MemoryBudgetExceeded",
    "NullRWLock",
    "PartialResult",
    "RWLock",
    "ReindexTimeout",
    "ServerOverloaded",
    "ShardUnavailable",
    "SnapshotCorrupted",
    "SnapshotEncodingError",
    "UnsupportedConfiguration",
    "WireProtocolError",
    "dataset_fingerprint",
    "read_snapshot",
    "write_snapshot",
]
