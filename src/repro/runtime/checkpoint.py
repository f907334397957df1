"""Checkpoint/resume for batch joins.

The shared driver loop (:mod:`repro.core.base`) periodically snapshots
join progress — the last completed scan position, every pair emitted so
far, and the cost counters — through a :class:`JoinCheckpointer`. When
the same invocation is relaunched (same algorithm, predicate, and
dataset, verified by fingerprint), the driver restores the pairs and
*replays* the scan up to the checkpointed position: state-building work
(index inserts, cluster assignment) is redone deterministically while
pair emission is skipped, so the resumed run produces exactly the pair
set of an uninterrupted run.

Checkpoint files are written through :mod:`repro.runtime.snapshot`, so
a crash during a checkpoint write can never destroy the previous
checkpoint.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.core.results import MatchPair
from repro.runtime.errors import CheckpointMismatch, SnapshotCorrupted
from repro.runtime.snapshot import read_snapshot, write_snapshot
from repro.utils.counters import CostCounters

__all__ = ["CheckpointState", "JoinCheckpointer", "dataset_fingerprint"]

CHECKPOINT_KIND = "join-checkpoint"
CHECKPOINT_FILENAME = "join.ckpt"


def dataset_fingerprint(dataset) -> str:
    """Content hash of the record sets (resume-compatibility check)."""
    digest = hashlib.sha256()
    digest.update(str(len(dataset)).encode("ascii"))
    for record in dataset.records:
        digest.update(b"|")
        digest.update(",".join(map(str, record)).encode("ascii"))
    return digest.hexdigest()


@dataclass
class CheckpointState:
    """One recoverable point of a join: identity + progress."""

    algorithm: str
    predicate: str
    fingerprint: str
    n_records: int
    position: int
    pairs: list
    counters: dict

    def match_pairs(self) -> list[MatchPair]:
        return [MatchPair(int(a), int(b), float(sim)) for a, b, sim in self.pairs]

    def cost_counters(self) -> CostCounters:
        return CostCounters.from_dict(self.counters)


class JoinCheckpointer:
    """Periodic progress snapshots for one (resumable) join invocation.

    Args:
        directory: where the checkpoint file lives (created if absent).
        interval_records: checkpoint cadence, in completed scan
            positions. Lower = less lost work on a crash, more write
            amplification.
        fs: filesystem shim passed to the snapshot layer (fault
            injection for tests).
    """

    def __init__(self, directory: str, interval_records: int = 1000, fs=None):
        if interval_records < 1:
            raise ValueError(
                f"interval_records must be >= 1, got {interval_records}"
            )
        self.directory = directory
        self.interval_records = interval_records
        self.fs = fs
        self.writes = 0
        os.makedirs(directory, exist_ok=True)

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILENAME)

    # ------------------------------------------------------------------

    def load(self) -> CheckpointState | None:
        """The checkpoint on disk, or None when starting fresh.

        Raises :class:`SnapshotCorrupted` when a file exists but cannot
        be trusted — never silently resumes from damaged state.
        """
        try:
            payload = read_snapshot(self.path, kind=CHECKPOINT_KIND, fs=self.fs)
        except FileNotFoundError:
            return None
        try:
            return CheckpointState(
                algorithm=str(payload["algorithm"]),
                predicate=str(payload["predicate"]),
                fingerprint=str(payload["fingerprint"]),
                n_records=int(payload["n_records"]),
                position=int(payload["position"]),
                pairs=list(payload["pairs"]),
                counters=dict(payload["counters"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotCorrupted(self.path, f"bad checkpoint shape: {exc}") from exc

    @staticmethod
    def validate(
        state: CheckpointState,
        *,
        algorithm: str,
        predicate: str,
        fingerprint: str,
        n_records: int,
    ) -> None:
        """Refuse to resume a checkpoint from a different invocation."""
        mismatches = []
        if state.algorithm != algorithm:
            mismatches.append(f"algorithm {state.algorithm!r} != {algorithm!r}")
        if state.predicate != predicate:
            mismatches.append(f"predicate {state.predicate!r} != {predicate!r}")
        if state.n_records != n_records:
            mismatches.append(f"record count {state.n_records} != {n_records}")
        if state.fingerprint != fingerprint:
            mismatches.append("dataset fingerprint differs")
        if mismatches:
            raise CheckpointMismatch(
                "checkpoint belongs to a different join invocation: "
                + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------

    def due(self, position: int) -> bool:
        """Whether completing ``position`` should trigger a checkpoint."""
        return (position + 1) % self.interval_records == 0

    def write(
        self,
        *,
        algorithm: str,
        predicate: str,
        fingerprint: str,
        n_records: int,
        position: int,
        pairs: list[MatchPair],
        counters: CostCounters,
    ) -> None:
        """Atomically persist progress through ``position``."""
        payload = {
            "algorithm": algorithm,
            "predicate": predicate,
            "fingerprint": fingerprint,
            "n_records": n_records,
            "position": position,
            "pairs": [[p.rid_a, p.rid_b, p.similarity] for p in pairs],
            "counters": counters.as_dict(),
        }
        write_snapshot(self.path, payload, kind=CHECKPOINT_KIND, fs=self.fs)
        self.writes += 1

    def clear(self) -> None:
        """Drop the checkpoint (the join completed)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
