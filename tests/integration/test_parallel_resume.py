"""Per-shard checkpoints under round-robin scan ownership.

Shard ``i`` of ``N`` owns the scan positions ``p % N == i``; its
checkpoint identity (``probe-count@shard0%2``) says so. A checkpoint or
finished-shard marker written under the older contiguous-window
geometry (``probe-count@shard0.2``) owned different positions, so it
must be refused rather than resumed. An interrupted parallel join
resumed from its shard checkpoints must equal an uninterrupted one.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro import JaccardPredicate, OverlapPredicate, parallel_join, similarity_join
from repro.core.records import Dataset
from repro.parallel import worker
from repro.runtime.checkpoint import JoinCheckpointer, dataset_fingerprint
from repro.runtime.context import JoinContext
from repro.runtime.errors import CheckpointMismatch, JoinCancelled
from repro.runtime.snapshot import write_snapshot
from repro.utils.counters import CostCounters


def seeded_dataset(seed: int, n: int, vocabulary: int) -> Dataset:
    rng = random.Random(seed)
    return Dataset(
        [
            tuple(sorted(rng.sample(range(vocabulary), rng.randint(2, 9))))
            for _ in range(n)
        ]
    )


def _context(directory) -> JoinContext:
    return JoinContext(checkpointer=JoinCheckpointer(str(directory), interval_records=7))


class TestContiguousGeometryRefused:
    algorithm = "positional-filter"
    predicate = OverlapPredicate(3)

    def test_old_checkpoint_is_refused(self, tmp_path):
        data = seeded_dataset(seed=3, n=80, vocabulary=30)
        stale = JoinCheckpointer(str(tmp_path / "shard-0"), interval_records=7)
        stale.write(
            algorithm=f"{self.algorithm}@shard0.2",
            predicate=self.predicate.name,
            fingerprint=dataset_fingerprint(data),
            n_records=len(data),
            position=13,
            pairs=[],
            counters=CostCounters(),
        )
        with pytest.raises(CheckpointMismatch, match=r"@shard0\.2"):
            parallel_join(
                data, self.predicate, algorithm=self.algorithm, workers=2,
                context=_context(tmp_path),
            )

    def test_old_done_marker_is_refused(self, tmp_path):
        data = seeded_dataset(seed=3, n=80, vocabulary=30)
        os.makedirs(tmp_path / "shard-1")
        write_snapshot(
            str(tmp_path / "shard-1" / worker.DONE_MARKER_FILENAME),
            {
                "algorithm": f"{self.algorithm}@shard1.2",
                "predicate": self.predicate.name,
                "fingerprint": dataset_fingerprint(data),
                "n_records": len(data),
                "pairs": [],
                "counters": CostCounters().as_dict(),
                "info": {"elapsed_seconds": 0.1},
            },
            kind=worker.DONE_MARKER_KIND,
        )
        with pytest.raises(CheckpointMismatch, match="shard result marker"):
            parallel_join(
                data, self.predicate, algorithm=self.algorithm, workers=2,
                context=_context(tmp_path),
            )


class _TripAfter(worker.EventCancellationToken):
    """Cancels its worker at the ``after``-th runtime check."""

    after = 1

    def __init__(self, event) -> None:
        super().__init__(event)
        self.polls = 0

    @property
    def cancelled(self) -> bool:
        self.polls += 1
        if self.polls >= self.after and not self._cancelled:
            self.cancel("injected interruption")
        return super().cancelled


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the interruption is injected into forked workers",
)
class TestInterruptedThenResumed:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("algorithm", ["positional-filter", "probe-count-sort"])
    def test_resume_equals_uninterrupted(self, tmp_path, monkeypatch, algorithm, workers, seed):
        data = seeded_dataset(seed=seed, n=240, vocabulary=40)
        predicate = JaccardPredicate(0.3)
        uninterrupted = parallel_join(data, predicate, algorithm=algorithm, workers=workers)
        assert uninterrupted.pair_set() == similarity_join(
            data, predicate, algorithm=algorithm
        ).pair_set()

        # Every worker stops at the same random scan position (a shard
        # whose scan ends first finishes and leaves its done marker).
        monkeypatch.setattr(_TripAfter, "after", random.Random(seed).randint(2, len(data)))
        monkeypatch.setattr(worker, "EventCancellationToken", _TripAfter)
        with pytest.raises(JoinCancelled):
            parallel_join(
                data, predicate, algorithm=algorithm, workers=workers,
                context=_context(tmp_path),
            )
        monkeypatch.undo()
        assert any(
            os.listdir(tmp_path / f"shard-{shard}")
            for shard in range(workers)
            if os.path.isdir(tmp_path / f"shard-{shard}")
        ), "the interrupted run left no shard state to resume from"

        resumed = parallel_join(
            data, predicate, algorithm=algorithm, workers=workers,
            context=_context(tmp_path),
        )
        assert [(p.rid_a, p.rid_b, p.similarity) for p in resumed.pairs] == [
            (p.rid_a, p.rid_b, p.similarity) for p in uninterrupted.pairs
        ]
